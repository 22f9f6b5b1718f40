open Ltc_experiments

(* Tiny sweeps keep these integration tests fast while exercising the whole
   measurement loop (generation -> 5 algorithms -> aggregation -> tables). *)

let tiny_instance_of ~seed n_tasks =
  let spec =
    {
      Ltc_workload.Spec.default_synthetic with
      Ltc_workload.Spec.n_tasks;
      n_workers = 60 * n_tasks;
      world_side = 12.0 *. sqrt (float_of_int n_tasks);
      capacity = 3;
    }
  in
  Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed) spec

let run_tiny_sweep () =
  Runner.sweep ~reps:2 ~seed:5 ~xs:[ 4; 8 ] ~label:string_of_int
    ~instance_of:tiny_instance_of ()

let test_sweep_shape () =
  let points = run_tiny_sweep () in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check int) "five algorithms" 5 (List.length p.Runner.algos);
      List.iter
        (fun a ->
          Alcotest.(check bool)
            (a.Runner.algorithm ^ " completed")
            true a.Runner.all_completed;
          Alcotest.(check bool) "positive latency" true (a.Runner.mean_latency > 0.0);
          Alcotest.(check bool) "non-negative runtime" true
            (a.Runner.mean_runtime_s >= 0.0);
          Alcotest.(check bool) "positive memory" true
            (a.Runner.mean_memory_mb > 0.0))
        p.Runner.algos)
    points

let test_sweep_algorithm_order () =
  let points = run_tiny_sweep () in
  let names p = List.map (fun a -> a.Runner.algorithm) p.Runner.algos in
  Alcotest.(check (list string)) "paper order"
    [ "Base-off"; "MCF-LTC"; "Random"; "LAF"; "AAM" ]
    (names (List.hd points))

let test_sweep_reps_validated () =
  Alcotest.check_raises "reps 0"
    (Invalid_argument "Runner.sweep: reps must be positive") (fun () ->
      ignore
        (Runner.sweep ~reps:0 ~seed:1 ~xs:[ 1 ] ~label:string_of_int
           ~instance_of:tiny_instance_of ()))

let test_tables_render () =
  let points = run_tiny_sweep () in
  let latency = Runner.latency_table ~title:"t" ~x_header:"|T|" points in
  Alcotest.(check int) "header width" 6 (List.length latency.Runner.header);
  Alcotest.(check int) "rows" 2 (List.length latency.Runner.rows);
  let rendered = Runner.render latency in
  Alcotest.(check bool) "mentions AAM" true
    (Astring.String.is_infix ~affix:"AAM" rendered);
  let runtime = Runner.runtime_table ~title:"r" ~x_header:"|T|" points in
  let memory = Runner.memory_table ~title:"m" ~x_header:"|T|" points in
  Alcotest.(check int) "runtime rows" 2 (List.length runtime.Runner.rows);
  Alcotest.(check int) "memory rows" 2 (List.length memory.Runner.rows)

let test_to_plot () =
  let points = run_tiny_sweep () in
  let latency = Runner.latency_table ~title:"t" ~x_header:"|T|" points in
  (match Runner.to_plot latency with
  | None -> Alcotest.fail "expected a plot"
  | Some plot ->
    Alcotest.(check bool) "legend mentions AAM" true
      (Astring.String.is_infix ~affix:"AAM" plot));
  let empty =
    { Runner.title = "e"; header = [ "x" ]; rows = []; float_digits = 0 }
  in
  Alcotest.(check bool) "empty table has no plot" true
    (Runner.to_plot empty = None)

let test_csv_escaping () =
  let output =
    {
      Runner.title = "csv test";
      header = [ "name"; "value" ];
      rows =
        [
          [ Ltc_util.Table.Str "plain"; Ltc_util.Table.Int 3 ];
          [ Ltc_util.Table.Str "comma, quote \" and\nnewline";
            Ltc_util.Table.Float 0.5 ];
        ];
      float_digits = 2;
    }
  in
  let csv = Runner.to_csv output in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "header" "name,value" (List.hd lines);
  Alcotest.(check bool) "quoted field with doubled quotes" true
    (Astring.String.is_infix ~affix:"\"comma, quote \"\" and\nnewline\"" csv)

let test_csv_written_to_disk () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "ltc_csv_test" in
  let output =
    {
      Runner.title = "disk/test: table";
      header = [ "x" ];
      rows = [ [ Ltc_util.Table.Int 1 ] ];
      float_digits = 0;
    }
  in
  let path = Runner.write_csv ~dir output in
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "content" "x" first;
  Alcotest.(check bool) "slugified name" true
    (Filename.basename path = "disk_test__table.csv")

let test_registry_covers_every_panel () =
  let ids = Figures.ids () in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true (List.mem id ids))
    [
      "fig3-T"; "fig3-K"; "fig3-accN"; "fig3-accU"; "fig4-eps"; "fig4-scal";
      "fig4-ny"; "fig4-tokyo"; "ablation-batch"; "ablation-strategy";
      "ablation-approx"; "ext-noshow"; "ext-buffer";
      "ext-dynamic"; "ext-inference"; "hoeffding";
    ];
  Alcotest.(check bool) "find works" true (Figures.find "fig3-T" <> None);
  Alcotest.(check bool) "unknown id" true (Figures.find "fig9-z" = None)

let test_experiment_runs_at_micro_scale () =
  (* Run one real figure experiment end-to-end at a very small scale. *)
  match Figures.find "fig3-K" with
  | None -> Alcotest.fail "fig3-K missing"
  | Some e ->
    let outputs = e.Figures.run ~jobs:1 ~scale:0.004 ~reps:1 ~seed:3 in
    Alcotest.(check int) "three panels" 3 (List.length outputs);
    List.iter
      (fun o ->
        Alcotest.(check int) "five sweep rows" 5 (List.length o.Runner.rows))
      outputs

let test_hoeffding_experiment () =
  match Figures.find "hoeffding" with
  | None -> Alcotest.fail "hoeffding missing"
  | Some e ->
    let outputs = e.Figures.run ~jobs:2 ~scale:0.1 ~reps:1 ~seed:11 in
    (match outputs with
    | [ o ] ->
      Alcotest.(check int) "five eps rows" 5 (List.length o.Runner.rows);
      (* Every row must end with a "yes" verdict: the completion rule must
         actually deliver the promised error rate. *)
      List.iter
        (fun row ->
          match List.rev row with
          | Ltc_util.Table.Str verdict :: _ ->
            Alcotest.(check string) "within bound" "yes" verdict
          | _ -> Alcotest.fail "unexpected row shape")
        o.Runner.rows
    | _ -> Alcotest.fail "expected one table")

let suite =
  [
    ( "experiments.runner",
      [
        Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
        Alcotest.test_case "algorithm order" `Quick test_sweep_algorithm_order;
        Alcotest.test_case "reps validated" `Quick test_sweep_reps_validated;
        Alcotest.test_case "tables render" `Quick test_tables_render;
        Alcotest.test_case "to_plot" `Quick test_to_plot;
        Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
        Alcotest.test_case "csv written to disk" `Quick test_csv_written_to_disk;
      ] );
    ( "experiments.figures",
      [
        Alcotest.test_case "registry covers all panels" `Quick
          test_registry_covers_every_panel;
        Alcotest.test_case "fig3-K at micro scale" `Slow
          test_experiment_runs_at_micro_scale;
        Alcotest.test_case "hoeffding validation" `Slow test_hoeffding_experiment;
      ] );
  ]
