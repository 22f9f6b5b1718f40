(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. V) plus the ablations of DESIGN.md §4.

     dune exec bench/main.exe                 # everything, default scales
     dune exec bench/main.exe -- --list       # experiment catalogue
     dune exec bench/main.exe -- fig3-T fig4-eps --scale 1 --reps 30
     dune exec bench/main.exe -- micro        # bechamel micro benches

   Scales shrink workloads density-preservingly (1.0 = the paper's exact
   cardinalities); shapes are preserved, absolute numbers are not. *)

open Ltc_experiments

(* Per-figure wall time and throughput, reported by --json. *)
type figure_stat = {
  j_id : string;
  j_scale : float;
  j_reps : int;
  j_jobs : int;
  j_seed : int;
  j_wall_s : float;
  j_runs : int;  (** algorithm executions (Runner.runs_executed delta) *)
}

(* --json entries: (key, rendered JSON object body) pairs, so figure stats
   and standalone benches (flow-batch-reuse) share one writer. *)
let render_figure_stat s =
  let rps =
    if s.j_wall_s > 0.0 then float_of_int s.j_runs /. s.j_wall_s else 0.0
  in
  ( Printf.sprintf "BENCH_%s" s.j_id,
    Printf.sprintf
      "{\"id\": %S, \"scale\": %g, \"reps\": %d, \"jobs\": %d, \"seed\": %d, \
       \"wall_s\": %.6f, \"runs\": %d, \"runs_per_sec\": %.3f}"
      s.j_id s.j_scale s.j_reps s.j_jobs s.j_seed s.j_wall_s s.j_runs rps )

let write_json ~path entries =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  List.iteri
    (fun i (key, body) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (Printf.sprintf "  %S: %s" key body))
    entries;
  Buffer.add_string b "\n}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc b)

let run_figure ~jobs ~scale ~reps ~seed ~csv ~plot (e : Figures.t) =
  let scale = Option.value scale ~default:e.Figures.default_scale in
  Printf.printf "### %s — %s\n" e.Figures.id e.Figures.panels;
  Printf.printf "    %s\n" e.Figures.description;
  Printf.printf "    scale=%g reps=%d seed=%d jobs=%d\n\n%!" scale reps seed
    jobs;
  let runs_before = Runner.runs_executed () in
  let outputs, dt =
    Ltc_util.Timer.time (fun () -> e.Figures.run ~jobs ~scale ~reps ~seed)
  in
  let runs = Runner.runs_executed () - runs_before in
  List.iter
    (fun o ->
      Runner.print o;
      if plot then
        Option.iter (fun p -> print_newline (); print_string p) (Runner.to_plot o);
      (match csv with
      | None -> ()
      | Some dir ->
        let path = Runner.write_csv ~dir o in
        Printf.printf "(csv: %s)\n" path);
      print_newline ())
    outputs;
  Printf.printf "(%s finished in %.1f s)\n\n%!" e.Figures.id dt;
  {
    j_id = e.Figures.id;
    j_scale = scale;
    j_reps = reps;
    j_jobs = jobs;
    j_seed = seed;
    j_wall_s = dt;
    j_runs = runs;
  }

(* ------------------------------------------------- flow batch-reuse bench *)

(* Contrast the {!Ltc_flow} hot-path regimes on one identical batch
   sequence (the buffered-MCF shape: arriving workers against thousands of
   open tasks):

     cold   fresh graph + fresh workspace + Bellman-Ford per batch (the
            pre-arena behaviour)
     reuse  one arena + one workspace, Bellman-Ford per batch (what
            MCF-LTC does)

   Two shapes: a trickle (8 workers/batch, where per-batch setup dominates
   the tiny flow) and a ~100x batch (800 workers/batch, where the solve
   dominates), timed 15 and 3 times per variant, alternating between the
   variants.  Both variants solve identical networks; the checksum
   asserts they agree exactly, since a reused workspace changes no
   arithmetic. *)
let flow_batch_id = "flow-batch-reuse"

type flow_shape_stat = {
  fb_batches : int;
  fb_nodes : int;
  fb_arcs : int;
  fb_flow : int;
  fb_cold_s : float;
  fb_reuse_s : float;
  fb_checksum_ok : bool;
}

let flow_batch_shape ~label ~n_tasks ~batch_workers ~degree ~batches ~reps =
  let capacity = 1 in
  let source = 0 in
  let first_task = 1 + batch_workers in
  let sink = first_task + n_tasks in
  let nodes = sink + 1 in
  let arcs = batch_workers + (batch_workers * degree) + n_tasks in
  (* Every variant rebuilds the identical arc sequence for batch [b]. *)
  let build g b =
    let rng = Ltc_util.Rng.create ~seed:(1000 + b) in
    for w = 0 to batch_workers - 1 do
      ignore
        (Ltc_flow.Graph.add_arc g ~src:source ~dst:(1 + w) ~cap:capacity
           ~cost:0.0)
    done;
    for w = 0 to batch_workers - 1 do
      for _ = 1 to degree do
        let t = Ltc_util.Rng.int rng n_tasks in
        ignore
          (Ltc_flow.Graph.add_arc g ~src:(1 + w) ~dst:(first_task + t) ~cap:1
             ~cost:(-.Ltc_util.Rng.float rng 1.0))
      done
    done;
    for t = 0 to n_tasks - 1 do
      ignore
        (Ltc_flow.Graph.add_arc g ~src:(first_task + t) ~dst:sink ~cap:1
           ~cost:0.0)
    done
  in
  let cold () =
    let flow = ref 0 and cost = ref 0.0 in
    for b = 0 to batches - 1 do
      let g = Ltc_flow.Graph.create ~n:nodes in
      build g b;
      let r = Ltc_flow.Mcmf.run g ~source ~sink in
      flow := !flow + r.Ltc_flow.Mcmf.flow;
      cost := !cost +. r.Ltc_flow.Mcmf.cost
    done;
    (!flow, !cost)
  in
  let reuse () =
    let g = Ltc_flow.Graph.create ~n:1 in
    let ws = Ltc_flow.Mcmf.create_workspace () in
    let flow = ref 0 and cost = ref 0.0 in
    for b = 0 to batches - 1 do
      Ltc_flow.Graph.clear g ~n:nodes;
      build g b;
      let r = Ltc_flow.Mcmf.run g ~workspace:ws ~source ~sink in
      flow := !flow + r.Ltc_flow.Mcmf.flow;
      cost := !cost +. r.Ltc_flow.Mcmf.cost
    done;
    (!flow, !cost)
  in
  (* One warm-up run each (page faults, arena growth), then [reps] timed
     runs each in alternation — cold, reuse, reuse, cold, ... — so a drift
     in host speed over the bench favours neither variant; each reports
     its median. *)
  ignore (cold ());
  ignore (reuse ());
  let cold_t = Array.make reps 0.0 and reuse_t = Array.make reps 0.0 in
  let cold_r = ref (0, 0.0) and reuse_r = ref (0, 0.0) in
  let timed f result times i =
    let r, dt = Ltc_util.Timer.time f in
    result := r;
    times.(i) <- dt
  in
  for i = 0 to reps - 1 do
    if i mod 2 = 0 then begin
      timed cold cold_r cold_t i;
      timed reuse reuse_r reuse_t i
    end
    else begin
      timed reuse reuse_r reuse_t i;
      timed cold cold_r cold_t i
    end
  done;
  let cold_flow, cold_cost = !cold_r and reuse_flow, reuse_cost = !reuse_r in
  let cold_s = Ltc_util.Stats.percentile cold_t 50.0
  and reuse_s = Ltc_util.Stats.percentile reuse_t 50.0 in
  let checksum_ok = reuse_flow = cold_flow && reuse_cost = cold_cost in
  let speedup t = if t > 0.0 then cold_s /. t else 0.0 in
  let row name t =
    [
      Ltc_util.Table.Str name;
      Ltc_util.Table.Float (1000.0 *. t);
      Ltc_util.Table.Float (speedup t);
    ]
  in
  Printf.printf
    "%s: %d batches/pass x %d workers, %d nodes, %d arcs each; flow %d, \
     cost %.3f\n"
    label batches batch_workers nodes arcs cold_flow cold_cost;
  Printf.printf "checksum: %s\n\n"
    (if checksum_ok then "variants agree" else "VARIANTS DISAGREE");
  Ltc_util.Table.print ~float_digits:2
    ~header:[ "variant"; "median time/pass (ms)"; "speedup vs cold" ]
    [ row "cold (fresh + Bellman-Ford)" cold_s;
      row "reused arena + workspace" reuse_s ];
  print_newline ();
  {
    fb_batches = batches;
    fb_nodes = nodes;
    fb_arcs = arcs;
    fb_flow = cold_flow;
    fb_cold_s = cold_s;
    fb_reuse_s = reuse_s;
    fb_checksum_ok = checksum_ok;
  }

let run_flow_batch ~scale () =
  print_endline
    "### flow-batch-reuse — arena and workspace reuse on the MCF hot path\n";
  let sc x = max 1 (int_of_float (Float.round (scale *. float_of_int x))) in
  let n_tasks = sc 6000 in
  let degree = min 64 n_tasks in
  let small =
    flow_batch_shape ~label:"trickle" ~n_tasks ~batch_workers:8 ~degree
      ~batches:48 ~reps:15
  in
  (* ~100x the trickle's batch width: the solve dominates, so the skipped
     rebuild is noise. *)
  let big =
    flow_batch_shape ~label:"100x" ~n_tasks ~batch_workers:(sc 800) ~degree
      ~batches:6 ~reps:3
  in
  let speedup cold t = if t > 0.0 then cold /. t else 0.0 in
  ( "BENCH_flow_batch",
    Printf.sprintf
      "{\"batches\": %d, \"nodes\": %d, \"arcs\": %d, \"flow_units\": %d, \
       \"cold_bf_s\": %.6f, \"reuse_s\": %.6f, \"speedup_reuse\": %.3f, \
       \"checksum_ok\": %d, \
       \"x100_batches\": %d, \"x100_nodes\": %d, \"x100_arcs\": %d, \
       \"x100_flow_units\": %d, \"x100_cold_bf_s\": %.6f, \
       \"x100_reuse_s\": %.6f, \"x100_speedup_reuse\": %.3f, \
       \"x100_checksum_ok\": %d}"
      small.fb_batches small.fb_nodes small.fb_arcs small.fb_flow
      small.fb_cold_s small.fb_reuse_s
      (speedup small.fb_cold_s small.fb_reuse_s)
      (if small.fb_checksum_ok then 1 else 0)
      big.fb_batches big.fb_nodes big.fb_arcs big.fb_flow big.fb_cold_s
      big.fb_reuse_s
      (speedup big.fb_cold_s big.fb_reuse_s)
      (if big.fb_checksum_ok then 1 else 0) )

(* --------------------------------------------------- serve-shard micro *)

(* Sharded serving throughput: the same clustered, shard-local arrival
   stream fed to a single session and to a Shard_server at 1/2/4/8
   shards in [`Domains] mode (one shard always runs inline: it is the
   plain session behind the server's feed).  The identical flag asserts every sharded
   run's merged fingerprint matched the single session byte for byte —
   a 0 here is a correctness regression.  Speedup expectations are
   scaled by the core count so a single-core container records an
   honest baseline instead of a vacuous failure. *)
let serve_shard_id = "serve-shard"

let run_serve_shard () =
  print_endline
    "### serve-shard — spatially sharded serving vs a single session\n";
  let clusters = 32 and tasks_per = 48 and n_arrivals = 8000 in
  let capacity = 2 in
  (* Shard-local clustered workload (the parity regime of DESIGN.md
     S14): cluster [i] centred at x = 90i + 15, tasks within +-10 of
     the centre, workers jittered +-8, all at y = 10 with candidate
     radius 30 — every candidate lies in its worker's own grid cell, so
     the sharded decision stream must match the single session's. *)
  let rng = Ltc_util.Rng.create ~seed:11 in
  let center i = (90.0 *. float_of_int i) +. 15.0 in
  let tasks =
    Array.init (clusters * tasks_per) (fun id ->
        let c = id / tasks_per and j = id mod tasks_per in
        let dx =
          -10.0
          +. (20.0 *. float_of_int j /. float_of_int (max 1 (tasks_per - 1)))
        in
        Ltc_core.Task.make ~id
          ~loc:(Ltc_geo.Point.make ~x:(center c +. dx) ~y:10.0)
          ())
  in
  let workers =
    Array.init n_arrivals (fun i ->
        let c = i mod clusters in
        let dx = Ltc_util.Rng.float rng 16.0 -. 8.0 in
        Ltc_core.Worker.make ~index:(i + 1)
          ~loc:(Ltc_geo.Point.make ~x:(center c +. dx) ~y:10.0)
          ~accuracy:(0.7 +. Ltc_util.Rng.float rng 0.25)
          ~capacity)
  in
  let instance = Ltc_core.Instance.create ~tasks ~workers ~epsilon:0.25 () in
  let n_tasks = Array.length tasks in
  let algorithm = Ltc_algo.Algorithm.laf in
  let seed = 42 in
  (* Best-of-N: each pass is deterministic, so inter-pass spread is
     scheduler/host noise. *)
  let time_variant f =
    ignore (f ());
    (* warmup *)
    let reps = 5 in
    let result = ref (f ()) in
    let best = ref infinity in
    for _ = 1 to reps do
      let r, dt = Ltc_util.Timer.time f in
      result := r;
      if dt < !best then best := dt
    done;
    (!result, !best)
  in
  let single () =
    let s = Ltc_service.Session.create ~algorithm ~seed instance in
    Array.iter (fun w -> ignore (Ltc_service.Session.feed s w)) workers;
    ( Ltc_core.Arrangement.to_list (Ltc_service.Session.arrangement s),
      Ltc_service.Session.latency s,
      Ltc_service.Session.consumed s,
      Ltc_service.Session.completed s )
  in
  let sharded shards () =
    let srv =
      Ltc_service.Shard_server.create ~mailbox:256
        ~mode:Ltc_service.Shard_server.Domains ~shards ~algorithm ~seed
        instance
    in
    Array.iter
      (fun w -> ignore (Ltc_service.Shard_server.feed srv w))
      workers;
    ignore (Ltc_service.Shard_server.flush srv);
    let fp =
      ( Ltc_core.Arrangement.to_list
          (Ltc_service.Shard_server.arrangement srv),
        Ltc_service.Shard_server.latency srv,
        Ltc_service.Shard_server.consumed srv,
        Ltc_service.Shard_server.completed srv )
    in
    Ltc_service.Shard_server.close srv;
    fp
  in
  let single_fp, single_s = time_variant single in
  let fp1, shard1_s = time_variant (sharded 1) in
  let fp2, shard2_s = time_variant (sharded 2) in
  let fp4, shard4_s = time_variant (sharded 4) in
  let fp8, shard8_s = time_variant (sharded 8) in
  let identical =
    fp1 = single_fp && fp2 = single_fp && fp4 = single_fp
    && fp8 = single_fp
  in
  let cores = Ltc_util.Pool.default_jobs () in
  let speedup t = if t > 0.0 then single_s /. t else 0.0 in
  let speedup4 = speedup shard4_s in
  (* The 1.7x-at-4-shards target assumes 4 cores; on smaller hosts the
     router thread serialises everything, so scale the bar by the cores
     actually available (1 core -> 0.425x just asks sharding not to
     more-than-halve throughput). *)
  let expected4 = 1.7 *. float_of_int (min cores 4) /. 4.0 in
  let scaling_ok = speedup4 >= expected4 in
  let per_s t = if t > 0.0 then float_of_int n_arrivals /. t else 0.0 in
  Printf.printf
    "%d arrivals over %d tasks in %d clusters; %d core(s) — expecting \
     >=%.2fx at 4 shards\n"
    n_arrivals n_tasks clusters cores expected4;
  Printf.printf "checksum: %s\n\n"
    (if identical then "all sharded runs match the single session"
     else "RUNS DISAGREE");
  let row name t =
    [
      Ltc_util.Table.Str name;
      Ltc_util.Table.Float (1000.0 *. t);
      Ltc_util.Table.Float (per_s t);
      Ltc_util.Table.Float (speedup t);
    ]
  in
  Ltc_util.Table.print ~float_digits:2
    ~header:[ "variant"; "time/pass (ms)"; "arrivals/s"; "speedup" ]
    [
      row "feed single session" single_s;
      row "feed 1 shard (inline)" shard1_s;
      row "feed 2 shards (domains)" shard2_s;
      row "feed 4 shards (domains)" shard4_s;
      row "feed 8 shards (domains)" shard8_s;
    ];
  print_newline ();
  ( "BENCH_serve_shard",
    Printf.sprintf
      "{\"arrivals\": %d, \"tasks\": %d, \"clusters\": %d, \"cores\": %d, \
       \"feed_single_s\": %.6f, \"feed_shard1_s\": %.6f, \"feed_shard2_s\": \
       %.6f, \"feed_shard4_s\": %.6f, \"feed_shard8_s\": %.6f, \
       \"single_per_s\": %.1f, \"shard4_per_s\": %.1f, \"speedup_shard4\": \
       %.3f, \"speedup_shard8\": %.3f, \"expected_speedup_shard4\": %.3f, \
       \"scaling_ok\": %d, \"identical\": %d}"
      n_arrivals n_tasks clusters cores single_s shard1_s shard2_s shard4_s
      shard8_s (per_s single_s) (per_s shard4_s) speedup4 (speedup shard8_s)
      expected4
      (if scaling_ok then 1 else 0)
      (if identical then 1 else 0) )

(* ------------------------------------------------------- micro benchmarks *)

let micro_tests () =
  let open Bechamel in
  let spec =
    Ltc_workload.Spec.scale_synthetic 0.1 Ltc_workload.Spec.default_synthetic
  in
  let instance =
    Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed:1) spec
  in
  let progress =
    Ltc_core.Progress.create_per_task
      ~thresholds:(Ltc_core.Instance.thresholds instance) ()
  in
  let tracker = Ltc_util.Mem.Tracker.create () in
  let worker = instance.Ltc_core.Instance.workers.(17) in
  let laf_decide = Ltc_algo.Laf.policy instance tracker progress in
  let aam_decide = Ltc_algo.Aam.policy instance tracker progress in
  let random_decide =
    Ltc_algo.Random_assign.policy ~seed:7 instance tracker progress
  in
  (* A representative single-batch LTC network: 60 workers x 40 tasks. *)
  let fill_mcmf_input g =
    let rng = Ltc_util.Rng.create ~seed:3 in
    for w = 1 to 60 do
      ignore (Ltc_flow.Graph.add_arc g ~src:0 ~dst:w ~cap:6 ~cost:0.0);
      for t = 61 to 100 do
        if Ltc_util.Rng.bernoulli rng 0.2 then
          ignore
            (Ltc_flow.Graph.add_arc g ~src:w ~dst:t ~cap:1
               ~cost:(-.Ltc_util.Rng.float rng 1.0))
      done
    done;
    for t = 61 to 100 do
      ignore (Ltc_flow.Graph.add_arc g ~src:t ~dst:101 ~cap:4 ~cost:0.0)
    done
  in
  let mcmf_input () =
    let g = Ltc_flow.Graph.create ~n:102 in
    fill_mcmf_input g;
    g
  in
  let reuse_g = Ltc_flow.Graph.create ~n:1 in
  let reuse_ws = Ltc_flow.Mcmf.create_workspace () in
  (* What journal-append frames: one arrival's event (LAF's decision on
     [worker]) and one periodic checkpoint, a partial snapshot of Table
     IV's 3 000 tasks. *)
  let module B = Ltc_core.Serialize.Binary in
  let frames = B.buffer () in
  let event =
    let assigned = laf_decide worker in
    B.Event
      {
        B.e_worker = worker;
        e_degraded = false;
        e_assigned = assigned;
        e_answered = assigned;
      }
  in
  let partial =
    let table_iv =
      Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed:1)
        { Ltc_workload.Spec.default_synthetic with n_workers = 1 }
    in
    B.Snapshot
      {
        B.s_consumed = 256;
        s_policy = 1L;
        s_noshow = 2L;
        s_progress =
          Ltc_core.Progress.create_per_task
            ~thresholds:(Ltc_core.Instance.thresholds table_iv) ();
        s_arrangement = None;
      }
  in
  [
    Test.make ~name:"laf-arrival"
      (Staged.stage (fun () -> ignore (laf_decide worker)));
    Test.make ~name:"aam-arrival"
      (Staged.stage (fun () -> ignore (aam_decide worker)));
    Test.make ~name:"random-arrival"
      (Staged.stage (fun () -> ignore (random_decide worker)));
    Test.make ~name:"aam-stream"
      (Staged.stage (fun () ->
           (* aam-arrival and laf-arrival decide against a progress that
              never changes; a stream also pays for what a decision
              changes: records, completions and the open-task heap. *)
           let st =
             Ltc_algo.Engine.start ~name:"AAM" Ltc_algo.Aam.policy instance
           in
           let progress = Ltc_algo.Engine.progress st in
           let workers = instance.Ltc_core.Instance.workers in
           let i = ref 0 in
           while
             !i < min 1024 (Array.length workers)
             && not (Ltc_core.Progress.all_complete progress)
           do
             ignore (Ltc_algo.Engine.step st workers.(!i));
             incr i
           done));
    Test.make ~name:"grid-candidates"
      (Staged.stage (fun () ->
           (* Grid order, as the flow network build reads it. *)
           Ltc_core.Instance.iter_candidates instance worker (fun _ -> ())));
    Test.make ~name:"grid-candidates-sorted"
      (Staged.stage (fun () ->
           (* Ascending order, as the online policies read it. *)
           Ltc_core.Instance.iter_candidates_sorted instance worker (fun _ ->
               ())));
    Test.make ~name:"journal-frame"
      (Staged.stage (fun () ->
           B.clear frames;
           B.add_record frames event;
           B.add_record frames partial));
    Test.make ~name:"progress-aggregates"
      (Staged.stage (fun () ->
           ignore (Ltc_core.Progress.max_remaining progress);
           ignore (Ltc_core.Progress.sum_remaining progress)));
    Test.make ~name:"mcmf-batch-60x40"
      (Staged.stage (fun () ->
           let g = mcmf_input () in
           ignore (Ltc_flow.Mcmf.run g ~source:0 ~sink:101)));
    Test.make ~name:"mcmf-batch-60x40-reused"
      (Staged.stage (fun () ->
           (* Same solve on the allocation-free path: cleared arena, shared
              workspace. *)
           Ltc_flow.Graph.clear reuse_g ~n:102;
           fill_mcmf_input reuse_g;
           ignore
             (Ltc_flow.Mcmf.run reuse_g ~workspace:reuse_ws ~source:0
                ~sink:101)));
  ]

(* Words allocated on the minor heap so far.  Bechamel's own
   [minor_allocated] reads [Gc.quick_stat], whose [minor_words] on OCaml 5
   only moves at a minor collection, so a case that allocates a few
   hundred words a run and never collects reads 0; [Gc.minor_words] also
   counts the words in the current minor heap. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words =
  Bechamel.Measure.instance
    (module Minor_words)
    (Bechamel.Measure.register (module Minor_words))

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  print_endline "### micro — per-arrival decision and substrate costs\n";
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let instances = [ Instance.monotonic_clock; minor_words ] in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"micro" ~fmt:"%s %s" (micro_tests ()))
  in
  let ols witness =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0
         ~predictors:[| Measure.run |])
      witness raw
  in
  let time_results = ols Instance.monotonic_clock in
  let alloc_results = ols minor_words in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | None -> nan
    | Some o -> (
      match Analyze.OLS.estimates o with
      | Some [ e ] -> e
      | Some _ | None -> nan)
  in
  let rows =
    Hashtbl.fold (fun name _ acc -> name :: acc) time_results []
    |> List.sort compare
    |> List.map (fun name ->
           [
             Ltc_util.Table.Str name;
             Ltc_util.Table.Float (estimate time_results name /. 1000.0);
             Ltc_util.Table.Float (estimate alloc_results name);
           ])
  in
  Ltc_util.Table.print ~float_digits:2
    ~header:[ "benchmark"; "time (us/run)"; "minor words/run" ]
    rows;
  print_newline ()

(* -------------------------------------------------------------------- cli *)

let list_experiments () =
  let rows =
    List.map
      (fun (e : Figures.t) ->
        [
          Ltc_util.Table.Str e.Figures.id;
          Ltc_util.Table.Str e.Figures.panels;
          Ltc_util.Table.Float e.Figures.default_scale;
        ])
      Figures.all
    @ [
        [
          Ltc_util.Table.Str "micro";
          Ltc_util.Table.Str "per-arrival decision costs (bechamel)";
          Ltc_util.Table.Float 1.0;
        ];
        [
          Ltc_util.Table.Str flow_batch_id;
          Ltc_util.Table.Str "MCF arena/workspace reuse vs cold solves";
          Ltc_util.Table.Float 1.0;
        ];
        [
          Ltc_util.Table.Str serve_shard_id;
          Ltc_util.Table.Str "sharded serving vs a single session";
          Ltc_util.Table.Float 1.0;
        ];
      ]
  in
  Ltc_util.Table.print ~float_digits:2
    ~header:[ "id"; "panels"; "default scale" ]
    rows

let main ids scale reps seed jobs full list csv plot verbose metrics
    metrics_format json =
  if verbose then Ltc_util.Log.setup ~level:Logs.Debug ()
  else Ltc_util.Log.setup ();
  (match metrics with
  | None -> ()
  | Some _ ->
    Ltc_util.Metrics.set_enabled true;
    Ltc_util.Trace.set_enabled true);
  if list then begin
    list_experiments ();
    0
  end
  else if jobs < 1 then begin
    Printf.eprintf "--jobs must be at least 1 (got %d)\n" jobs;
    1
  end
  else if reps < 1 then begin
    Printf.eprintf "--reps must be at least 1 (got %d)\n" reps;
    1
  end
  else
  match scale with
  | Some s when not (s > 0.0 && s < infinity) ->
    Printf.eprintf "--scale must be finite and > 0 (got %g)\n" s;
    1
  | _ ->
    let scale = if full then Some 1.0 else scale in
    let reps = if full && reps = 3 then 30 else reps in
    let ids =
      if ids = [] then
        Figures.ids () @ [ "micro"; flow_batch_id; serve_shard_id ]
      else ids
    in
    let unknown =
      List.filter
        (fun id ->
          id <> "micro" && id <> flow_batch_id && id <> serve_shard_id
          && Figures.find id = None)
        ids
    in
    match unknown with
    | _ :: _ ->
      Printf.eprintf "unknown experiment(s): %s\nuse --list to enumerate\n"
        (String.concat ", " unknown);
      1
    | [] ->
      Printf.printf
        "LTC benchmark harness — reproduction of ICDE'18 \
         \"Latency-oriented Task Completion via Spatial Crowdsourcing\"\n\n%!";
      let entries =
        List.filter_map
          (fun id ->
            if id = "micro" then begin
              run_micro ();
              None
            end
            else if id = flow_batch_id then
              Some (run_flow_batch ~scale:(Option.value scale ~default:1.0) ())
            else if id = serve_shard_id then Some (run_serve_shard ())
            else
              match Figures.find id with
              | Some e ->
                Some
                  (render_figure_stat
                     (run_figure ~jobs ~scale ~reps ~seed ~csv ~plot e))
              | None -> assert false)
          ids
      in
      Option.iter
        (fun path ->
          write_json ~path entries;
          Printf.printf "(bench json: %s)\n%!" path)
        json;
      Option.iter
        (fun path -> Ltc_util.Snapshot.write ~path metrics_format)
        metrics;
      0

open Cmdliner

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"
         ~doc:"Experiment ids to run (default: all). See --list.")

let scale_arg =
  Arg.(value & opt (some float) None
       & info [ "scale" ] ~docv:"S"
           ~doc:"Workload scale factor; 1.0 = the paper's cardinalities. \
                 Defaults to each experiment's laptop-friendly scale.")

let reps_arg =
  Arg.(value & opt int 3
       & info [ "reps" ] ~docv:"N"
           ~doc:"Repetitions per setting (paper: 30).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Base RNG seed.")

let jobs_arg =
  Arg.(value & opt int (Ltc_util.Pool.default_jobs ())
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Domains used for the independent experiment cells (default: \
                 the machine's recommended domain count). Every output \
                 except the wall-clock runtime tables is identical for \
                 every value.")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Write per-figure wall time and throughput (runs/sec) as a \
                 JSON object keyed $(b,BENCH_<id>) to $(docv).")

let full_arg =
  Arg.(value & flag
       & info [ "full" ]
           ~doc:"Paper-scale run: --scale 1.0 and 30 repetitions. Expect \
                 hours for fig4-scal.")

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List available experiments.")

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~docv:"DIR"
           ~doc:"Also write every table as a CSV file under $(docv).")

let plot_arg =
  Arg.(value & flag
       & info [ "plot" ] ~doc:"Render an ASCII chart under every table.")

let verbose_arg =
  Arg.(value & flag
       & info [ "verbose"; "v" ] ~doc:"Debug logging (batch solves etc.).")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Enable the metrics registry and span tracing, and write a \
                 snapshot to $(docv) after all experiments ($(b,-) for \
                 stdout).")

let metrics_format_conv =
  let parse s =
    match Ltc_util.Snapshot.format_of_string s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Ltc_util.Snapshot.pp_format)

let metrics_format_arg =
  Arg.(value & opt metrics_format_conv Ltc_util.Snapshot.Json
       & info [ "metrics-format" ] ~docv:"FMT"
           ~doc:"Snapshot format: $(b,json) or $(b,prom).")

let cmd =
  let doc = "regenerate the tables and figures of the LTC paper" in
  Cmd.v
    (Cmd.info "ltc-bench" ~doc)
    Term.(
      const main $ ids_arg $ scale_arg $ reps_arg $ seed_arg $ jobs_arg
      $ full_arg $ list_arg $ csv_arg $ plot_arg $ verbose_arg $ metrics_arg
      $ metrics_format_arg $ json_arg)

let () = exit (Cmd.eval' cmd)
