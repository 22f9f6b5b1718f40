(* The repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
       one workload in this process; the last stdout line is its result
     main.exe [--seed N] [--seconds S] [--json OUT]
       every workload, end to end and traced, each in a child process
     main.exe --smoke --benchmark BENCHMARK.json
       tiny instances; checks correctness and every metric name and unit
     main.exe --compare A.jsonl B.jsonl
       median-vs-median verdicts for two sets of --json results

   See README.md in this directory for the workloads and metrics. *)

let work_dir = Filename.concat ".bench_build" "ltc-suite"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let result_json (r : Workloads.result) =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (mt : Workloads.metric) ->
               ( mt.name,
                 Json.Obj
                   [ ("value", Json.Num mt.value); ("unit", Json.Str mt.unit_) ]
               ))
             r.metrics) );
    ]

let append_line path line =
  Out_channel.with_open_gen
    [ Open_wronly; Open_creat; Open_append; Open_text ]
    0o644 path
    (fun oc -> Out_channel.output_string oc (line ^ "\n"))

let run_one (cfg : Workloads.config) ~json name ~trace =
  match List.assoc_opt name Workloads.all with
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" name
      (String.concat ", " (List.map fst Workloads.all));
    exit 2
  | Some workload ->
    Printf.printf "## %s (seed %d, %s)\n%!" name cfg.seed
      (if trace then "traced" else "end to end");
    let r = workload cfg ~trace in
    (match
       List.find_opt
         (fun (mt : Workloads.metric) -> not (Float.is_finite mt.value))
         r.metrics
     with
    | Some mt ->
      Printf.eprintf "%s: metric %s is not finite\n" name mt.name;
      exit 2
    | None -> ());
    List.iter
      (fun (mt : Workloads.metric) ->
        Printf.printf "%-28s %16s %s\n" mt.name (Json.num mt.value) mt.unit_)
      r.metrics;
    Printf.printf "correct: %b  attempted: %d  failed: %d\n" r.correct
      r.attempted r.failed;
    let body = result_json r in
    Option.iter
      (fun path ->
        let tagged =
          match body with
          | Json.Obj fields ->
            Json.Obj
              (("workload", Json.Str name)
              :: ("seed", Json.Num (float_of_int cfg.seed))
              :: ("trace", Json.Num (if trace then 1.0 else 0.0))
              :: fields)
          | v -> v
        in
        append_line path (Json.to_string tagged))
      json;
    print_endline (Json.to_string body);
    exit (if r.correct then 0 else 1)

(* Each workload in its own process, so heap and GC state do not carry
   over from one workload to the next. *)
let run_children ~seed ~seconds ~traces ~smoke ~json ~trace_out =
  let exe = Sys.executable_name in
  List.fold_left
    (fun failures (name, _) ->
      List.fold_left
        (fun failures trace ->
          let args =
            [
              exe; "--workload"; name; "--seed"; string_of_int seed;
              "--seconds"; Printf.sprintf "%g" seconds; "--trace";
              string_of_int trace;
            ]
            @ (if smoke then [ "--smoke" ] else [])
            @ (match json with Some j -> [ "--json"; j ] | None -> [])
            @
            match trace_out with
            | Some f when trace = 1 ->
              [ "--trace-out"; Filename.remove_extension f ^ "." ^ name ^ ".json" ]
            | _ -> []
          in
          (* Smoke children report through --json; their tables would
             only clutter the test log. *)
          let out =
            if smoke then Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0
            else Unix.stdout
          in
          let pid =
            Unix.create_process exe (Array.of_list args) Unix.stdin out
              Unix.stderr
          in
          if smoke then Unix.close out;
          match snd (Unix.waitpid [] pid) with
          | Unix.WEXITED 0 -> failures
          | _ ->
            Printf.printf "FAILED: %s --trace %d\n%!" name trace;
            failures + 1)
        failures traces)
    0 Workloads.all

let metric_defs bench key =
  List.map
    (fun d ->
      (Json.to_str (Json.member "name" d), Json.to_str (Json.member "unit" d)))
    (Json.to_list (Json.member key bench))

(* Every smoke result must be correct and carry exactly the metric names
   and units BENCHMARK.json declares for its mode. *)
let check_smoke ~benchmark results =
  let bench = Json.read_file benchmark in
  let declared =
    List.map (fun w -> Json.to_str (Json.member "name" w))
      (Json.to_list (Json.member "workloads" bench))
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if List.sort compare declared <> List.sort compare (List.map fst Workloads.all)
  then problem "BENCHMARK.json workloads differ from the suite's";
  List.iter
    (fun line ->
      let name = Json.to_str (Json.member "workload" line) in
      let trace = Json.to_num (Json.member "trace" line) = 1.0 in
      let expected =
        List.sort compare
          (metric_defs bench (if trace then "per_layer" else "end_to_end"))
      in
      let got =
        List.sort compare
          (List.map
             (fun (k, v) -> (k, Json.to_str (Json.member "unit" v)))
             (Json.to_assoc (Json.member "metrics" line)))
      in
      if got <> expected then
        problem "%s (trace %b): metric names or units differ from BENCHMARK.json"
          name trace;
      if not (Json.to_bool (Json.member "correct" line)) then
        problem "%s (trace %b): correctness check failed" name trace;
      if Json.to_num (Json.member "failed" line) <> 0.0 then
        problem "%s (trace %b): failed arrivals" name trace)
    results;
  if List.length results <> 2 * List.length Workloads.all then
    problem "expected %d results, got %d" (2 * List.length Workloads.all)
      (List.length results);
  List.iter print_endline (List.rev !problems);
  !problems = []

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles as Python's statistics.quantiles(xs, n=4) computes them. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n < 2 then (a.(0), a.(0))
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* Median vs median per (workload, end-to-end metric), with the quartile
   distance as the spread; BENCHMARK.json gives direction and bound. *)
let compare_sets ~benchmark a b =
  let bench = Json.read_file benchmark in
  let defs =
    List.map
      (fun d ->
        ( Json.to_str (Json.member "name" d),
          ( Json.to_str (Json.member "better" d),
            Json.to_num (Json.member "bound" d) ) ))
      (Json.to_list (Json.member "end_to_end" bench))
  in
  let load path =
    List.filter_map
      (fun line ->
        if Json.to_num (Json.member "trace" line) <> 0.0 then None
        else
          Some
            ( Json.to_str (Json.member "workload" line),
              List.map
                (fun (k, v) -> (k, Json.to_num (Json.member "value" v)))
                (Json.to_assoc (Json.member "metrics" line)) ))
      (Json.read_lines path)
  in
  let ra = load a and rb = load b in
  let values runs w k =
    List.filter_map
      (fun (w', ms) -> if w' = w then List.assoc_opt k ms else None)
      runs
  in
  let workloads = List.sort_uniq compare (List.map fst ra) in
  Printf.printf "%-16s %-16s %14s %14s %8s %8s %6s  %s\n" "workload" "metric"
    "median A" "median B" "change" "spread" "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (k, (better, bound)) ->
          match (values ra w k, values rb w k) with
          | [], _ | _, [] -> ()
          | va, vb ->
            let ma = median va and mb = median vb in
            let rel_iqr vs med =
              let q1, q3 = quartiles vs in
              (q3 -. q1) /. Float.abs med
            in
            let spread = Float.max (rel_iqr va ma) (rel_iqr vb mb) in
            let change = (mb -. ma) /. Float.abs ma in
            let worsening = if better = "lower" then change else -.change in
            let beats x y = if better = "lower" then x < y else x > y in
            let all_better =
              List.for_all (fun y -> List.for_all (fun x -> beats y x) va) vb
            in
            let verdict =
              if spread > bound then
                if all_better then "better" else "unresolved"
              else if worsening > bound then "worse"
              else if worsening < -.bound then "better"
              else "within"
            in
            if verdict = "worse" then incr worse;
            Printf.printf "%-16s %-16s %14.6g %14.6g %+7.2f%% %7.2f%% %5.0f%%  %s\n"
              w k ma mb (100.0 *. change) (100.0 *. spread) (100.0 *. bound)
              verdict)
        defs)
    workloads;
  !worse = 0

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref None and trace_out = ref None and json = ref None in
  let smoke = ref false and benchmark = ref "BENCHMARK.json" in
  let compare_a = ref None and compare_b = ref "" in
  let specs =
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME run one workload in this process" );
      ("--seed", Arg.Set_int seed, "N instance seed (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S measured seconds per workload (default 20)" );
      ( "--trace",
        Arg.Int (fun t -> trace := Some t),
        "0|1 end-to-end metrics (0) or the traced per-layer breakdown (1)" );
      ( "--trace-out",
        Arg.String (fun f -> trace_out := Some f),
        "FILE write the traced pass as Chrome trace JSON (opens in Perfetto)" );
      ( "--json",
        Arg.String (fun f -> json := Some f),
        "FILE append one tagged result line per run" );
      ( "--smoke",
        Arg.Set smoke,
        " tiny instances, one pass; check names and units against --benchmark" );
      ( "--benchmark",
        Arg.Set_string benchmark,
        "FILE metric definitions (default BENCHMARK.json)" );
      ( "--compare",
        Arg.Tuple
          [
            Arg.String (fun a -> compare_a := Some a);
            Arg.String (fun b -> compare_b := b);
          ],
        "A B compare two sets of --json results" );
    ]
  in
  let usage = "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  (match !trace with
  | Some t when t <> 0 && t <> 1 ->
    prerr_endline "--trace takes 0 or 1";
    exit 2
  | _ -> ());
  match !compare_a with
  | Some a -> exit (if compare_sets ~benchmark:!benchmark a !compare_b then 0 else 1)
  | None -> (
    mkdir_p work_dir;
    let cfg =
      {
        Workloads.seed = !seed;
        seconds = (if !smoke then 0.0 else !seconds);
        smoke = !smoke;
        work_dir;
        trace_out = !trace_out;
      }
    in
    match !workload with
    | Some name -> run_one cfg ~json:!json name ~trace:(!trace = Some 1)
    | None ->
      if !smoke then begin
        let results = Filename.concat work_dir "smoke.jsonl" in
        if Sys.file_exists results then Sys.remove results;
        let failures =
          run_children ~seed:!seed ~seconds:0.0 ~traces:[ 0; 1 ] ~smoke:true
            ~json:(Some results) ~trace_out:None
        in
        let ok = check_smoke ~benchmark:!benchmark (Json.read_lines results) in
        Sys.remove results;
        print_endline
          (if failures = 0 && ok then "smoke: ok" else "smoke: FAILED");
        exit (if failures = 0 && ok then 0 else 1)
      end
      else
        let traces = match !trace with Some t -> [ t ] | None -> [ 0; 1 ] in
        let failures =
          run_children ~seed:!seed ~seconds:!seconds ~traces ~smoke:false
            ~json:!json ~trace_out:!trace_out
        in
        exit (if failures = 0 then 0 else 1))
