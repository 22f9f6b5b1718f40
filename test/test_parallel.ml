(* Domain pool semantics, domain-safety of the observability layer, and the
   parallel-sweep determinism contract: every [jobs] setting must produce
   bit-identical latency/memory/completion outputs (DESIGN.md,
   "Parallelism"). *)

open Ltc_experiments
module Pool = Ltc_util.Pool
module Metrics = Ltc_util.Metrics
module Trace = Ltc_util.Trace

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ pool *)

let test_pool_map_order () =
  List.iter
    (fun jobs ->
      let result = Pool.run ~jobs 64 (fun i -> i * i) in
      Alcotest.(check int) "length" 64 (Array.length result);
      Array.iteri
        (fun i v ->
          Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v)
        result)
    [ 1; 2; 4 ]

let test_pool_empty_range () =
  List.iter
    (fun jobs ->
      Alcotest.(check int) "empty range" 0
        (Array.length (Pool.run ~jobs 0 (fun _ -> Alcotest.fail "ran"))))
    [ 1; 3 ]

exception Boom of int

let test_pool_exception_lowest_index () =
  (* 3 is the lowest failing index, and a claimed index below a recorded
     failure always runs, so the exception surfaced to the caller is
     deterministic. *)
  List.iter
    (fun jobs ->
      match Pool.run ~jobs 32 (fun i -> if i mod 7 = 3 then raise (Boom i)) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "lowest failing index" 3 i)
    [ 1; 2; 4 ]

let test_pool_invalid_args () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises "negative range"
        (Invalid_argument "Pool.run: negative range") (fun () ->
          ignore (Pool.run ~jobs (-1) Fun.id)))
    [ 1; 4 ]

(* A body dying mid-run (it raises) must not strand the others: body 1 is
   still running when body 7 raises, and the exception reaches the caller
   only once body 1 and every other claimed body have finished and every
   domain is joined.  The next run then works as usual. *)
let test_pool_kill_worker_mid_batch () =
  let raised = Atomic.make false in
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  let slow_done = Atomic.make false in
  (match
     Pool.run ~jobs:4 64 (fun i ->
         Atomic.incr started;
         if i = 7 then begin
           Atomic.set raised true;
           raise (Boom i)
         end;
         if i = 1 then begin
           while not (Atomic.get raised) do
             Domain.cpu_relax ()
           done;
           let t0 = Ltc_util.Timer.start () in
           while Ltc_util.Timer.elapsed_s t0 < 0.02 do
             Domain.cpu_relax ()
           done;
           Atomic.set slow_done true
         end;
         Atomic.incr finished)
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "failing index" 7 i);
  Alcotest.(check bool) "in-flight body finished first" true
    (Atomic.get slow_done);
  Alcotest.(check int) "every started body finished"
    (Atomic.get started - 1) (Atomic.get finished);
  let r = Pool.run ~jobs:4 32 Fun.id in
  Alcotest.(check int) "the next run answers" 31 r.(31)

(* ------------------------------------------- observability under domains *)

let with_observability f =
  Metrics.set_enabled true;
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Trace.set_enabled false;
      Trace.clear ())
    f

let test_metrics_concurrent_sum_exact () =
  with_observability @@ fun () ->
  let c = Metrics.counter ~help:"test" "ltc_test_parallel_total" in
  let g = Metrics.gauge ~help:"test" "ltc_test_parallel_gauge" in
  let h = Metrics.histogram ~help:"test" "ltc_test_parallel_seconds" in
  let c0 = Metrics.Counter.value c in
  let g0 = Metrics.Gauge.value g in
  let h0 = Metrics.Histogram.count h in
  let per_domain = 25_000 in
  Pool.run ~jobs:4 4 (fun _ ->
      for _ = 1 to per_domain do
        Metrics.Counter.incr c;
        Metrics.Gauge.add g 1.0;
        Metrics.Histogram.observe h 1e-3
      done)
  |> ignore;
  Alcotest.(check int) "counter sums exactly"
    (c0 + (4 * per_domain))
    (Metrics.Counter.value c);
  Alcotest.(check (float 0.0)) "gauge sums exactly"
    (g0 +. float_of_int (4 * per_domain))
    (Metrics.Gauge.value g);
  Alcotest.(check int) "histogram counts exactly"
    (h0 + (4 * per_domain))
    (Metrics.Histogram.count h)

let test_trace_concurrent_spans () =
  with_observability @@ fun () ->
  Pool.run ~jobs:4 4 (fun d ->
      for _ = 1 to 10 do
        Trace.with_span (Printf.sprintf "lane-%d" d) (fun () -> ())
      done)
  |> ignore;
  Alcotest.(check int) "all spans recorded" 40 (List.length (Trace.spans ()));
  Alcotest.(check int) "none dropped" 0 (Trace.dropped ());
  (* Ids are atomic, so no two spans share one. *)
  let ids = List.map (fun s -> s.Trace.id) (Trace.spans ()) in
  Alcotest.(check int) "ids unique" 40
    (List.length (List.sort_uniq compare ids))

let test_mem_tracker_merged_peak () =
  let tracker = Ltc_util.Mem.Tracker.create () in
  (* No removals, so the merged peak is the total added no matter how the
     cells were spread over domains. *)
  Pool.run ~jobs:4 4 (fun _ -> Ltc_util.Mem.Tracker.add_words tracker 1000)
  |> ignore;
  Alcotest.(check (float 1e-12))
    "merged peak = total added"
    (Ltc_util.Mem.words_to_mb 4000)
    (Ltc_util.Mem.Tracker.high_water_mb tracker)

(* ------------------------------------------------------ rep-seed splitting *)

let test_rep_seeds_deterministic () =
  let seeds () =
    let root = Ltc_util.Rng.create ~seed:99 in
    List.init 8 (fun _ -> Ltc_util.Rng.split_seed root)
  in
  Alcotest.(check (list int)) "same base seed, same rep seeds" (seeds ())
    (seeds ());
  Alcotest.(check int) "rep seeds distinct" 8
    (List.length (List.sort_uniq compare (seeds ())))

(* ------------------------------------------------- sweep determinism *)

(* Latency + memory CSVs of a figure entry; the runtime table is wall-clock
   and excluded from the determinism contract. *)
let figure_csvs ~jobs ~seed =
  match Figures.find "fig3-K" with
  | None -> Alcotest.fail "fig3-K missing"
  | Some e ->
    e.Figures.run ~jobs ~scale:0.004 ~reps:2 ~seed
    |> List.filter_map (fun o ->
           if Astring.String.is_infix ~affix:"runtime" o.Runner.title then
             None
           else Some (Runner.to_csv o))

let prop_sweep_identical_across_jobs =
  QCheck2.Test.make ~name:"figure CSV rows identical at jobs 1/2/4" ~count:4
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let reference = figure_csvs ~jobs:1 ~seed in
      List.for_all (fun jobs -> figure_csvs ~jobs ~seed = reference) [ 2; 4 ])

let suite =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "map ordering" `Quick test_pool_map_order;
        Alcotest.test_case "empty range" `Quick test_pool_empty_range;
        Alcotest.test_case "exception of lowest index" `Quick
          test_pool_exception_lowest_index;
        Alcotest.test_case "invalid args" `Quick test_pool_invalid_args;
        Alcotest.test_case "kill one worker mid-batch" `Quick
          test_pool_kill_worker_mid_batch;
      ] );
    (* The persistent workers are the shard lanes of Shard_server; their
       tests live with the shard fixtures in Test_service. *)
    ( "parallel.workers",
      [
        Alcotest.test_case "backpressure stalls counted" `Quick
          Test_service.test_lane_backpressure;
        Alcotest.test_case "kill one lane mid-stream" `Quick
          Test_service.test_lane_failure;
        Alcotest.test_case "try_push admission control" `Quick
          Test_service.test_lane_shed_refusal;
        Alcotest.test_case "contracts" `Quick Test_service.test_lane_contracts;
      ] );
    ( "parallel.observability",
      [
        Alcotest.test_case "metrics sum exactly across domains" `Quick
          test_metrics_concurrent_sum_exact;
        Alcotest.test_case "trace spans from domains" `Quick
          test_trace_concurrent_spans;
        Alcotest.test_case "mem tracker merged peak" `Quick
          test_mem_tracker_merged_peak;
      ] );
    ( "parallel.determinism",
      [
        Alcotest.test_case "rep seeds deterministic" `Quick
          test_rep_seeds_deterministic;
        qcheck prop_sweep_identical_across_jobs;
      ] );
  ]
