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

(* ------------------------------------------------------ persistent lanes *)

let test_workers_fifo_per_lane () =
  let logs = Array.make 4 [] in
  let w =
    Pool.Workers.create ~lanes:4 ~capacity:2 ~handler:(fun ~lane i ->
        logs.(lane) <- i :: logs.(lane))
  in
  Alcotest.(check int) "lanes" 4 (Pool.Workers.lanes w);
  for i = 0 to 39 do
    Pool.Workers.push w ~lane:(i mod 4) i
  done;
  Pool.Workers.quiesce w;
  for k = 0 to 3 do
    Alcotest.(check (list int))
      (Printf.sprintf "lane %d handled its items in push order" k)
      (List.init 10 (fun j -> (4 * j) + k))
      (List.rev logs.(k))
  done;
  Pool.Workers.shutdown w;
  Alcotest.(check bool) "no failure" true
    (Pool.Workers.first_failure w = None)

(* Deterministic backpressure: a 1-slot mailbox whose handler blocks on a
   gate forces the third push to stall; a helper domain opens the gate
   only once the stall is counted, so nothing here depends on timing. *)
let test_workers_backpressure_stalls () =
  let gate = Atomic.make false in
  let handled = Atomic.make 0 in
  let w =
    Pool.Workers.create ~lanes:1 ~capacity:1 ~handler:(fun ~lane:_ first ->
        if first then
          while not (Atomic.get gate) do
            Domain.cpu_relax ()
          done;
        Atomic.incr handled)
  in
  Pool.Workers.push w ~lane:0 true;
  Pool.Workers.push w ~lane:0 false;
  let opener =
    Domain.spawn (fun () ->
        while Pool.Workers.stalls w < 1 do
          Domain.cpu_relax ()
        done;
        Atomic.set gate true)
  in
  Pool.Workers.push w ~lane:0 false;
  Domain.join opener;
  Pool.Workers.quiesce w;
  Alcotest.(check int) "every push handled despite the stall" 3
    (Atomic.get handled);
  Alcotest.(check bool) "stall counted" true (Pool.Workers.stalls w >= 1);
  Pool.Workers.shutdown w

exception Lane_down

(* Kill one persistent worker mid-stream: its queue is discarded, the
   other lanes drain fully, quiesce terminates, a later push to the dead
   lane re-raises the handler's exception, and shutdown re-raises it for
   callers that never pushed again. *)
let test_workers_mid_batch_kill () =
  let handled = Array.make 3 0 in
  let m = Mutex.create () in
  let w =
    Pool.Workers.create ~lanes:3 ~capacity:4 ~handler:(fun ~lane i ->
        if lane = 1 && i = 2 then raise Lane_down;
        Mutex.lock m;
        handled.(lane) <- handled.(lane) + 1;
        Mutex.unlock m)
  in
  let lane1_push_failed = ref false in
  for i = 1 to 30 do
    Pool.Workers.push w ~lane:0 i;
    (try Pool.Workers.push w ~lane:1 i
     with Lane_down -> lane1_push_failed := true);
    Pool.Workers.push w ~lane:2 i
  done;
  Pool.Workers.quiesce w;
  Alcotest.(check int) "lane 0 drained fully" 30 handled.(0);
  Alcotest.(check int) "lane 2 drained fully" 30 handled.(2);
  Alcotest.(check int) "lane 1 stopped at the kill" 1 handled.(1);
  Alcotest.(check bool) "push to the dead lane re-raised" true
    !lane1_push_failed;
  Alcotest.(check bool) "failure recorded" true
    (match Pool.Workers.first_failure w with
    | Some (Lane_down, _) -> true
    | _ -> false);
  (match Pool.Workers.shutdown w with
  | () -> Alcotest.fail "shutdown must re-raise the lane failure"
  | exception Lane_down -> ());
  (* idempotent once the failure has been delivered *)
  Pool.Workers.shutdown w

(* [restart] clears a failed lane's failure and resumes it in place,
   without the siblings ever noticing.  The pool keeps nothing of what the
   failure discarded (the failing item, then the queue), so the producer
   re-feeds those items itself. *)
let test_workers_restart_recovers_lost () =
  let handled = ref [] in
  let m = Mutex.create () in
  let gate = Atomic.make false in
  let armed = Atomic.make true in
  let w =
    Pool.Workers.create ~lanes:2 ~capacity:8 ~handler:(fun ~lane i ->
        if lane = 0 && i = 2 && Atomic.get armed then begin
          while not (Atomic.get gate) do
            Domain.cpu_relax ()
          done;
          raise Lane_down
        end;
        Mutex.lock m;
        handled := (lane, i) :: !handled;
        Mutex.unlock m)
  in
  (* lane 0 sticks at item 2 behind the gate; 3..6 pile up queued *)
  for i = 1 to 6 do
    Pool.Workers.push w ~lane:0 i;
    Pool.Workers.push w ~lane:1 i
  done;
  Atomic.set gate true;
  while Pool.Workers.failure w ~lane:0 = None do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "failure observable" true
    (match Pool.Workers.failure w ~lane:0 with
    | Some (Lane_down, _) -> true
    | _ -> false);
  Atomic.set armed false;
  Pool.Workers.restart w ~lane:0;
  Alcotest.(check bool) "failure cleared" true
    (Pool.Workers.failure w ~lane:0 = None);
  (* the lane is live again: re-feed what it lost *)
  List.iter (fun i -> Pool.Workers.push w ~lane:0 i) [ 2; 3; 4; 5; 6 ];
  Pool.Workers.quiesce w;
  let lane n =
    List.rev (List.filter_map (fun (l, i) -> if l = n then Some i else None)
                !handled)
  in
  Alcotest.(check (list int)) "lane 0 drained everything after restart"
    [ 1; 2; 3; 4; 5; 6 ] (lane 0);
  Alcotest.(check (list int)) "lane 1 untouched" [ 1; 2; 3; 4; 5; 6 ] (lane 1);
  Pool.Workers.shutdown w

(* [try_push] refuses a full mailbox instead of blocking, and admits
   again once the lane drains. *)
let test_workers_try_push () =
  let gate = Atomic.make false in
  let w =
    Pool.Workers.create ~lanes:1 ~capacity:1 ~handler:(fun ~lane:_ _ ->
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done)
  in
  Pool.Workers.push w ~lane:0 1;
  (* blocking push parks until the lane dequeues item 1 into the gated
     handler, leaving the single slot free for item 2 *)
  Pool.Workers.push w ~lane:0 2;
  (* the blocking push may legitimately stall while item 1 is still
     queued; only the try_push refusal must not add one *)
  let stalls_before = Pool.Workers.stalls w in
  Alcotest.(check bool) "full mailbox refused" false
    (Pool.Workers.try_push w ~lane:0 3);
  Alcotest.(check int) "refusal is not a stall" stalls_before
    (Pool.Workers.stalls w);
  Atomic.set gate true;
  Pool.Workers.quiesce w;
  Alcotest.(check bool) "admits again once drained" true
    (Pool.Workers.try_push w ~lane:0 3);
  Pool.Workers.quiesce w;
  Pool.Workers.shutdown w

let test_workers_contracts () =
  Alcotest.check_raises "lanes 0"
    (Invalid_argument "Pool.Workers.create: lanes must be >= 1") (fun () ->
      ignore
        (Pool.Workers.create ~lanes:0 ~capacity:1 ~handler:(fun ~lane:_ () ->
             ())));
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Pool.Workers.create: capacity must be >= 1")
    (fun () ->
      ignore
        (Pool.Workers.create ~lanes:1 ~capacity:0 ~handler:(fun ~lane:_ () ->
             ())));
  let w = Pool.Workers.create ~lanes:2 ~capacity:1 ~handler:(fun ~lane:_ () -> ()) in
  Alcotest.check_raises "unknown lane"
    (Invalid_argument "Pool.Workers.push: no such lane") (fun () ->
      Pool.Workers.push w ~lane:5 ());
  Pool.Workers.shutdown w;
  Alcotest.check_raises "push after shutdown"
    (Invalid_argument "Pool.Workers: used after shutdown") (fun () ->
      Pool.Workers.push w ~lane:0 ());
  Pool.Workers.shutdown w

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
    ( "parallel.workers",
      [
        Alcotest.test_case "per-lane FIFO" `Quick test_workers_fifo_per_lane;
        Alcotest.test_case "backpressure stalls counted" `Quick
          test_workers_backpressure_stalls;
        Alcotest.test_case "kill one lane mid-stream" `Quick
          test_workers_mid_batch_kill;
        Alcotest.test_case "restart recovers the lost items" `Quick
          test_workers_restart_recovers_lost;
        Alcotest.test_case "try_push admission control" `Quick
          test_workers_try_push;
        Alcotest.test_case "contracts" `Quick test_workers_contracts;
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
