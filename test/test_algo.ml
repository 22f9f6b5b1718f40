open Ltc_core
open Ltc_algo

(* ------------------------------------------- the paper's running example *)

(* Example 1: optimal offline arrangement needs 5 workers (Table I, bold). *)
let test_example1_optimal () =
  let i = Fixtures.example1 () in
  match Optimal.solve i with
  | None -> Alcotest.fail "example must be solvable"
  | Some (latency, arrangement) ->
    Alcotest.(check int) "optimal latency" 5 latency;
    (match Arrangement.validate i arrangement with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "optimal witness must validate")

(* Example 2: the paper's prose claims MCF-LTC stops at worker 6, but that
   contradicts its own reduction: the minimum-cost max-flow on Table I is
   5 x 0.9216 + 7 x 0.8464 (total Acc* 10.533), and no selection confined to
   w1..w6 reaches that value (best is 10.461), so a cost-optimal flow MUST
   recruit beyond w6 — the paper's Fig. 2b flow is not cost-optimal.  Our
   SSPA finds the equal-cost solution with the smallest max index: 7. *)
let test_example2_mcf () =
  let i = Fixtures.example2 () in
  let o = Mcf_ltc.run i in
  Alcotest.(check bool) "completed" true o.Engine.completed;
  Alcotest.(check int) "latency 7 (cost-optimal flow)" 7 o.Engine.latency;
  match Arrangement.validate i o.Engine.arrangement with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "MCF arrangement must validate"

(* Example 3: LAF needs all 8 workers. *)
let test_example3_laf () =
  let i = Fixtures.example2 () in
  let o = Laf.run i in
  Alcotest.(check bool) "completed" true o.Engine.completed;
  Alcotest.(check int) "latency 8" 8 o.Engine.latency

(* Example 4: the paper's hand trace reports 7, but it deviates from
   Algorithm 3 at w3: with S = {1.768, 1.768, 0} the pseudocode computes
   avg = 6.121/2 = 3.06 < maxRemain = 3.22 and must already switch to LRF
   (the prose keeps LGF "same as LAF" for w3).  Following Algorithm 3
   faithfully, w3 takes {t3, t1}, and everything completes at worker 6 —
   beating both the paper's trace and LAF by two workers. *)
let test_example4_aam () =
  let i = Fixtures.example2 () in
  let o = Aam.run i in
  Alcotest.(check bool) "completed" true o.Engine.completed;
  Alcotest.(check int) "latency 6 (faithful Algorithm 3)" 6 o.Engine.latency

(* The w3 LRF switch that the paper's prose misses. *)
let test_example4_aam_trace () =
  let i = Fixtures.example2 () in
  let o = Aam.run i in
  let a = o.Engine.arrangement in
  Alcotest.(check (list int)) "w1 takes t1, t2" [ 0; 1 ]
    (Arrangement.tasks_of_worker a 1);
  Alcotest.(check (list int)) "w2 takes t1, t2" [ 0; 1 ]
    (Arrangement.tasks_of_worker a 2);
  Alcotest.(check (list int)) "w3 switches to LRF: t1, t3" [ 0; 2 ]
    (Arrangement.tasks_of_worker a 3)

(* The LAF trace of Example 3: w1..w4 all work on t1 and t2. *)
let test_example3_laf_trace () =
  let i = Fixtures.example2 () in
  let o = Laf.run i in
  let a = o.Engine.arrangement in
  List.iter
    (fun w ->
      Alcotest.(check (list int))
        (Printf.sprintf "worker %d on t1, t2" w)
        [ 0; 1 ] (Arrangement.tasks_of_worker a w))
    [ 1; 2; 3; 4 ];
  (* w5..w8 mop up t3. *)
  List.iter
    (fun w ->
      Alcotest.(check (list int))
        (Printf.sprintf "worker %d on t3" w)
        [ 2 ] (Arrangement.tasks_of_worker a w))
    [ 5; 6; 7; 8 ]

(* The paper's five algorithms on Examples 2-4, through their registry
   entries (Random at seed 1): Base-off and Random are pinned nowhere
   else. *)
let test_example_registry () =
  let i = Fixtures.example2 () in
  Alcotest.(check (list (pair string int)))
    "latency per algorithm"
    [ ("Base-off", 8); ("MCF-LTC", 7); ("Random", 6); ("LAF", 8); ("AAM", 6) ]
    (List.map
       (fun (a : Algorithm.t) -> (a.name, (a.run ~seed:1 i).Engine.latency))
       Algorithm.paper)

(* Theorem 4: the adversarial instance on which every deterministic online
   algorithm is at least 5.5-competitive.  delta = 1 (eps = e^-0.5), K = 1,
   two tasks; w1 has Acc* = 1 on both; every later worker has Acc* = 1 on
   the task the algorithm gave w1 and Acc* = 0.1 on the other.  The
   optimum is 2 (w1 takes the task the adversary will starve); the online
   algorithm needs 1 + ceil(1/0.1) = 11. *)
let theorem4_instance ~first_choice =
  let epsilon = exp (-0.5) in
  (* Acc values realizing Acc* = 1 and Acc* = 0.1. *)
  let acc_of_star star = (1.0 +. sqrt star) /. 2.0 in
  let accuracy =
    Accuracy.Custom
      {
        name = "theorem4";
        f =
          (fun w t ->
            if w.Worker.index = 1 then 1.0
            else if t.Task.id = first_choice then acc_of_star 1.0
            else acc_of_star 0.1);
      }
  in
  let tasks =
    Array.init 2 (fun id ->
        Task.make ~id ~loc:(Ltc_geo.Point.make ~x:(float_of_int id) ~y:0.0) ())
  in
  let workers =
    Array.init 12 (fun i ->
        Worker.make ~index:(i + 1)
          ~loc:(Ltc_geo.Point.make ~x:0.5 ~y:0.0)
          ~accuracy:0.9 ~capacity:1)
  in
  Instance.create ~accuracy ~tasks ~workers ~epsilon ()

let test_theorem4_adversary () =
  (* LAF's deterministic tie-break gives w1 task 0, so the adversary makes
     task 1 the starved one. *)
  let i = theorem4_instance ~first_choice:0 in
  let o = Laf.run i in
  Alcotest.(check bool) "completed" true o.Engine.completed;
  Alcotest.(check (list int)) "w1 got task 0" [ 0 ]
    (Arrangement.tasks_of_worker o.Engine.arrangement 1);
  Alcotest.(check int) "online latency 11" 11 o.Engine.latency;
  match Optimal.solve i with
  | None -> Alcotest.fail "theorem-4 instance must be solvable"
  | Some (opt, _) ->
    Alcotest.(check int) "optimum 2" 2 opt;
    Alcotest.(check bool) "ratio = 5.5 as in Theorem 4" true
      (float_of_int o.Engine.latency /. float_of_int opt = 5.5)

(* ----------------------------------------------------------- the engine *)

let test_engine_stops_at_completion () =
  let i = Fixtures.small_random ~seed:1 () in
  let o = Laf.run i in
  Alcotest.(check bool) "completed" true o.Engine.completed;
  Alcotest.(check bool) "did not consume every worker" true
    (o.Engine.workers_consumed < Instance.worker_count i);
  Alcotest.(check int) "consumed = latency for busy online runs"
    o.Engine.latency o.Engine.workers_consumed

let test_engine_presents_workers_in_arrival_order () =
  let i = Fixtures.small_random ~seed:4 () in
  let seen = ref [] in
  let spy_policy _ _ _ (w : Worker.t) =
    seen := w.Worker.index :: !seen;
    []
  in
  let o = Engine.run ~name:"spy" spy_policy i in
  let seen = List.rev !seen in
  Alcotest.(check int) "consumed everything (policy never assigns)"
    (Instance.worker_count i) o.Engine.workers_consumed;
  Alcotest.(check (list int)) "indexes are 1..n in order"
    (List.init (Instance.worker_count i) (fun k -> k + 1))
    seen

let test_engine_rejects_over_capacity () =
  let i = Fixtures.small_random ~seed:2 () in
  let greedy_policy _ _ _ (w : Worker.t) =
    List.init (w.Worker.capacity + 1) (fun k -> k)
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Engine.run ~name:"bad" greedy_policy i);
       false
     with Engine.Invalid_decision _ -> true)

let test_engine_rejects_duplicates () =
  let i = Fixtures.small_random ~seed:3 () in
  let dup_policy _ _ _ _ = [ 0; 0 ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Engine.run ~name:"dup" dup_policy i);
       false
     with Engine.Invalid_decision _ -> true)

let test_engine_rejects_non_candidates () =
  (* Tasks far apart, radius 30: a policy assigning a remote task dies. *)
  let i = Fixtures.example2 () in
  let i_spatial =
    Instance.create ~accuracy:(Accuracy.Sigmoid { dmax = 1.0 })
      ~tasks:
        [| Task.make ~id:0 ~loc:(Ltc_geo.Point.make ~x:0.0 ~y:0.0) ();
           Task.make ~id:1 ~loc:(Ltc_geo.Point.make ~x:100.0 ~y:0.0) () |]
      ~workers:i.Instance.workers ~epsilon:0.2 ()
  in
  let far_policy _ _ _ _ = [ 1 ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Engine.run ~name:"far" far_policy i_spatial);
       false
     with Engine.Invalid_decision _ -> true)

let test_engine_incomplete_when_starved () =
  (* Two tasks, one worker with capacity 1: cannot complete. *)
  let tasks =
    [| Task.make ~id:0 ~loc:(Ltc_geo.Point.make ~x:0.0 ~y:0.0) () |]
  in
  let workers =
    [| Worker.make ~index:1 ~loc:(Ltc_geo.Point.make ~x:0.0 ~y:0.0)
         ~accuracy:0.9 ~capacity:1 |]
  in
  let i = Instance.create ~tasks ~workers ~epsilon:0.05 () in
  let o = Laf.run i in
  Alcotest.(check bool) "not completed" false o.Engine.completed;
  Alcotest.(check int) "consumed all" 1 o.Engine.workers_consumed

(* A warm decision step allocates only what it returns and records: the
   decision's lists, the arrangement's nodes and the boxed floats of
   each score.  Measured over 512 arrivals of the decision pins' Table IV
   instance after 64 warm-up arrivals: 223.3 words an arrival for AAM and
   207.3 for LAF (dune's default dev profile).  The bounds leave about 5 %
   of headroom, less than any of the costs this path shed would add back
   under AAM: a [Hashtbl] per decision check (+43 words), the lazily
   pruned max-heap in [Progress] (+20) or a boxed distance per point the
   grid scan tests (+44). *)
let test_engine_step_allocation () =
  let instance =
    Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed:4)
      (Ltc_workload.Spec.scale_synthetic 0.1
         Ltc_workload.Spec.default_synthetic)
  in
  let workers = instance.Instance.workers in
  List.iter
    (fun (name, policy, bound) ->
      let st = Engine.start ~name policy instance in
      for i = 0 to 63 do
        ignore (Engine.step st workers.(i))
      done;
      let before = Gc.minor_words () in
      for i = 64 to 64 + 511 do
        ignore (Engine.step st workers.(i))
      done;
      let per_arrival = (Gc.minor_words () -. before) /. 512.0 in
      Alcotest.(check bool) (name ^ ": still open") false
        (Progress.all_complete (Engine.progress st));
      if per_arrival > bound then
        Alcotest.failf "%s: %.1f minor words an arrival (bound %.0f)" name
          per_arrival bound)
    [ ("AAM", Aam.policy, 235.0); ("LAF", Laf.policy, 220.0) ]

(* Words [f] allocates.  [Gc.allocated_bytes], unlike [Gc.minor_words],
   also counts what goes straight to the major heap, such as a copy of a
   3 000-float array.  It subtracts promoted words, which a minor
   collection counts for what the window allocated before it, so one is
   forced at each end. *)
let allocated_words f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)

let with_journal_file f =
  let path = Filename.temp_file "ltc_algo_test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* A journal adds little to a warm arrival: LAF fed through a binary
   journal (group commit 64, no checkpoint in the window) against the
   same feed without one, over the arrivals of the step allocation test
   above.  Measured: 11.3 words an arrival more, 7 of them the event
   record the session builds.  The
   Buffer-based encoder the frame buffer replaced took 90.8: it staged
   each record in a scratch [Buffer], copied it out, framed it into the
   group [Buffer] and copied the group out again. *)
let test_journal_feed_allocation () =
  let instance =
    Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed:4)
      (Ltc_workload.Spec.scale_synthetic 0.1
         Ltc_workload.Spec.default_synthetic)
  in
  let workers = instance.Instance.workers in
  with_journal_file @@ fun path ->
  let per_arrival s =
    for i = 0 to 63 do
      ignore (Ltc_service.Session.feed s workers.(i))
    done;
    let words =
      allocated_words (fun () ->
          for i = 64 to 64 + 511 do
            ignore (Ltc_service.Session.feed s workers.(i))
          done)
    in
    Alcotest.(check bool) "still open" false (Ltc_service.Session.completed s);
    Ltc_service.Session.close s;
    words /. 512.0
  in
  let plain () =
    per_arrival
      (Ltc_service.Session.create ~algorithm:Algorithm.laf ~seed:1 instance)
  in
  (* The first pass sizes the candidate query's scratch. *)
  ignore (plain ());
  let plain = plain () in
  let journaled =
    per_arrival
      (Ltc_service.Session.create ~journal:path ~checkpoint_every:100_000
         ~group_commit:64 ~algorithm:Algorithm.laf ~seed:1 instance)
  in
  if journaled -. plain > 20.0 then
    Alcotest.failf "a journaled arrival allocates %.1f words more (bound 20)"
      (journaled -. plain)

(* An appended (partial) checkpoint costs a constant, not O(|T|): on a
   3 000-task session the arrival that appends one allocates 91 words
   more than the arrivals before it (the snapshot record, the span and
   the commit), with the progress arrays encoded where they are.  The
   Buffer-based encoder took 30 178: it copied both progress arrays,
   staged the 48 KiB payload, framed it and copied the group out. *)
let test_partial_checkpoint_allocation () =
  let instance =
    Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed:4)
      { Ltc_workload.Spec.default_synthetic with n_workers = 200 }
  in
  let workers = instance.Instance.workers in
  with_journal_file @@ fun path ->
  let s =
    Ltc_service.Session.create ~journal:path ~checkpoint_every:8
      ~group_commit:64 ~algorithm:Algorithm.laf ~seed:1 instance
  in
  let feed i = ignore (Ltc_service.Session.feed s workers.(i)) in
  (* Arrival 8 appends the first checkpoint, which sizes the buffers. *)
  for i = 0 to 7 do
    feed i
  done;
  let plain = allocated_words (fun () -> for i = 8 to 14 do feed i done) in
  let checkpointed = allocated_words (fun () -> feed 15) in
  let info = Ltc_service.Session.Journal.inspect ~path in
  Alcotest.(check int) "two partial snapshots" 2
    info.Ltc_service.Session.Journal.partial_snapshots;
  Ltc_service.Session.close s;
  let extra = checkpointed -. (plain /. 7.0) in
  if extra > 300.0 then
    Alcotest.failf "a partial checkpoint allocates %.1f words (bound 300)"
      extra

(* A restore allocates little beyond what it builds: on a journal shaped
   like the repository benchmark's journal-restore fixture (3 000 tasks,
   LAF, a partial snapshot every 16 arrivals, abandoned one arrival
   before the 16th would compact the file), the restore allocates 1 862
   words per recovered arrival, header parse and closing compaction
   included.  The two-pass read it replaced took 2 752: it boxed each
   float of every superseded snapshot as it checked it and kept an item,
   a lazy cell and a tuple for each record until the body was
   scanned. *)
let test_restore_allocation () =
  let instance =
    Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed:4)
      { Ltc_workload.Spec.default_synthetic with n_workers = 400 }
  in
  let workers = instance.Instance.workers in
  with_journal_file @@ fun path ->
  with_journal_file @@ fun redirect ->
  let s =
    Ltc_service.Session.create ~journal:path ~checkpoint_every:16
      ~group_commit:4 ~algorithm:Algorithm.laf ~seed:1 instance
  in
  for i = 0 to (16 * 16) - 2 do
    ignore (Ltc_service.Session.feed s workers.(i))
  done;
  let restore () =
    Ltc_service.Session.restore ~journal:redirect ~group_commit:4 ~path ()
  in
  (* The first restore sizes the replay's candidate scratch. *)
  Ltc_service.Session.close (restore ());
  let restored = ref None in
  let words = allocated_words (fun () -> restored := Some (restore ())) in
  let s' = Option.get !restored in
  let consumed = Ltc_service.Session.consumed s' in
  Ltc_service.Session.close s';
  (* The group of 4 the kill cut short is lost: 15 events after the last
     snapshot, 3 of them still buffered. *)
  Alcotest.(check int) "recovered arrivals" 252 consumed;
  let per_arrival = words /. float_of_int consumed in
  if per_arrival > 2300.0 then
    Alcotest.failf "a restore allocates %.0f words a recovered arrival \
                    (bound 2300)"
      per_arrival

(* -------------------------------------- validity across all algorithms *)

let all_algorithms = Algorithm.paper

(* Registry runs in these suites share one fixed seed; only the Random
   baselines consume it. *)
let run_fixed (algo : Algorithm.t) i = algo.run ~seed:4242 i

let test_all_valid_on_random_instances () =
  List.iter
    (fun seed ->
      let i = Fixtures.small_random ~seed () in
      List.iter
        (fun (algo : Algorithm.t) ->
          let o = run_fixed algo i in
          if not o.Engine.completed then
            Alcotest.failf "%s did not complete (seed %d)" algo.name seed;
          match Arrangement.validate i o.Engine.arrangement with
          | Ok () -> ()
          | Error vs ->
            Alcotest.failf "%s invalid on seed %d: %a" algo.name seed
              (Format.pp_print_list Arrangement.pp_violation)
              vs)
        all_algorithms)
    [ 11; 12; 13 ]

let test_latency_never_below_optimal () =
  List.iter
    (fun seed ->
      let i = Fixtures.micro_random ~seed () in
      match Optimal.solve i with
      | None -> () (* instance not solvable at all: skip *)
      | Some (opt, _) ->
        List.iter
          (fun (algo : Algorithm.t) ->
            let o = run_fixed algo i in
            if o.Engine.completed then
              Alcotest.(check bool)
                (Printf.sprintf "%s >= OPT (seed %d)" algo.name seed)
                true
                (o.Engine.latency >= opt))
          all_algorithms)
    [ 21; 22; 23; 24 ]

let test_theorem2_lower_bound () =
  (* No completed arrangement can beat |T| delta / K when it must route all
     score through capacity-K workers with Acc* <= 1. *)
  List.iter
    (fun seed ->
      let i = Fixtures.small_random ~seed () in
      let low, _ = Bounds.of_instance i in
      List.iter
        (fun (algo : Algorithm.t) ->
          let o = run_fixed algo i in
          if o.Engine.completed then
            Alcotest.(check bool)
              (Printf.sprintf "%s above Theorem-2 lower bound" algo.name)
              true
              (float_of_int o.Engine.latency >= Float.floor low))
        all_algorithms)
    [ 31; 32 ]

let test_mcnaughton () =
  (* 4 tasks, delta 3, r=1, K=2: each task needs 3 workers, 12 assignments
     over capacity 2 => 6 workers; and ceil(delta/r)=3 <= 6. *)
  Alcotest.(check int) "spread bound" 6
    (Bounds.mcnaughton ~n_tasks:4 ~delta:3.0 ~k:2 ~r:1.0);
  (* 1 task, delta 3, K=8: the per-task chain dominates. *)
  Alcotest.(check int) "per-task bound" 3
    (Bounds.mcnaughton ~n_tasks:1 ~delta:3.0 ~k:8 ~r:1.0);
  (* No capacity or no task: every bound refuses instead of dividing by
     zero or turning negative. *)
  List.iter
    (fun (n_tasks, k, field) ->
      let refuse name f =
        Alcotest.check_raises
          (Printf.sprintf "%s |T|=%d K=%d" name n_tasks k)
          (Invalid_argument
             (Printf.sprintf "Bounds.%s: %s must be >= 1" name field))
          (fun () -> ignore (f ()))
      in
      refuse "lower" (fun () -> Bounds.lower ~n_tasks ~delta:3.0 ~k);
      refuse "upper" (fun () -> Bounds.upper ~n_tasks ~delta:3.0 ~k);
      refuse "mcnaughton" (fun () ->
          float_of_int (Bounds.mcnaughton ~n_tasks ~delta:3.0 ~k ~r:1.0)))
    [ (4, 0, "k"); (4, -2, "k"); (0, 6, "n_tasks"); (-5, 6, "n_tasks") ]

let test_bounds_order () =
  let i = Fixtures.small_random ~seed:5 () in
  let low, high = Bounds.of_instance i in
  Alcotest.(check bool) "lower < upper" true (low < high)

(* ------------------------------------------------- determinism & config *)

let test_runs_deterministic () =
  let i = Fixtures.small_random ~seed:6 () in
  List.iter
    (fun (algo : Algorithm.t) ->
      let a = (run_fixed algo i).Engine.latency in
      let b = (run_fixed algo i).Engine.latency in
      Alcotest.(check int) (algo.name ^ " deterministic") a b)
    all_algorithms

let test_random_seed_changes_runs () =
  let i = Fixtures.small_random ~seed:7 () in
  let a = (Random_assign.run ~seed:1 i).Engine.latency in
  let b = (Random_assign.run ~seed:2 i).Engine.latency in
  let c = (Random_assign.run ~seed:3 i).Engine.latency in
  (* At least one of three seeds should differ (overwhelmingly likely). *)
  Alcotest.(check bool) "seeds matter" true (a <> b || b <> c)

let test_mcf_batch_config () =
  let i = Fixtures.small_random ~seed:8 () in
  let o =
    Mcf_ltc.run
      ~config:
        {
          Mcf_ltc.default_config with
          first_batch_factor = 0.5;
          batch_factor = 0.5;
        }
      i
  in
  Alcotest.(check bool) "small batches still complete" true o.Engine.completed;
  Alcotest.check_raises "invalid factor"
    (Invalid_argument "Mcf_ltc.run: batch factors must be positive") (fun () ->
      ignore
        (Mcf_ltc.run
           ~config:
             { Mcf_ltc.default_config with first_batch_factor = 0.0 }
           i))

(* Exact arrangements, not only their latency: an MD5 of every
   (worker, task) pair in [Arrangement.to_list] order, on two fixtures and
   the four instances batch-mcf times at [--seed 1] (300 tasks, 4000
   workers, generated from seeds 4-7), for Theorem-2 batches and for
   buffered runs.  The Theorem-2 digests were recorded before the flow
   layer lost SPFA, its single-sweep DAG initialiser and the string solver
   registry (seeds 5-7 before its Dijkstra passes moved to residual
   lists); the buffered ones before it lost the incremental session.
   None of these changes moved a decision. *)
let test_mcf_arrangement_pins () =
  let digest (o : Engine.outcome) =
    let b = Buffer.create 4096 in
    List.iter
      (fun (a : Arrangement.assignment) ->
        Buffer.add_string b (Printf.sprintf "%d:%d;" a.worker a.task))
      (Arrangement.to_list o.Engine.arrangement);
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let batch_mcf_seed seed =
    Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed)
      (Ltc_workload.Spec.scale_synthetic 0.1
         Ltc_workload.Spec.default_synthetic)
  in
  let batch_mcf = batch_mcf_seed 4 in
  let seed_95 = Fixtures.small_random ~seed:95 () in
  let buffered buffer i = Mcf_ltc.run_buffered ~buffer i in
  List.iter
    (fun (label, o, want) -> Alcotest.(check string) label want (digest o))
    [
      ( "seed 8", Mcf_ltc.run (Fixtures.small_random ~seed:8 ()),
        "b79c485d1d50266cfb4ed15b917fb11b" );
      ( "seed 21", Mcf_ltc.run (Fixtures.small_random ~seed:21 ()),
        "dc965cf88bcd88072e2c53c99b5f6291" );
      ("batch-mcf", Mcf_ltc.run batch_mcf, "391e76267ab8d24339628d5cfd4e39b5");
      ( "batch-mcf seed 5", Mcf_ltc.run (batch_mcf_seed 5),
        "e7d045f892d2c6e809323bc7076f360f" );
      ( "batch-mcf seed 6", Mcf_ltc.run (batch_mcf_seed 6),
        "06a0d8b7cb086c8617070ab2a2b36a68" );
      ( "batch-mcf seed 7", Mcf_ltc.run (batch_mcf_seed 7),
        "cd84d2cbe217830ac0fec8a6310e82f7" );
      ( "seed 95 buffer 1", buffered 1 seed_95,
        "b7bdf00a2f56424be78d8fd265fc3cdc" );
      ( "seed 95 buffer 7", buffered 7 seed_95,
        "b0c3b4f7f72860151f4ad9783c53f8c1" );
      ( "seed 95 buffer 40", buffered 40 seed_95,
        "1dcac5b5d3e724b05d77507c7e4d9230" );
      ( "batch-mcf buffer 8", buffered 8 batch_mcf,
        "400cb463c6eff97b5aa97b88a1e7a8db" );
    ]

(* Every online decision stream pinned by digest: the arrangement in
   order plus the arrivals consumed, and for release-scheduled runs the
   response times too.  The digests were recorded before the online
   drivers were merged into one engine step, so they pin that the merge
   changed no decision; a change to a tie-break, an RNG draw or the
   stopping rule moves one. *)
let decision_digest ?(extra = "") (o : Engine.outcome) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (a : Arrangement.assignment) ->
      Buffer.add_string b (Printf.sprintf "%d:%d;" a.worker a.task))
    (Arrangement.to_list o.Engine.arrangement);
  Buffer.add_string b (Printf.sprintf "consumed=%d%s" o.Engine.workers_consumed
    extra);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_decision_pins () =
  let table_iv =
    Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed:4)
      (Ltc_workload.Spec.scale_synthetic 0.1
         Ltc_workload.Spec.default_synthetic)
  in
  let instances =
    [
      ("seed 8", Fixtures.small_random ~seed:8 ());
      ("seed 21", Fixtures.small_random ~seed:21 ());
      ("table IV", table_iv);
    ]
  in
  let registry name i = (Algorithm.find name).Algorithm.run ~seed:5 i in
  let dynamic algorithm ~release i =
    let o = Dynamic.run ~algorithm ~seed:5 ~release i in
    decision_digest o.Dynamic.engine
      ~extra:
        (Printf.sprintf " resp=%h/%d/%d" o.Dynamic.mean_response
           o.Dynamic.max_response o.Dynamic.completed_tasks)
  in
  let upfront algorithm i =
    Dynamic.run ~algorithm ~seed:5
      ~release:(Array.make (Instance.task_count i) 0)
      i
  in
  let noshow policy i =
    Engine.run ~name:"noshow"
      ~config:
        {
          Engine.default_config with
          Engine.accept_rate = Some 0.7;
          rng = Some (Ltc_util.Rng.create ~seed:11);
        }
      policy i
  in
  let rows =
    List.concat_map
      (fun (label, i) ->
        List.map
          (fun name -> (label ^ " " ^ name, decision_digest (registry name i)))
          [ "Random"; "LAF"; "AAM"; "LGF-only"; "LRF-only"; "Nearest";
            "Base-off" ]
        @ [
            ( label ^ " LAF-dyn",
              decision_digest (upfront Algorithm.laf i).Dynamic.engine );
            ( label ^ " AAM-dyn",
              decision_digest (upfront Algorithm.aam i).Dynamic.engine );
            ( label ^ " Random-dyn",
              decision_digest (upfront Algorithm.random i).Dynamic.engine );
            (label ^ " LAF q=0.7", decision_digest (noshow Laf.policy i));
            (label ^ " AAM q=0.7", decision_digest (noshow Aam.policy i));
          ])
      instances
    @ List.concat_map
        (fun fraction ->
          let release =
            Dynamic.uniform_releases (Ltc_util.Rng.create ~seed:6)
              ~n_tasks:(Instance.task_count table_iv)
              ~horizon:(Instance.worker_count table_iv / 4)
              ~upfront_fraction:fraction
          in
          List.map
            (fun (algorithm : Algorithm.t) ->
              ( Printf.sprintf "table IV %s released %.1f"
                  algorithm.Algorithm.name fraction,
                dynamic algorithm ~release table_iv ))
            Algorithm.[ laf; aam; random ])
        [ 0.5; 0.0 ]
  in
  let want =
    [
      ("seed 8 Random", "a7528ca9e397c51d794213efeb8ce008");
      ("seed 8 LAF", "3f00a0dbbd372b20805152b20b795657");
      ("seed 8 AAM", "f7cd80ed16dffe318e7c9fa5c88eef8f");
      ("seed 8 LGF-only", "246dcb1abd6e49bca0f4ccb467cab3b3");
      ("seed 8 LRF-only", "5912f79f22f760676062e0d0c1b57ef8");
      ("seed 8 Nearest", "3f00a0dbbd372b20805152b20b795657");
      ("seed 8 Base-off", "0845d3dabb424f7ae1ccb8b63d8bf203");
      ("seed 8 LAF-dyn", "3f00a0dbbd372b20805152b20b795657");
      ("seed 8 AAM-dyn", "f7cd80ed16dffe318e7c9fa5c88eef8f");
      ("seed 8 Random-dyn", "a7528ca9e397c51d794213efeb8ce008");
      ("seed 8 LAF q=0.7", "3686c77bb8f7b7c44bf03c231499ec0c");
      ("seed 8 AAM q=0.7", "d2ab0124ba7f5b45f1256aa8a14eba37");
      ("seed 21 Random", "ce7e1f4dae641014a58287f39c8cd78f");
      ("seed 21 LAF", "b077a56067d9806289fc4ad6ae85cdb5");
      ("seed 21 AAM", "2c5bb7ab8091d2915cb2a002c7619df7");
      ("seed 21 LGF-only", "6d93300f2f74f3c1a2957b490a8343bf");
      ("seed 21 LRF-only", "7a852e38e1b2a0cdf930e6de15416580");
      ("seed 21 Nearest", "b077a56067d9806289fc4ad6ae85cdb5");
      ("seed 21 Base-off", "ae3ace621b23b7340bc40abd4db1a292");
      ("seed 21 LAF-dyn", "b077a56067d9806289fc4ad6ae85cdb5");
      ("seed 21 AAM-dyn", "2c5bb7ab8091d2915cb2a002c7619df7");
      ("seed 21 Random-dyn", "ce7e1f4dae641014a58287f39c8cd78f");
      ("seed 21 LAF q=0.7", "1a5b03d5dd2cdce3ec9957e98c2887ba");
      ("seed 21 AAM q=0.7", "687018741eb90f98fa5d609ca833e08c");
      ("table IV Random", "c2744f86ad5ca3625a86eb58ec36cfba");
      ("table IV LAF", "c4b35d7e7a8ee69e22ce20e531170ad8");
      ("table IV AAM", "41a35e13e8f3e831e0b71cbc03d97659");
      ("table IV LGF-only", "1015dadf3d559039382a27b2706eae31");
      ("table IV LRF-only", "0abc803723aaad58c9519faa9ac60d90");
      ("table IV Nearest", "8f99b18214ab99e30121d5f8d0387c93");
      ("table IV Base-off", "18070276cdf3f0d810b279fe28ae707b");
      ("table IV LAF-dyn", "c4b35d7e7a8ee69e22ce20e531170ad8");
      ("table IV AAM-dyn", "41a35e13e8f3e831e0b71cbc03d97659");
      ("table IV Random-dyn", "c2744f86ad5ca3625a86eb58ec36cfba");
      ("table IV LAF q=0.7", "b3c9cf4a7eea5a8d20beddde70707c15");
      ("table IV AAM q=0.7", "cb63d383f89384336bd9c4c3d4ea3f76");
      ("table IV LAF released 0.5", "38eef0916dafb3b596d4c963a120a78a");
      ("table IV AAM released 0.5", "a8e9271fe6db1270c1154fcaade7fb56");
      ("table IV Random released 0.5", "27fba32b2c4a17b9fb03f712662bb0a5");
      ("table IV LAF released 0.0", "481a6d72393889fe489ca6ac8bb3fa06");
      ("table IV AAM released 0.0", "e05d989b7a5e2e2dda9aa8010c4df803");
      ("table IV Random released 0.0", "d34a692cbe49e747c6e19134996dfd8d");
    ]
  in
  Alcotest.(check int) "every row pinned" (List.length want) (List.length rows);
  List.iter
    (fun (label, got) -> Alcotest.(check string) label (List.assoc label want) got)
    rows

let test_mcf_anytime_budget () =
  let i = Fixtures.small_random ~seed:9 () in
  let run ?budget () =
    Mcf_ltc.run ~config:{ Mcf_ltc.default_config with budget } i
  in
  let exact = run () in
  (* A budget that can never fire changes nothing and reports clean. *)
  let lavish = run ~budget:(Ltc_flow.Mcmf.Rounds max_int) () in
  Alcotest.(check int) "lavish budget = exact latency" exact.Engine.latency
    lavish.Engine.latency;
  Alcotest.(check int) "lavish budget never degrades" 0
    lavish.Engine.degraded;
  (* A zero budget starves every batch solve; the greedy completion must
     still produce a feasible, complete arrangement, and every batch is
     counted as degraded. *)
  let o = run ~budget:(Ltc_flow.Mcmf.Rounds 0) () in
  (match Arrangement.validate i o.Engine.arrangement with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "starved arrangement invalid");
  Alcotest.(check bool) "greedy completion still completes" true
    o.Engine.completed;
  Alcotest.(check bool) "degraded batches counted" true
    (o.Engine.degraded > 0)

let test_mcf_empty_instance () =
  let i =
    Instance.create ~tasks:[||]
      ~workers:
        [| Worker.make ~index:1 ~loc:(Ltc_geo.Point.make ~x:0.0 ~y:0.0)
             ~accuracy:0.9 ~capacity:2 |]
      ~epsilon:0.2 ()
  in
  let o = Mcf_ltc.run i in
  Alcotest.(check bool) "trivially complete" true o.Engine.completed;
  Alcotest.(check int) "latency 0" 0 o.Engine.latency

(* ------------------------------------------------------------ tie_cost *)

(* Pins the documented interplay between the tie perturbation and the flow
   solver's reduced-cost tolerance (Ltc_flow.Mcmf's epsilon = 1e-9): the
   perturbation steers adjacent-worker ties only while |W| < 50, always
   separates workers more than |W|/50 indices apart, and stays far too
   small to outweigh a genuine accuracy difference. *)
let test_tie_cost_epsilon () =
  let mk index =
    Worker.make ~index ~loc:(Ltc_geo.Point.make ~x:0.0 ~y:0.0) ~accuracy:0.9
      ~capacity:1
  in
  let epsilon = 1e-9 in
  for n_workers = 1 to 49 do
    let gap =
      Mcf_ltc.tie_cost ~n_workers (mk 2) -. Mcf_ltc.tie_cost ~n_workers (mk 1)
    in
    Alcotest.(check bool) "adjacent gap above epsilon while |W| < 50" true
      (gap > epsilon)
  done;
  let n_workers = 100 in
  let adjacent =
    Mcf_ltc.tie_cost ~n_workers (mk 8) -. Mcf_ltc.tie_cost ~n_workers (mk 7)
  in
  Alcotest.(check bool) "adjacent gap below epsilon at |W| = 100" true
    (adjacent < epsilon);
  let distant =
    Mcf_ltc.tie_cost ~n_workers (mk 10) -. Mcf_ltc.tie_cost ~n_workers (mk 7)
  in
  Alcotest.(check bool) "3-index gap above epsilon at |W| = 100" true
    (distant > epsilon);
  Alcotest.(check bool) "perturbation bounded by 5e-8" true
    (Mcf_ltc.tie_cost ~n_workers (mk n_workers) <= 5e-8)

let test_tie_prefers_earlier_worker () =
  let tasks =
    [| Task.make ~id:0 ~loc:(Ltc_geo.Point.make ~x:0.0 ~y:0.0) () |]
  in
  let mk index =
    Worker.make ~index ~loc:(Ltc_geo.Point.make ~x:0.0 ~y:0.0) ~accuracy:0.9
      ~capacity:2
  in
  (* epsilon 0.9: Hoeffding threshold 2 ln(1/0.9) ~ 0.21 < Acc* ~ 0.64, so a
     single answer completes the task and the flow routes exactly one unit. *)
  let i = Instance.create ~tasks ~workers:[| mk 1; mk 2 |] ~epsilon:0.9 () in
  (* One buffer holding both (identical) workers: the flow alone decides who
     performs the task, and the tie perturbation must pick worker 1. *)
  let o = Mcf_ltc.run_buffered ~buffer:2 i in
  Alcotest.(check bool) "completed" true o.Engine.completed;
  Alcotest.(check int) "earlier worker preferred" 1 o.Engine.latency

(* ------------------------------------------------------------- optimal *)

let test_optimal_infeasible () =
  let tasks = [| Task.make ~id:0 ~loc:(Ltc_geo.Point.make ~x:0.0 ~y:0.0) () |] in
  let workers =
    [| Worker.make ~index:1 ~loc:(Ltc_geo.Point.make ~x:0.0 ~y:0.0)
         ~accuracy:0.9 ~capacity:1 |]
  in
  let i = Instance.create ~tasks ~workers ~epsilon:0.05 () in
  Alcotest.(check bool) "infeasible" true (Optimal.solve i = None)

let test_optimal_monotone_prefix () =
  let i = Fixtures.micro_random ~seed:33 () in
  match Optimal.solve i with
  | None -> ()
  | Some (opt, _) ->
    Alcotest.(check bool) "prefix opt-1 infeasible" true
      (Optimal.feasible_with i (opt - 1) = None);
    Alcotest.(check bool) "prefix opt feasible" true
      (Optimal.feasible_with i opt <> None)

(* ------------------------------------------------- component strategies *)

let test_strategies_complete_and_validate () =
  let i = Fixtures.small_random ~seed:51 () in
  List.iter
    (fun (algo : Algorithm.t) ->
      let o = run_fixed algo i in
      Alcotest.(check bool) (algo.name ^ " completes") true o.Engine.completed;
      match Arrangement.validate i o.Engine.arrangement with
      | Ok () -> ()
      | Error _ -> Alcotest.failf "%s produced an invalid arrangement" algo.name)
    [ Algorithm.lgf; Algorithm.lrf ]

let test_aam_equals_lgf_before_switch () =
  (* While avg >= maxRemain, AAM must make exactly LGF's choices: on the
     running example both pick the same tasks for w1 and w2. *)
  let i = Fixtures.example2 () in
  let aam = (Aam.run i).Engine.arrangement in
  let lgf = (Algorithm.lgf.Algorithm.run ~seed:0 i).Engine.arrangement in
  List.iter
    (fun w ->
      Alcotest.(check (list int))
        (Printf.sprintf "worker %d agrees" w)
        (Arrangement.tasks_of_worker lgf w)
        (Arrangement.tasks_of_worker aam w))
    [ 1; 2 ]

(* ------------------------------------------------------------ feasibility *)

let test_feasibility_screen_passes () =
  let i = Fixtures.small_random ~seed:61 () in
  let v = Feasibility.screen i in
  Alcotest.(check bool) "maybe feasible" true v.Feasibility.feasible_maybe;
  Alcotest.(check (list int)) "no starved tasks" [] v.Feasibility.starved_tasks;
  Alcotest.(check bool) "routed everything" true
    (v.Feasibility.routable_units >= v.Feasibility.required_units)

let test_feasibility_detects_starvation () =
  (* One task, one nearby worker, strict epsilon: the worker's single unit
     cannot reach delta ~ 6. *)
  let tasks = [| Task.make ~id:0 ~loc:(Ltc_geo.Point.make ~x:0.0 ~y:0.0) () |] in
  let workers =
    [| Worker.make ~index:1 ~loc:(Ltc_geo.Point.make ~x:0.0 ~y:0.0)
         ~accuracy:0.9 ~capacity:1 |]
  in
  let i = Instance.create ~tasks ~workers ~epsilon:0.05 () in
  let v = Feasibility.screen i in
  Alcotest.(check bool) "certified infeasible" false v.Feasibility.feasible_maybe;
  Alcotest.(check (list int)) "task 0 starved" [ 0 ] v.Feasibility.starved_tasks

let test_feasibility_agrees_with_optimal () =
  (* On micro instances: whenever the exact solver finds a solution, the
     screen must not have certified infeasibility. *)
  List.iter
    (fun seed ->
      let i = Fixtures.micro_random ~seed () in
      let v = Feasibility.screen i in
      match Optimal.solve i with
      | Some _ ->
        Alcotest.(check bool)
          (Printf.sprintf "screen sound on seed %d" seed)
          true v.Feasibility.feasible_maybe
      | None -> ())
    [ 71; 72; 73; 74; 75 ]

let test_flow_lower_bound_sound () =
  (* The relaxation bound must never exceed the exact optimum. *)
  List.iter
    (fun seed ->
      let i = Fixtures.micro_random ~seed () in
      match (Optimal.solve i, Feasibility.latency_lower_bound i) with
      | Some (opt, _), Some low ->
        Alcotest.(check bool)
          (Printf.sprintf "bound %d <= OPT %d (seed %d)" low opt seed)
          true (low <= opt)
      | Some _, None ->
        Alcotest.fail "relaxation infeasible but exact solver succeeded"
      | None, _ -> ())
    [ 81; 82; 83; 84; 85 ]

let test_flow_lower_bound_tighter_than_theorem2 () =
  (* On a spatially sparse instance the geometry-aware bound dominates the
     Theorem-2 bound (which ignores the candidate radius). *)
  let i = Fixtures.small_random ~seed:86 () in
  match Feasibility.latency_lower_bound i with
  | None -> Alcotest.fail "dense fixture must be feasible"
  | Some low ->
    let t2, _ = Bounds.of_instance i in
    Alcotest.(check bool)
      (Printf.sprintf "flow bound %d vs Theorem-2 %.1f" low t2)
      true
      (float_of_int low >= Float.floor t2)

let test_flow_lower_bound_empty () =
  let i =
    Instance.create ~tasks:[||]
      ~workers:
        [| Worker.make ~index:1 ~loc:(Ltc_geo.Point.make ~x:0.0 ~y:0.0)
             ~accuracy:0.9 ~capacity:2 |]
      ~epsilon:0.2 ()
  in
  Alcotest.(check bool) "zero tasks" true
    (Feasibility.latency_lower_bound i = Some 0)

(* Verdicts and bounds recorded before the screen and the bound shared
   one relaxation and one network builder: a dense and a sparse routable
   instance, a sparse one with starved tasks, and two side-by-side tasks
   that each need three of three unit workers (no task is starved, yet
   six units cannot route through three), once more with a third task
   out of every worker's reach (no candidate, so no demand to count). *)
let test_feasibility_pins () =
  (* One task, and three workers at its location who answer at random
     (p = 0.5): their best score is 8.7e-27, so the demand quotient is
     far past [max_int] and the task is starved.  When that quotient
     wrapped to a demand of 0 the screen read "may be feasible (routed 0
     of 0 demand units)" and the bound [Some 1]. *)
  let coin_flip () =
    let at_origin = Ltc_geo.Point.make ~x:0.0 ~y:0.0 in
    Instance.create
      ~tasks:[| Task.make ~id:0 ~loc:at_origin () |]
      ~workers:
        (Array.init 3 (fun k ->
             Worker.make ~index:(k + 1) ~loc:at_origin ~accuracy:0.5
               ~capacity:1))
      ~epsilon:0.2 ()
  in
  let crowded ~far =
    let at x = Ltc_geo.Point.make ~x ~y:0.0 in
    let tasks =
      Array.of_list
        ([ Task.make ~id:0 ~loc:(at 0.0) (); Task.make ~id:1 ~loc:(at 1.0) () ]
        @ if far then [ Task.make ~id:2 ~loc:(at 200.0) () ] else [])
    in
    let workers =
      Array.init 3 (fun k ->
          Worker.make ~index:(k + 1) ~loc:(at 0.5) ~accuracy:0.9 ~capacity:1)
    in
    Instance.create ~tasks ~workers ~epsilon:0.4 ()
  in
  List.iter
    (fun (label, i, want_screen, want_bound) ->
      let v = Feasibility.screen i in
      Alcotest.(check (pair (pair bool (pair int int)) (list int)))
        (label ^ " screen") want_screen
        ( ( v.Feasibility.feasible_maybe,
            (v.Feasibility.required_units, v.Feasibility.routable_units) ),
          v.Feasibility.starved_tasks );
      Alcotest.(check (option int))
        (label ^ " bound") want_bound
        (Feasibility.latency_lower_bound i))
    [
      ( "dense",
        Fixtures.small_random ~seed:61 (),
        ((true, (60, 60)), []),
        Some 43 );
      ( "sparse",
        Fixtures.small_random ~seed:63 ~n_workers:60 (),
        ((true, (64, 64)), []),
        Some 38 );
      ( "starved",
        Fixtures.small_random ~seed:65 ~n_workers:25 (),
        ((false, (68, 0)), [ 1; 9; 10 ]),
        None );
      ("crowded", crowded ~far:false, ((false, (6, 3)), []), None);
      ( "crowded, far task",
        crowded ~far:true,
        ((false, (6, 0)), [ 2 ]),
        None );
      ("coin-flip workers", coin_flip (), ((false, (0, 0)), [ 0 ]), None);
    ];
  (* LAF never completes the task the screen certifies infeasible. *)
  Alcotest.(check bool) "coin-flip workers: LAF incomplete" false
    (Laf.run (coin_flip ())).Engine.completed

(* ---------------------------------------------------------------- noshow *)

let noshow_config ~accept_rate ~seed =
  {
    Engine.accept_rate = Some accept_rate;
    rng = Some (Ltc_util.Rng.create ~seed);
    degrade = None;
  }

let test_noshow_full_rate_equals_plain_run () =
  let i = Fixtures.small_random ~seed:91 () in
  let a = Laf.run i in
  let b =
    Engine.run
      ~config:(noshow_config ~accept_rate:1.0 ~seed:1)
      ~name:"LAF" Laf.policy i
  in
  Alcotest.(check int) "same latency at q=1" a.Engine.latency b.Engine.latency;
  Alcotest.(check int) "same size" (Arrangement.size a.Engine.arrangement)
    (Arrangement.size b.Engine.arrangement)

let test_noshow_costs_latency () =
  let i = Fixtures.small_random ~seed:92 () in
  let run rate =
    (Engine.run
       ~config:(noshow_config ~accept_rate:rate ~seed:5)
       ~name:"AAM" Aam.policy i)
      .Engine
      .latency
  in
  (* Dropping half the answers cannot make completion faster. *)
  Alcotest.(check bool) "latency grows under no-shows" true
    (run 0.5 >= run 1.0)

let test_noshow_validates () =
  let i = Fixtures.small_random ~seed:93 () in
  let o =
    Engine.run
      ~config:(noshow_config ~accept_rate:0.7 ~seed:3)
      ~name:"AAM" Aam.policy i
  in
  Alcotest.(check bool) "completed" true o.Engine.completed;
  match Arrangement.validate i o.Engine.arrangement with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "answered-only arrangement must validate"

let test_noshow_invalid_rate () =
  let i = Fixtures.small_random ~seed:94 () in
  List.iter
    (fun accept_rate ->
      Alcotest.check_raises
        (Printf.sprintf "rate %g" accept_rate)
        (Invalid_argument "Engine.run: accept_rate must be in (0, 1]")
        (fun () ->
          ignore
            (Engine.run
               ~config:(noshow_config ~accept_rate ~seed:1)
               ~name:"x" Laf.policy i)))
    [ 0.0; 1.5; nan ];
  Alcotest.check_raises "rate without rng"
    (Invalid_argument "Engine.run: accept_rate requires an rng") (fun () ->
      ignore
        (Engine.run
           ~config:
             {
               Engine.accept_rate = Some 0.5;
               rng = None;
               degrade = None;
             }
           ~name:"x" Laf.policy i))

(* A deadline budget must be finite and positive; NaN fails the check. *)
let test_engine_deadline_budget () =
  let i = Fixtures.small_random ~seed:94 () in
  List.iter
    (fun budget_s ->
      Alcotest.check_raises
        (Printf.sprintf "budget %g" budget_s)
        (Invalid_argument "Engine.run: deadline budget must be finite and > 0")
        (fun () ->
          ignore
            (Engine.run
               ~config:
                 {
                   Engine.default_config with
                   degrade =
                     Some
                       { Engine.budget_s; fallback_name = "LAF";
                         fallback = Laf.policy };
                 }
               ~name:"x" Laf.policy i)))
    [ 0.0; nan; infinity ]

(* --------------------------------------------------- qcheck: whole-stack *)

let algo_instance_gen =
  QCheck2.Gen.(
    let* n_tasks = int_range 2 6 in
    let* capacity = int_range 1 4 in
    let* epsilon_centi = int_range 10 30 in
    let* seed = int_range 0 10_000 in
    return (n_tasks, capacity, float_of_int epsilon_centi /. 100.0, seed))

let prop_algorithms_sound =
  QCheck2.Test.make ~name:"any algorithm, any instance: valid and bounded"
    ~count:60 algo_instance_gen
    (fun (n_tasks, capacity, epsilon, seed) ->
      let spec =
        {
          Ltc_workload.Spec.default_synthetic with
          Ltc_workload.Spec.n_tasks;
          n_workers = 300;
          capacity;
          epsilon;
          world_side = 40.0;
        }
      in
      let i =
        Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed) spec
      in
      let flow_bound = Feasibility.latency_lower_bound i in
      List.for_all
        (fun (algo : Algorithm.t) ->
          let o = algo.run ~seed:(seed + 1) i in
          if not o.Engine.completed then true
          else begin
            let valid = Arrangement.validate i o.Engine.arrangement = Ok () in
            let above_flow_bound =
              match flow_bound with
              | None -> false (* completed but relaxation says impossible *)
              | Some low -> o.Engine.latency >= low
            in
            let theorem2 =
              let low, _ = Bounds.of_instance i in
              float_of_int o.Engine.latency >= Float.floor low
            in
            valid && above_flow_bound && theorem2
          end)
        Algorithm.all)

(* ---------------------------------------------------------------- buffered *)

let test_buffered_validates_and_brackets () =
  let i = Fixtures.small_random ~seed:95 () in
  let aam = Aam.run i in
  List.iter
    (fun buffer ->
      let o = Mcf_ltc.run_buffered ~buffer i in
      Alcotest.(check bool)
        (Printf.sprintf "B=%d completes" buffer)
        true o.Engine.completed;
      (match Arrangement.validate i o.Engine.arrangement with
      | Ok () -> ()
      | Error _ -> Alcotest.failf "B=%d invalid" buffer);
      (* Sanity: stays within 3x of AAM on a dense instance. *)
      Alcotest.(check bool)
        (Printf.sprintf "B=%d latency %d sane vs AAM %d" buffer
           o.Engine.latency aam.Engine.latency)
        true
        (o.Engine.latency <= 3 * aam.Engine.latency))
    [ 1; 7; 40 ];
  Alcotest.check_raises "B=0 rejected"
    (Invalid_argument "Mcf_ltc.run_buffered: buffer must be >= 1") (fun () ->
      ignore (Mcf_ltc.run_buffered ~buffer:0 i))

(* ----------------------------------------------------------------- dynamic *)

let test_dynamic_upfront_equals_static () =
  (* With every task released at 0, the dynamic drivers must reproduce the
     static online algorithms exactly. *)
  let i = Fixtures.small_random ~seed:96 () in
  let release = Array.make (Instance.task_count i) 0 in
  let dyn_laf = Dynamic.run ~algorithm:Algorithm.laf ~seed:0 ~release i in
  let dyn_aam = Dynamic.run ~algorithm:Algorithm.aam ~seed:0 ~release i in
  Alcotest.(check int) "LAF-dyn = LAF" (Laf.run i).Engine.latency
    dyn_laf.Dynamic.engine.Engine.latency;
  Alcotest.(check int) "AAM-dyn = AAM" (Aam.run i).Engine.latency
    dyn_aam.Dynamic.engine.Engine.latency;
  Alcotest.(check bool) "responses = completion indexes" true
    (dyn_laf.Dynamic.max_response
    = Arrangement.latency dyn_laf.Dynamic.engine.Engine.arrangement)

let test_dynamic_respects_releases () =
  let i = Fixtures.small_random ~seed:97 () in
  let n_tasks = Instance.task_count i in
  (* Every task held back until worker 40. *)
  let release = Array.make n_tasks 40 in
  let o = Dynamic.run ~algorithm:Algorithm.aam ~seed:0 ~release i in
  Alcotest.(check bool) "completed" true o.Dynamic.engine.Engine.completed;
  List.iter
    (fun (a : Arrangement.assignment) ->
      Alcotest.(check bool) "no assignment before release" true (a.worker >= 40))
    (Arrangement.to_list o.Dynamic.engine.Engine.arrangement);
  (* Response time is measured from release, not from the stream start. *)
  Alcotest.(check bool) "response < latency" true
    (o.Dynamic.max_response
    < o.Dynamic.engine.Engine.latency);
  match Arrangement.validate i o.Dynamic.engine.Engine.arrangement with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "dynamic arrangement must validate"

let test_dynamic_never_completes_unreleased () =
  let i = Fixtures.small_random ~seed:98 () in
  let n_tasks = Instance.task_count i in
  let release = Array.make n_tasks 0 in
  (* One task released far beyond the stream. *)
  release.(0) <- Instance.worker_count i + 100;
  let o = Dynamic.run ~algorithm:Algorithm.laf ~seed:0 ~release i in
  Alcotest.(check bool) "not completed" false o.Dynamic.engine.Engine.completed;
  Alcotest.(check int) "all others done" (n_tasks - 1) o.Dynamic.completed_tasks;
  Alcotest.(check (list int)) "task 0 untouched" []
    (Arrangement.workers_of_task o.Dynamic.engine.Engine.arrangement 0)

let test_dynamic_validation () =
  let i = Fixtures.small_random ~seed:99 () in
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Dynamic.run: release array must have one entry per task")
    (fun () ->
      ignore
        (Dynamic.run ~algorithm:Algorithm.laf ~seed:0 ~release:[| 0 |] i));
  Alcotest.check_raises "offline algorithm"
    (Invalid_argument
       "Dynamic.run: MCF-LTC cannot run online (offline algorithm)")
    (fun () ->
      ignore
        (Dynamic.run ~algorithm:Algorithm.mcf_ltc ~seed:0
           ~release:(Array.make (Instance.task_count i) 0)
           i));
  Alcotest.check_raises "fraction out of range"
    (Invalid_argument "Dynamic.uniform_releases: fraction out of [0, 1]")
    (fun () ->
      ignore
        (Dynamic.uniform_releases
           (Ltc_util.Rng.create ~seed:1)
           ~n_tasks:3 ~horizon:10 ~upfront_fraction:1.5))

let test_dynamic_uniform_releases_shape () =
  let r =
    Dynamic.uniform_releases
      (Ltc_util.Rng.create ~seed:2)
      ~n_tasks:10 ~horizon:50 ~upfront_fraction:0.5
  in
  Alcotest.(check int) "length" 10 (Array.length r);
  Alcotest.(check int) "five upfront" 5
    (Array.length (Array.of_list (List.filter (( = ) 0) (Array.to_list r))));
  Array.iter
    (fun x -> Alcotest.(check bool) "within horizon" true (x >= 0 && x <= 50))
    r

(* --------------------------------------------------- per-task error rates *)

let per_task_instance () =
  (* Two co-located tasks, one with a much stricter error rate. *)
  let tasks =
    [| Task.make ~id:0 ~loc:(Ltc_geo.Point.make ~x:0.0 ~y:0.0) ();
       Task.make ~epsilon:0.02 ~id:1 ~loc:(Ltc_geo.Point.make ~x:2.0 ~y:0.0) () |]
  in
  let workers =
    Array.init 40 (fun i ->
        Worker.make ~index:(i + 1)
          ~loc:(Ltc_geo.Point.make ~x:1.0 ~y:(float_of_int (i mod 3)))
          ~accuracy:0.9 ~capacity:2)
  in
  Instance.create ~tasks ~workers ~epsilon:0.2 ()

let test_per_task_thresholds () =
  let i = per_task_instance () in
  Alcotest.(check (float 1e-9)) "default task threshold"
    (Quality.delta ~epsilon:0.2)
    (Instance.threshold_of i 0);
  Alcotest.(check (float 1e-9)) "strict task threshold"
    (Quality.delta ~epsilon:0.02)
    (Instance.threshold_of i 1);
  Alcotest.(check bool) "thresholds array agrees" true
    (Instance.thresholds i = [| Instance.threshold_of i 0; Instance.threshold_of i 1 |])

let test_per_task_epsilon_respected_by_algorithms () =
  let i = per_task_instance () in
  let strict_needed =
    int_of_float
      (Float.ceil (Quality.delta ~epsilon:0.02 /. 0.64))
      (* Acc* at p=0.9 ~ 0.64 *)
  in
  List.iter
    (fun (algo : Algorithm.t) ->
      let o = run_fixed algo i in
      Alcotest.(check bool) (algo.name ^ " completes") true o.Engine.completed;
      (match Arrangement.validate i o.Engine.arrangement with
      | Ok () -> ()
      | Error vs ->
        Alcotest.failf "%s violates per-task thresholds: %a" algo.name
          (Format.pp_print_list Arrangement.pp_violation)
          vs);
      (* The strict task must have received notably more workers. *)
      let strict = List.length (Arrangement.workers_of_task o.Engine.arrangement 1) in
      let lax = List.length (Arrangement.workers_of_task o.Engine.arrangement 0) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: strict task got >= %d workers (got %d, lax %d)"
           algo.name strict_needed strict lax)
        true
        (strict >= strict_needed && strict > lax))
    all_algorithms

let test_task_epsilon_validation () =
  List.iter
    (fun epsilon ->
      Alcotest.check_raises
        (Printf.sprintf "epsilon %g" epsilon)
        (Invalid_argument "Task.make: epsilon must lie in (0, 1)")
        (fun () ->
          ignore
            (Task.make ~epsilon ~id:0 ~loc:(Ltc_geo.Point.make ~x:0.0 ~y:0.0)
               ())))
    [ 1.2; nan ]

(* Algorithm registry *)

let test_registry () =
  Alcotest.(check int) "five paper algorithms" 5 (List.length Algorithm.paper);
  Alcotest.(check (list string)) "paper order"
    [ "Base-off"; "MCF-LTC"; "Random"; "LAF"; "AAM" ]
    (List.map (fun (a : Algorithm.t) -> a.name) Algorithm.paper);
  Alcotest.(check (list string)) "full registry"
    [ "Base-off"; "MCF-LTC"; "Random"; "LAF"; "AAM"; "LGF-only"; "LRF-only";
      "Nearest" ]
    (Algorithm.names ());
  Alcotest.(check bool) "release-scheduled runs are not registered" true
    (Algorithm.find_opt "LAF-dyn" = None);
  Alcotest.(check bool) "find is case-insensitive" true
    (match Algorithm.find_opt "aam" with
    | Some a -> a.Algorithm.name = "AAM"
    | None -> false);
  Alcotest.(check bool) "find raises with the known names" true
    (try
       ignore (Algorithm.find "Astar");
       false
     with Invalid_argument msg ->
       String.length msg > 0
       && msg.[String.length msg - 1] = ')'
       && Astring.String.is_infix ~affix:"Nearest" msg);
  (* Online strategies expose a policy for the streaming service; offline
     entries do not. *)
  List.iter
    (fun (name, streamable) ->
      Alcotest.(check bool)
        (name ^ " streamable")
        streamable
        (Option.is_some (Algorithm.find name).Algorithm.policy))
    [
      ("Base-off", false); ("MCF-LTC", false); ("Random", true);
      ("LAF", true); ("AAM", true); ("LGF-only", true); ("LRF-only", true);
      ("Nearest", true);
    ]

let suite =
  [
    ( "algo.examples",
      [
        Alcotest.test_case "Example 1: optimal = 5" `Quick test_example1_optimal;
        Alcotest.test_case "Example 2: MCF-LTC = 7 (see comment)" `Quick
          test_example2_mcf;
        Alcotest.test_case "Example 3: LAF = 8" `Quick test_example3_laf;
        Alcotest.test_case "Example 4: AAM = 6 (see comment)" `Quick
          test_example4_aam;
        Alcotest.test_case "Example 3 trace" `Quick test_example3_laf_trace;
        Alcotest.test_case "Example 4 trace (w3 LRF switch)" `Quick
          test_example4_aam_trace;
        Alcotest.test_case "Theorem 4 adversarial ratio 5.5" `Quick
          test_theorem4_adversary;
        Alcotest.test_case "Examples 2-4 through the registry" `Quick
          test_example_registry;
      ] );
    ( "algo.engine",
      [
        Alcotest.test_case "stops at completion" `Quick
          test_engine_stops_at_completion;
        Alcotest.test_case "arrival order" `Quick
          test_engine_presents_workers_in_arrival_order;
        Alcotest.test_case "rejects over-capacity" `Quick
          test_engine_rejects_over_capacity;
        Alcotest.test_case "rejects duplicates" `Quick
          test_engine_rejects_duplicates;
        Alcotest.test_case "rejects non-candidates" `Quick
          test_engine_rejects_non_candidates;
        Alcotest.test_case "deadline budget validated" `Quick
          test_engine_deadline_budget;
        Alcotest.test_case "incomplete when starved" `Quick
          test_engine_incomplete_when_starved;
        Alcotest.test_case "warm step allocation" `Quick
          test_engine_step_allocation;
        Alcotest.test_case "warm journaled feed allocation" `Quick
          test_journal_feed_allocation;
        Alcotest.test_case "restore allocation" `Quick
          test_restore_allocation;
        Alcotest.test_case "partial checkpoint allocation" `Quick
          test_partial_checkpoint_allocation;
      ] );
    ( "algo.validity",
      [
        Alcotest.test_case "all algorithms valid on random instances" `Quick
          test_all_valid_on_random_instances;
        Alcotest.test_case "latency >= exact optimum" `Quick
          test_latency_never_below_optimal;
        Alcotest.test_case "Theorem 2 lower bound" `Quick
          test_theorem2_lower_bound;
        Alcotest.test_case "McNaughton bound" `Quick test_mcnaughton;
        Alcotest.test_case "bounds ordered" `Quick test_bounds_order;
      ] );
    ( "algo.behaviour",
      [
        Alcotest.test_case "deterministic runs" `Quick test_runs_deterministic;
        Alcotest.test_case "Random baseline seed-sensitive" `Quick
          test_random_seed_changes_runs;
        Alcotest.test_case "MCF batch config" `Quick test_mcf_batch_config;
        Alcotest.test_case "MCF arrangement pins" `Quick
          test_mcf_arrangement_pins;
        Alcotest.test_case "online decision pins" `Quick test_decision_pins;
        Alcotest.test_case "MCF anytime budget" `Quick test_mcf_anytime_budget;
        Alcotest.test_case "MCF empty instance" `Quick test_mcf_empty_instance;
        Alcotest.test_case "tie cost vs solver epsilon" `Quick
          test_tie_cost_epsilon;
        Alcotest.test_case "tie prefers earlier worker" `Quick
          test_tie_prefers_earlier_worker;
      ] );
    ( "algo.optimal",
      [
        Alcotest.test_case "infeasible detected" `Quick test_optimal_infeasible;
        Alcotest.test_case "prefix monotonicity" `Quick
          test_optimal_monotone_prefix;
      ] );
    ( "algo.strategies",
      [
        Alcotest.test_case "LGF/LRF complete and validate" `Quick
          test_strategies_complete_and_validate;
        Alcotest.test_case "AAM = LGF before the switch" `Quick
          test_aam_equals_lgf_before_switch;
      ] );
    ( "algo.feasibility",
      [
        Alcotest.test_case "screen passes on dense instances" `Quick
          test_feasibility_screen_passes;
        Alcotest.test_case "detects starvation" `Quick
          test_feasibility_detects_starvation;
        Alcotest.test_case "sound wrt exact optimum" `Quick
          test_feasibility_agrees_with_optimal;
        Alcotest.test_case "flow lower bound <= OPT" `Quick
          test_flow_lower_bound_sound;
        Alcotest.test_case "flow bound vs Theorem 2" `Quick
          test_flow_lower_bound_tighter_than_theorem2;
        Alcotest.test_case "flow bound on empty task set" `Quick
          test_flow_lower_bound_empty;
        Alcotest.test_case "screen and bound pins" `Quick
          test_feasibility_pins;
      ] );
    ( "algo.noshow",
      [
        Alcotest.test_case "q=1 equals plain run" `Quick
          test_noshow_full_rate_equals_plain_run;
        Alcotest.test_case "no-shows cost latency" `Quick
          test_noshow_costs_latency;
        Alcotest.test_case "answered arrangement validates" `Quick
          test_noshow_validates;
        Alcotest.test_case "invalid rate" `Quick test_noshow_invalid_rate;
      ] );
    ( "algo.properties",
      [ QCheck_alcotest.to_alcotest prop_algorithms_sound ] );
    ( "algo.buffered",
      [
        Alcotest.test_case "validates and brackets" `Quick
          test_buffered_validates_and_brackets;
      ] );
    ( "algo.dynamic",
      [
        Alcotest.test_case "upfront = static" `Quick
          test_dynamic_upfront_equals_static;
        Alcotest.test_case "respects releases" `Quick
          test_dynamic_respects_releases;
        Alcotest.test_case "unreleased never completes" `Quick
          test_dynamic_never_completes_unreleased;
        Alcotest.test_case "argument validation" `Quick test_dynamic_validation;
        Alcotest.test_case "uniform_releases shape" `Quick
          test_dynamic_uniform_releases_shape;
      ] );
    ( "algo.per_task_epsilon",
      [
        Alcotest.test_case "thresholds honour overrides" `Quick
          test_per_task_thresholds;
        Alcotest.test_case "algorithms satisfy strict tasks" `Quick
          test_per_task_epsilon_respected_by_algorithms;
        Alcotest.test_case "epsilon validation" `Quick
          test_task_epsilon_validation;
      ] );
    ( "algo.registry", [ Alcotest.test_case "registry" `Quick test_registry ] );
  ]
