open Ltc_core

let check_float = Alcotest.(check (float 1e-9))

let point ~x ~y = Ltc_geo.Point.make ~x ~y

(* --------------------------------------------------------------- Quality *)

let test_delta () =
  check_float "eps 0.2" (2.0 *. log 5.0) (Quality.delta ~epsilon:0.2);
  check_float "eps 0.14" (2.0 *. log (1.0 /. 0.14)) (Quality.delta ~epsilon:0.14);
  List.iter
    (fun epsilon ->
      Alcotest.check_raises
        (Printf.sprintf "eps %g rejected" epsilon)
        (Invalid_argument "Quality.delta: epsilon must lie in (0, 1)")
        (fun () -> ignore (Quality.delta ~epsilon)))
    [ 0.0; 1.0; nan ]

let test_delta_hoeffding_consistency () =
  (* By construction: accumulating exactly delta makes the Hoeffding bound
     equal epsilon. *)
  let epsilon = 0.1 in
  let delta = Quality.delta ~epsilon in
  check_float "bound at delta = epsilon" epsilon
    (Quality.hoeffding_error_bound ~acc_star_sum:delta)

let test_majority () =
  Alcotest.(check bool) "yes wins" true
    (Quality.majority [ (0.9, Task.Yes); (0.3, Task.No) ] = Some Task.Yes);
  Alcotest.(check bool) "no wins" true
    (Quality.majority [ (0.2, Task.Yes); (0.8, Task.No) ] = Some Task.No);
  Alcotest.(check bool) "tie" true
    (Quality.majority [ (0.5, Task.Yes); (0.5, Task.No) ] = None);
  Alcotest.(check bool) "empty" true (Quality.majority [] = None)

let test_scoring_threshold () =
  check_float "hoeffding threshold is delta"
    (Quality.delta ~epsilon:0.2)
    (Quality.threshold Quality.Hoeffding ~epsilon:0.2);
  check_float "sum-accuracy threshold fixed" 2.92
    (Quality.threshold (Quality.Sum_accuracy { threshold = 2.92 }) ~epsilon:0.2)

(* -------------------------------------------------------------- Accuracy *)

let worker_at ~x ~y ~p =
  Worker.make ~index:1 ~loc:(point ~x ~y) ~accuracy:p ~capacity:2

let task_at ~x ~y = Task.make ~id:0 ~loc:(point ~x ~y) ()

let test_sigmoid_close () =
  (* Right at the task, the sigmoid is ~ p (exp(-30) vanishes). *)
  let model = Accuracy.Sigmoid { dmax = 30.0 } in
  let w = worker_at ~x:0.0 ~y:0.0 ~p:0.9 in
  let t = task_at ~x:0.0 ~y:0.0 in
  Alcotest.(check bool) "acc ~ p" true
    (Float.abs (Accuracy.acc model w t -. 0.9) < 1e-9)

let test_sigmoid_at_dmax () =
  (* At distance dmax the sigmoid halves the historical accuracy. *)
  let model = Accuracy.Sigmoid { dmax = 30.0 } in
  let w = worker_at ~x:0.0 ~y:0.0 ~p:0.9 in
  let t = task_at ~x:30.0 ~y:0.0 in
  check_float "acc = p/2" 0.45 (Accuracy.acc model w t)

let test_sigmoid_monotone_in_distance () =
  let model = Accuracy.Sigmoid { dmax = 30.0 } in
  let w d = worker_at ~x:d ~y:0.0 ~p:0.9 in
  let t = task_at ~x:0.0 ~y:0.0 in
  let prev = ref infinity in
  List.iter
    (fun d ->
      let a = Accuracy.acc model (w d) t in
      Alcotest.(check bool) "decreasing" true (a <= !prev +. 1e-12);
      prev := a)
    [ 0.0; 5.0; 15.0; 29.0; 30.0; 35.0; 60.0 ]

let test_acc_star () =
  let model = Accuracy.Historical in
  let w = worker_at ~x:0.0 ~y:0.0 ~p:0.96 in
  let t = task_at ~x:9.0 ~y:9.0 in
  check_float "(2*0.96-1)^2" (0.92 *. 0.92) (Accuracy.acc_star model w t)

let test_custom_clamped () =
  let model = Accuracy.Custom { name = "wild"; f = (fun _ _ -> 1.7) } in
  let w = worker_at ~x:0.0 ~y:0.0 ~p:0.9 in
  check_float "clamped to 1" 1.0 (Accuracy.acc model w (task_at ~x:0.0 ~y:0.0))

(* ------------------------------------------------------------------ Task *)

(* A task off the finite plane is refused where it is made; an instance
   over one used to fail inside the grid build, with "index out of
   bounds". *)
let test_task_validation () =
  List.iter
    (fun (x, y) ->
      Alcotest.check_raises
        (Printf.sprintf "location (%g, %g)" x y)
        (Invalid_argument "Task.make: location must be finite") (fun () ->
          ignore (Task.make ~id:0 ~loc:(point ~x ~y) ())))
    [ (Float.nan, 0.0); (Float.infinity, 0.0); (0.0, Float.neg_infinity) ];
  Alcotest.check_raises "epsilon first"
    (Invalid_argument "Task.make: epsilon must lie in (0, 1)") (fun () ->
      ignore (Task.make ~epsilon:2.0 ~id:0 ~loc:(point ~x:Float.nan ~y:0.0) ()))

(* ---------------------------------------------------------------- Worker *)

let test_worker_validation () =
  Alcotest.check_raises "index 0" (Invalid_argument "Worker.make: index must be >= 1")
    (fun () ->
      ignore
        (Worker.make ~index:0 ~loc:(point ~x:0.0 ~y:0.0) ~accuracy:0.9
           ~capacity:1));
  Alcotest.check_raises "accuracy 1.5"
    (Invalid_argument "Worker.make: accuracy out of [0, 1]") (fun () ->
      ignore (Worker.make ~index:1 ~loc:(point ~x:0.0 ~y:0.0) ~accuracy:1.5 ~capacity:1));
  (* Every comparison with NaN is false, so a range check written as
     "reject when out of range" lets it through. *)
  Alcotest.check_raises "accuracy NaN"
    (Invalid_argument "Worker.make: accuracy out of [0, 1]") (fun () ->
      ignore
        (Worker.make ~index:1 ~loc:(point ~x:0.0 ~y:0.0) ~accuracy:Float.nan
           ~capacity:1));
  List.iter
    (fun (x, y) ->
      Alcotest.check_raises
        (Printf.sprintf "location (%g, %g)" x y)
        (Invalid_argument "Worker.make: location must be finite") (fun () ->
          ignore
            (Worker.make ~index:1 ~loc:(point ~x ~y) ~accuracy:0.9
               ~capacity:1)))
    [
      (Float.nan, 0.0);
      (0.0, Float.nan);
      (Float.infinity, 0.0);
      (0.0, Float.neg_infinity);
    ];
  (* The paper's spam rule (p_w >= 0.66) is the accuracy generators'
     truncation, not a precondition of a worker. *)
  Alcotest.(check (float 0.0)) "spam-level worker is valid" 0.5
    (worker_at ~x:0.0 ~y:0.0 ~p:0.5).Worker.accuracy

(* -------------------------------------------------------------- Instance *)

(* The sorted candidate query, read back as a list. *)
let sorted_candidates i w =
  let acc = ref [] in
  Instance.iter_candidates_sorted i w (fun task -> acc := task :: !acc);
  List.rev !acc

let tiny_instance ?(epsilon = 0.2) ?candidate_radius () =
  let tasks =
    [| Task.make ~id:0 ~loc:(point ~x:0.0 ~y:0.0) ();
       Task.make ~id:1 ~loc:(point ~x:50.0 ~y:0.0) () |]
  in
  let workers =
    [| Worker.make ~index:1 ~loc:(point ~x:1.0 ~y:0.0) ~accuracy:0.9 ~capacity:2;
       Worker.make ~index:2 ~loc:(point ~x:49.0 ~y:0.0) ~accuracy:0.9 ~capacity:2 |]
  in
  Instance.create ?candidate_radius ~tasks ~workers ~epsilon ()

let test_instance_validation () =
  let bad_tasks = [| Task.make ~id:1 ~loc:(point ~x:0.0 ~y:0.0) () |] in
  Alcotest.check_raises "task id mismatch"
    (Invalid_argument "Instance.create: task ids must match their positions")
    (fun () ->
      ignore (Instance.create ~tasks:bad_tasks ~workers:[||] ~epsilon:0.1 ()));
  let tasks = [| Task.make ~id:0 ~loc:(point ~x:0.0 ~y:0.0) () |] in
  let bad_workers =
    [| Worker.make ~index:2 ~loc:(point ~x:0.0 ~y:0.0) ~accuracy:0.9 ~capacity:1 |]
  in
  Alcotest.check_raises "worker order"
    (Invalid_argument
       "Instance.create: workers must be in contiguous 1-based arrival order")
    (fun () ->
      ignore (Instance.create ~tasks ~workers:bad_workers ~epsilon:0.1 ()));
  List.iter
    (fun epsilon ->
      Alcotest.check_raises
        (Printf.sprintf "epsilon %g" epsilon)
        (Invalid_argument "Instance.create: epsilon must lie in (0, 1)")
        (fun () -> ignore (Instance.create ~tasks ~workers:[||] ~epsilon ())))
    [ 0.0; 1.0; nan ];
  List.iter
    (fun threshold ->
      Alcotest.check_raises
        (Printf.sprintf "sum_accuracy threshold %g" threshold)
        (Invalid_argument
           "Instance.create: sum_accuracy threshold must be finite and > 0")
        (fun () ->
          ignore
            (Instance.create
               ~scoring:(Quality.Sum_accuracy { threshold })
               ~tasks ~workers:[||] ~epsilon:0.1 ())))
    [ 0.0; -1.0; nan; infinity ]

let test_instance_candidates_radius () =
  let i = tiny_instance () in
  (* Default radius = dmax = 30: each worker sees only its nearby task. *)
  Alcotest.(check (list int)) "worker 1 near task 0" [ 0 ]
    (sorted_candidates i i.Instance.workers.(0));
  Alcotest.(check (list int)) "worker 2 near task 1" [ 1 ]
    (sorted_candidates i i.Instance.workers.(1))

let test_instance_candidates_unrestricted () =
  let i = tiny_instance ~candidate_radius:None () in
  Alcotest.(check (list int)) "all tasks" [ 0; 1 ]
    (sorted_candidates i i.Instance.workers.(0))

let test_instance_score_matches_quality () =
  let i = tiny_instance () in
  let w = i.Instance.workers.(0) in
  check_float "score = Acc*"
    (Accuracy.acc_star i.Instance.accuracy w i.Instance.tasks.(0))
    (Instance.score i w 0)

(* ----------------------------------------------------------- Arrangement *)

let test_arrangement_accumulates () =
  let a =
    Arrangement.empty
    |> Arrangement.add ~worker:3 ~task:0
    |> Arrangement.add ~worker:1 ~task:1
  in
  Alcotest.(check int) "size" 2 (Arrangement.size a);
  Alcotest.(check int) "latency = max index" 3 (Arrangement.latency a);
  Alcotest.(check (list int)) "tasks of worker 3" [ 0 ]
    (Arrangement.tasks_of_worker a 3);
  Alcotest.(check (list int)) "workers of task 1" [ 1 ]
    (Arrangement.workers_of_task a 1);
  Alcotest.(check int) "empty latency" 0 (Arrangement.latency Arrangement.empty)

let test_validate_happy () =
  let i = tiny_instance () in
  (* Complete both tasks: delta(0.2) ~ 3.22; Acc* per assignment ~ 0.63
     (p=0.9 close by) so 6 assignments per task exceed it... but capacity
     is 2, so build a bigger instance instead with epsilon large. *)
  let tasks = [| Task.make ~id:0 ~loc:(point ~x:0.0 ~y:0.0) () |] in
  let workers =
    Array.init 8 (fun k ->
        Worker.make ~index:(k + 1) ~loc:(point ~x:1.0 ~y:0.0) ~accuracy:0.9
          ~capacity:2)
  in
  let inst = Instance.create ~tasks ~workers ~epsilon:0.2 () in
  let arrangement =
    Array.to_list workers
    |> List.fold_left
         (fun m (w : Worker.t) -> Arrangement.add m ~worker:w.index ~task:0)
         Arrangement.empty
  in
  (match Arrangement.validate inst arrangement with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "unexpected violations: %a"
      (Format.pp_print_list Arrangement.pp_violation)
      vs);
  ignore i

let test_validate_catches_violations () =
  let i = tiny_instance () in
  let a =
    Arrangement.empty
    |> Arrangement.add ~worker:1 ~task:0
    |> Arrangement.add ~worker:1 ~task:0  (* duplicate *)
    |> Arrangement.add ~worker:1 ~task:1  (* not a candidate *)
    |> Arrangement.add ~worker:9 ~task:0  (* out of range *)
  in
  match Arrangement.validate i a with
  | Ok () -> Alcotest.fail "expected violations"
  | Error vs ->
    let has pred = List.exists pred vs in
    Alcotest.(check bool) "duplicate" true
      (has (function Arrangement.Duplicate_assignment _ -> true | _ -> false));
    Alcotest.(check bool) "not candidate" true
      (has (function Arrangement.Not_a_candidate _ -> true | _ -> false));
    Alcotest.(check bool) "out of range" true
      (has (function Arrangement.Worker_out_of_range _ -> true | _ -> false));
    Alcotest.(check bool) "incomplete tasks" true
      (has (function Arrangement.Task_incomplete _ -> true | _ -> false))

let test_validate_capacity () =
  let tasks =
    Array.init 3 (fun id -> Task.make ~id ~loc:(point ~x:(float_of_int id) ~y:0.0) ())
  in
  let workers =
    [| Worker.make ~index:1 ~loc:(point ~x:1.0 ~y:0.0) ~accuracy:0.9 ~capacity:2 |]
  in
  let i = Instance.create ~tasks ~workers ~epsilon:0.2 () in
  let a =
    Arrangement.empty
    |> Arrangement.add ~worker:1 ~task:0
    |> Arrangement.add ~worker:1 ~task:1
    |> Arrangement.add ~worker:1 ~task:2
  in
  match Arrangement.validate i a with
  | Ok () -> Alcotest.fail "expected capacity violation"
  | Error vs ->
    Alcotest.(check bool) "capacity" true
      (List.exists
         (function Arrangement.Capacity_exceeded _ -> true | _ -> false)
         vs)

(* -------------------------------------------------------------- Progress *)

let test_progress_basic () =
  let p = Progress.create ~threshold:2.0 ~n_tasks:3 in
  Alcotest.(check int) "incomplete" 3 (Progress.incomplete_count p);
  check_float "sum remaining" 6.0 (Progress.sum_remaining p);
  check_float "max remaining" 2.0 (Progress.max_remaining p);
  Progress.record p ~task:1 ~score:1.5;
  check_float "remaining of 1" 0.5 (Progress.remaining p 1);
  check_float "sum" 4.5 (Progress.sum_remaining p);
  Progress.record p ~task:1 ~score:0.6;
  Alcotest.(check bool) "task 1 complete" true (Progress.is_complete p 1);
  Alcotest.(check int) "two left" 2 (Progress.incomplete_count p);
  check_float "max still 2" 2.0 (Progress.max_remaining p);
  Progress.record p ~task:0 ~score:2.0;
  Progress.record p ~task:2 ~score:2.5;
  Alcotest.(check bool) "all done" true (Progress.all_complete p);
  check_float "sum 0" 0.0 (Progress.sum_remaining p);
  check_float "max 0" 0.0 (Progress.max_remaining p)

let test_progress_overshoot () =
  let p = Progress.create ~threshold:1.0 ~n_tasks:1 in
  Progress.record p ~task:0 ~score:5.0;
  Progress.record p ~task:0 ~score:5.0;
  check_float "accumulated keeps growing" 10.0 (Progress.accumulated p 0);
  Alcotest.(check bool) "complete" true (Progress.all_complete p)

let test_progress_zero_tasks () =
  let p = Progress.create ~threshold:1.0 ~n_tasks:0 in
  Alcotest.(check bool) "trivially complete" true (Progress.all_complete p)

let prop_progress_aggregates =
  (* Against a model: random records; sum/max over explicit arrays. *)
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 8 in
      let* ops = list_size (int_range 0 60)
          (pair (int_range 0 (n - 1)) (float_range 0.0 1.0)) in
      return (n, ops))
  in
  QCheck2.Test.make ~name:"progress aggregates match a model" ~count:300 gen
    (fun (n, ops) ->
      let threshold = 2.0 in
      let p = Progress.create ~threshold ~n_tasks:n in
      let model = Array.make n 0.0 in
      List.iter
        (fun (task, score) ->
          Progress.record p ~task ~score;
          model.(task) <- model.(task) +. score)
        ops;
      let rem i = Float.max 0.0 (threshold -. model.(i)) in
      let sum = ref 0.0 and mx = ref 0.0 and inc = ref 0 in
      for i = 0 to n - 1 do
        sum := !sum +. rem i;
        mx := Float.max !mx (rem i);
        if rem i > 0.0 then incr inc
      done;
      Float.abs (Progress.sum_remaining p -. !sum) < 1e-6
      && Float.abs (Progress.max_remaining p -. !mx) < 1e-6
      && Progress.incomplete_count p = !inc
      && Progress.all_complete p = (!inc = 0))

(* Held tasks against a model: random holds, then records on open tasks
   interleaved with releases.  A held task is outside the open set and
   both aggregates, keeps [all_complete] false, and refuses a record. *)
let prop_progress_held =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 8 in
      let* held = list_repeat n bool in
      let* ops =
        list_size (int_range 0 60)
          (pair (int_range 0 (n - 1)) (opt (float_range 0.0 1.5)))
      in
      return (n, Array.of_list held, ops))
  in
  QCheck2.Test.make ~name:"held tasks stay out until released" ~count:300 gen
    (fun (n, held, ops) ->
      let threshold = 2.0 in
      let p =
        Progress.create_per_task
          ~held:(Array.get held)
          ~thresholds:(Array.make n threshold) ()
      in
      let model = Array.make n 0.0 in
      let ok = ref true in
      let check () =
        let open_tasks =
          List.filter
            (fun i -> (not held.(i)) && model.(i) < threshold)
            (List.init n Fun.id)
        in
        let rem i = threshold -. model.(i) in
        let visited = ref [] in
        Progress.iter_incomplete p (fun i -> visited := i :: !visited);
        ok :=
          !ok
          && List.rev !visited = open_tasks
          && List.for_all (fun i -> Progress.is_open p i = List.mem i open_tasks)
               (List.init n Fun.id)
          && Float.abs
               (Progress.sum_remaining p
               -. List.fold_left (fun a i -> a +. rem i) 0.0 open_tasks)
             < 1e-6
          && Float.abs
               (Progress.max_remaining p
               -. List.fold_left (fun a i -> Float.max a (rem i)) 0.0 open_tasks)
             < 1e-6
          && Progress.all_complete p
             = (open_tasks = [] && Array.for_all not held)
      in
      List.iter
        (fun (task, op) ->
          (match op with
          | None ->
            Progress.release p task;
            held.(task) <- false
          | Some score when held.(task) ->
            ok :=
              !ok
              && (try
                    Progress.record p ~task ~score;
                    false
                  with Invalid_argument _ -> true)
          | Some score ->
            Progress.record p ~task ~score;
            model.(task) <- model.(task) +. score);
          check ())
        ops;
      check ();
      !ok)

(* Holding every task and releasing them in id order before any record
   rebuilds the fresh state bit for bit: the decision pins rely on it. *)
let test_progress_release_all () =
  let thresholds = [| 1.7; 0.3; 2.9; 1.1 |] in
  let fresh = Progress.create_per_task ~thresholds () in
  let held = Progress.create_per_task ~held:(fun _ -> true) ~thresholds () in
  Alcotest.(check bool) "held: not complete" false (Progress.all_complete held);
  Alcotest.(check (float 0.0)) "held: nothing outstanding" 0.0
    (Progress.sum_remaining held);
  Array.iteri (fun task _ -> Progress.release held task) thresholds;
  Alcotest.(check bool) "same sum, bit for bit" true
    (Int64.equal
       (Int64.bits_of_float (Progress.sum_remaining fresh))
       (Int64.bits_of_float (Progress.sum_remaining held)));
  Alcotest.(check (float 0.0)) "same max" (Progress.max_remaining fresh)
    (Progress.max_remaining held);
  Alcotest.check_raises "a snapshot refuses held tasks"
    (Invalid_argument "Progress.snapshot: tasks are held") (fun () ->
      ignore
        (Progress.snapshot
           (Progress.create_per_task ~held:(fun t -> t = 2) ~thresholds ())))

let prop_progress_iter_incomplete =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 8 in
      let* ops = list_size (int_range 0 40)
          (pair (int_range 0 (n - 1)) (float_range 0.5 1.5)) in
      return (n, ops))
  in
  QCheck2.Test.make
    ~name:"iter_incomplete visits exactly the open tasks, ascending"
    ~count:200 gen
    (fun (n, ops) ->
      let p = Progress.create ~threshold:2.0 ~n_tasks:n in
      List.iter (fun (task, score) -> Progress.record p ~task ~score) ops;
      let visited = ref [] in
      Progress.iter_incomplete p (fun task -> visited := task :: !visited);
      (* [iter_incomplete] documents ascending id order (the flow network
         construction relies on it), so the reversed collection must equal
         the filtered range without re-sorting. *)
      let visited = List.rev !visited in
      let expected =
        List.filter (fun i -> not (Progress.is_complete p i))
          (List.init n (fun i -> i))
      in
      visited = expected)

(* The reference construction is [create_per_task] then one [record] per
   task; [of_snapshot] builds the same state in one linear pass.  Both
   must answer every query bit-identically, right after construction and
   after the same further records. *)
let prop_progress_of_snapshot_matches_reference =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 0 40 in
      let* tasks =
        list_repeat n
          (let* threshold = float_range 0.25 4.0 in
           let* u = float_range 0.0 1.0 in
           let* shape = int_range 0 3 in
           (* zero, partial, exactly at the threshold, over it *)
           let score =
             match shape with
             | 0 -> 0.0
             | 1 -> threshold *. u
             | 2 -> threshold
             | _ -> threshold +. u
           in
           return (threshold, score))
      in
      let* records =
        if n = 0 then return []
        else
          list_size (int_range 0 60)
            (pair (int_range 0 (n - 1)) (float_range 0.0 1.5))
      in
      return (tasks, records))
  in
  let observe p =
    let bits = Int64.bits_of_float in
    let n = Array.length (Progress.snapshot p).Progress.thresholds in
    let order = ref [] in
    Progress.iter_incomplete p (fun task -> order := task :: !order);
    ( List.init n (fun task ->
          ( bits (Progress.accumulated p task),
            bits (Progress.remaining p task),
            Progress.is_complete p task )),
      Progress.incomplete_count p,
      List.rev !order,
      bits (Progress.max_remaining p) )
  in
  QCheck2.Test.make ~name:"of_snapshot = create_per_task + one record per task"
    ~count:500 gen
    (fun (tasks, records) ->
      let thresholds = Array.of_list (List.map fst tasks) in
      let reference = Progress.create_per_task ~thresholds () in
      List.iteri
        (fun task (_, score) -> Progress.record reference ~task ~score)
        tasks;
      let snap = Progress.snapshot reference in
      let rebuilt = Progress.of_snapshot snap in
      let same_snapshot (a : Progress.snapshot) (b : Progress.snapshot) =
        let bits = Array.map Int64.bits_of_float in
        bits a.thresholds = bits b.thresholds
        && bits a.scores = bits b.scores
        && bits [| a.sum_remaining |] = bits [| b.sum_remaining |]
      in
      let agree_now = observe reference = observe rebuilt in
      let round_trips = same_snapshot (Progress.snapshot rebuilt) snap in
      List.iter
        (fun (task, score) ->
          Progress.record reference ~task ~score;
          Progress.record rebuilt ~task ~score)
        records;
      agree_now && round_trips && observe reference = observe rebuilt)

(* A NaN key would make every comparison of the open-task heap false and
   silently break its order, so [record] refuses what [score < 0.0] lets
   through, after the negative check, as [check_snapshot] orders them. *)
let test_progress_record_non_finite () =
  let p = Progress.create ~threshold:2.0 ~n_tasks:2 in
  Progress.record p ~task:1 ~score:2.5;
  let refused label message task score =
    Alcotest.check_raises label (Invalid_argument message) (fun () ->
        Progress.record p ~task ~score)
  in
  refused "negative" "Progress.record: negative score" 0 (-1.0);
  refused "negative infinity" "Progress.record: negative score" 0
    Float.neg_infinity;
  refused "NaN" "Progress.record: non-finite score" 0 Float.nan;
  refused "infinity" "Progress.record: non-finite score" 0 Float.infinity;
  refused "NaN on a complete task" "Progress.record: non-finite score" 1
    Float.nan;
  check_float "nothing recorded" 0.0 (Progress.accumulated p 0);
  check_float "max untouched" 2.0 (Progress.max_remaining p);
  check_float "complete task untouched" 2.5 (Progress.accumulated p 1)

(* A NaN threshold passes [threshold <= 0.0] and would poison the
   open-task heap's keys; both constructors refuse it, and infinity, after
   the positive check, in [of_snapshot]'s order. *)
let test_progress_create_non_finite () =
  let refused label message f =
    Alcotest.check_raises label (Invalid_argument message) (fun () ->
        ignore (f ()))
  in
  let per_task thresholds () = Progress.create_per_task ~thresholds () in
  let shared threshold () = Progress.create ~threshold ~n_tasks:2 in
  refused "per-task NaN" "Progress.create_per_task: non-finite threshold"
    (per_task [| 1.0; Float.nan; 2.0 |]);
  refused "per-task infinity" "Progress.create_per_task: non-finite threshold"
    (per_task [| Float.infinity |]);
  refused "per-task non-positive before NaN"
    "Progress.create_per_task: thresholds must be positive"
    (per_task [| Float.nan; -1.0 |]);
  refused "per-task negative infinity"
    "Progress.create_per_task: thresholds must be positive"
    (per_task [| Float.neg_infinity |]);
  refused "shared NaN" "Progress.create: non-finite threshold"
    (shared Float.nan);
  refused "shared infinity" "Progress.create: non-finite threshold"
    (shared Float.infinity);
  refused "shared negative infinity" "Progress.create: threshold <= 0"
    (shared Float.neg_infinity)

(* Progress against plain arrays: per-task thresholds (distinct, so the
   heap's order is exercised), records that complete a task at once, held
   tasks released along the way, a snapshot round trip once the last one
   is out, and a drain that completes the largest task until none is
   open.  After every operation [max_remaining] equals the model's
   largest [threshold - S] bit for bit, and the open set agrees through
   [is_open], [incomplete_count], [all_complete] and the ascending
   [iter_incomplete]. *)
let prop_progress_array_model =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 64 in
      let* thresholds = array_repeat n (float_range 0.25 4.0) in
      let* held =
        array_repeat n (frequency [ (3, pure false); (1, pure true) ])
      in
      let task = int_range 0 (n - 1) in
      let op =
        frequency
          [
            ( 5,
              map2
                (fun task score -> `Record (task, score))
                task
                (oneof [ pure 0.0; float_range 0.0 1.5 ]) );
            (* Completes the task whatever its key, so tasks also leave
               from the middle of the heap. *)
            (2, map (fun task -> `Record (task, thresholds.(task))) task);
            (1, map (fun task -> `Release task) task);
          ]
      in
      let* before = list_size (int_range 0 120) op in
      let* after = list_size (int_range 0 120) op in
      return (thresholds, held, before, after))
  in
  QCheck2.Test.make ~name:"progress = an array model, bit for bit" ~count:300
    gen (fun (thresholds, held0, before, after) ->
      let n = Array.length thresholds in
      let held = Array.copy held0 in
      let s = Array.make n 0.0 in
      let p =
        ref (Progress.create_per_task ~held:(Array.get held0) ~thresholds ())
      in
      let ok = ref true in
      let check () =
        let is_open i = (not held.(i)) && thresholds.(i) -. s.(i) > 0.0 in
        let open_tasks = List.filter is_open (List.init n Fun.id) in
        let max_rem =
          List.fold_left
            (fun m i -> Float.max m (thresholds.(i) -. s.(i)))
            0.0 open_tasks
        in
        let visited = ref [] in
        Progress.iter_incomplete !p (fun i -> visited := i :: !visited);
        ok :=
          !ok
          && Int64.equal
               (Int64.bits_of_float (Progress.max_remaining !p))
               (Int64.bits_of_float max_rem)
          && List.for_all
               (fun i -> Progress.is_open !p i = is_open i)
               (List.init n Fun.id)
          && Progress.incomplete_count !p = List.length open_tasks
          && Progress.all_complete !p
             = (open_tasks = [] && not (Array.exists Fun.id held))
          && List.rev !visited = open_tasks
      in
      let apply op =
        (match op with
        | `Record (task, score) when held.(task) ->
          ok :=
            !ok
            && (try
                  Progress.record !p ~task ~score;
                  false
                with Invalid_argument _ -> true)
        | `Record (task, score) ->
          Progress.record !p ~task ~score;
          s.(task) <- s.(task) +. score
        | `Release task ->
          Progress.release !p task;
          held.(task) <- false);
        check ()
      in
      check ();
      List.iter apply before;
      Array.iteri (fun task h -> if h then apply (`Release task)) held;
      p := Progress.of_snapshot (Progress.snapshot !p);
      check ();
      List.iter apply after;
      (* Then complete the model's largest task until none is open: every
         task reaches the root in turn, so a misplaced one shows. *)
      let rec drain () =
        let best = ref (-1) in
        for i = 0 to n - 1 do
          if
            thresholds.(i) -. s.(i) > 0.0
            && (!best < 0
               || thresholds.(i) -. s.(i) > thresholds.(!best) -. s.(!best))
          then best := i
        done;
        if !best >= 0 then begin
          apply (`Record (!best, thresholds.(!best)));
          drain ()
        end
      in
      drain ();
      !ok)

let test_progress_snapshot_non_finite () =
  let snap ?(thresholds = [| 1.0; 2.0 |]) ?(scores = [| 0.5; 0.0 |])
      ?(sum_remaining = 2.5) () =
    { Progress.thresholds; scores; sum_remaining }
  in
  let refused label message s =
    Alcotest.check_raises label (Invalid_argument message) (fun () ->
        ignore (Progress.of_snapshot s))
  in
  ignore (Progress.of_snapshot (snap ()));
  refused "NaN score" "Progress.of_snapshot: non-finite score"
    (snap ~scores:[| Float.nan; 0.0 |] ());
  refused "infinite score" "Progress.of_snapshot: non-finite score"
    (snap ~scores:[| 0.0; Float.infinity |] ());
  refused "NaN threshold" "Progress.of_snapshot: non-finite threshold"
    (snap ~thresholds:[| 1.0; Float.nan |] ());
  refused "infinite threshold" "Progress.of_snapshot: non-finite threshold"
    (snap ~thresholds:[| Float.infinity; 2.0 |] ());
  refused "NaN sum_remaining" "Progress.of_snapshot: non-finite sum_remaining"
    (snap ~sum_remaining:Float.nan ());
  (* The checks made before NaN was caught keep their priority, so a
     payload they already refused keeps its reason. *)
  refused "negative before NaN" "Progress.of_snapshot: negative score"
    (snap ~thresholds:[| Float.nan; 2.0 |] ~scores:[| 0.0; -1.0 |] ());
  refused "-inf is negative" "Progress.of_snapshot: negative score"
    (snap ~scores:[| Float.neg_infinity; 0.0 |] ())

(* ----------------------------------------------------------- Truth_infer *)

(* Planted one-coin model: sample answers, check EM recovers the setup. *)
let planted_observations ~seed ~n_workers ~n_tasks ~answers_per_worker =
  let rng = Ltc_util.Rng.create ~seed in
  let accuracies =
    Array.init n_workers (fun _ -> 0.65 +. Ltc_util.Rng.float rng 0.3)
  in
  let truths =
    Array.init n_tasks (fun _ ->
        if Ltc_util.Rng.bool rng then Task.Yes else Task.No)
  in
  let observations =
    List.concat
      (List.init n_workers (fun wi ->
           List.init answers_per_worker (fun _ ->
               let task = Ltc_util.Rng.int rng n_tasks in
               let correct = Ltc_util.Rng.bernoulli rng accuracies.(wi) in
               {
                 Truth_infer.worker = wi + 1;
                 task;
                 answer =
                   (if correct then truths.(task) else Task.negate truths.(task));
               })))
  in
  (accuracies, truths, observations)

let test_truth_infer_recovers_planted_model () =
  let n_workers = 40 and n_tasks = 60 in
  let accuracies, truths, observations =
    planted_observations ~seed:5 ~n_workers ~n_tasks ~answers_per_worker:60
  in
  let r = Truth_infer.run ~n_workers ~n_tasks observations in
  Alcotest.(check bool) "converged" true r.Truth_infer.converged;
  (* Accuracy estimates close to the planted values on average. *)
  let err = ref 0.0 in
  Array.iteri
    (fun wi p -> err := !err +. Float.abs (p -. accuracies.(wi)))
    r.Truth_infer.accuracies;
  let mean_err = !err /. float_of_int n_workers in
  Alcotest.(check bool)
    (Printf.sprintf "mean accuracy error %.3f < 0.05" mean_err)
    true (mean_err < 0.05);
  (* Inferred labels overwhelmingly correct. *)
  let correct = ref 0 and labelled = ref 0 in
  Array.iteri
    (fun task label ->
      match label with
      | None -> ()
      | Some l ->
        incr labelled;
        if Task.answer_equal l truths.(task) then incr correct)
    r.Truth_infer.labels;
  Alcotest.(check bool)
    (Printf.sprintf "labels %d/%d correct" !correct !labelled)
    true
    (float_of_int !correct /. float_of_int !labelled > 0.95)

let test_truth_infer_beats_majority () =
  (* With polarized worker quality, EM should label at least as well as
     unweighted majority. *)
  let n_workers = 30 and n_tasks = 80 in
  let _, truths, observations =
    planted_observations ~seed:8 ~n_workers ~n_tasks ~answers_per_worker:20
  in
  let score (r : Truth_infer.result) =
    let correct = ref 0 in
    Array.iteri
      (fun task label ->
        match label with
        | Some l when Task.answer_equal l truths.(task) -> incr correct
        | Some _ | None -> ())
      r.Truth_infer.labels;
    !correct
  in
  let em = Truth_infer.run ~n_workers ~n_tasks observations in
  let mv = Truth_infer.majority_baseline ~n_workers ~n_tasks observations in
  Alcotest.(check bool)
    (Printf.sprintf "EM %d >= majority %d" (score em) (score mv))
    true
    (score em >= score mv)

let test_truth_infer_empty_and_validation () =
  let r = Truth_infer.run ~n_workers:3 ~n_tasks:2 [] in
  Alcotest.(check bool) "prior accuracies" true
    (Array.for_all (fun p -> p = 0.75) r.Truth_infer.accuracies);
  Alcotest.(check bool) "no labels" true
    (Array.for_all (( = ) None) r.Truth_infer.labels);
  Alcotest.check_raises "bad worker"
    (Invalid_argument "Truth_infer: worker index out of range") (fun () ->
      ignore
        (Truth_infer.run ~n_workers:1 ~n_tasks:1
           [ { Truth_infer.worker = 2; task = 0; answer = Task.Yes } ]))

let test_truth_infer_accuracy_clamped () =
  (* A worker who always disagrees with everyone cannot fall below 0.51
     (the anchor that prevents label-flipped solutions). *)
  let observations =
    List.concat
      (List.init 10 (fun task ->
           [
             { Truth_infer.worker = 1; task; answer = Task.Yes };
             { Truth_infer.worker = 2; task; answer = Task.Yes };
             { Truth_infer.worker = 3; task; answer = Task.No };
           ]))
  in
  let r = Truth_infer.run ~n_workers:3 ~n_tasks:10 observations in
  Alcotest.(check (float 1e-9)) "contrarian clamped" 0.51
    r.Truth_infer.accuracies.(2);
  Alcotest.(check bool) "agreers near 0.99" true
    (r.Truth_infer.accuracies.(0) > 0.9)

(* Planted asymmetric (two-coin) answers. *)
let planted_two_coin ~seed ~n_workers ~n_tasks ~answers_per_worker =
  let rng = Ltc_util.Rng.create ~seed in
  let alphas = Array.init n_workers (fun _ -> 0.6 +. Ltc_util.Rng.float rng 0.35) in
  let betas = Array.init n_workers (fun _ -> 0.6 +. Ltc_util.Rng.float rng 0.35) in
  let truths =
    Array.init n_tasks (fun _ ->
        if Ltc_util.Rng.bool rng then Task.Yes else Task.No)
  in
  let observations =
    List.concat
      (List.init n_workers (fun wi ->
           List.init answers_per_worker (fun _ ->
               let task = Ltc_util.Rng.int rng n_tasks in
               let says_yes =
                 match truths.(task) with
                 | Task.Yes -> Ltc_util.Rng.bernoulli rng alphas.(wi)
                 | Task.No -> not (Ltc_util.Rng.bernoulli rng betas.(wi))
               in
               {
                 Truth_infer.worker = wi + 1;
                 task;
                 answer = (if says_yes then Task.Yes else Task.No);
               })))
  in
  (alphas, betas, truths, observations)

let test_two_coin_recovers_asymmetry () =
  let n_workers = 30 and n_tasks = 80 in
  let alphas, betas, truths, observations =
    planted_two_coin ~seed:13 ~n_workers ~n_tasks ~answers_per_worker:80
  in
  let r = Truth_infer.run_two_coin ~n_workers ~n_tasks observations in
  Alcotest.(check bool) "converged" true r.Truth_infer.tc_converged;
  let mean_err planted estimated =
    let total = ref 0.0 in
    Array.iteri
      (fun i p ->
        total :=
          !total +. Float.abs (Float.max 0.51 (Float.min 0.99 p) -. estimated.(i)))
      planted;
    !total /. float_of_int n_workers
  in
  Alcotest.(check bool) "sensitivity recovered" true
    (mean_err alphas r.Truth_infer.sensitivities < 0.06);
  Alcotest.(check bool) "specificity recovered" true
    (mean_err betas r.Truth_infer.specificities < 0.06);
  (* Labels nearly perfect with this much evidence. *)
  let correct = ref 0 in
  Array.iteri
    (fun task label ->
      match label with
      | Some l when Task.answer_equal l truths.(task) -> incr correct
      | Some _ | None -> ())
    r.Truth_infer.tc_labels;
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d labels" !correct n_tasks)
    true
    (float_of_int !correct /. float_of_int n_tasks > 0.95)

let test_two_coin_prevalence () =
  (* Strongly skewed truths should show in the estimated prevalence. *)
  let rng = Ltc_util.Rng.create ~seed:21 in
  let observations =
    List.concat
      (List.init 20 (fun wi ->
           List.init 40 (fun _ ->
               let task = Ltc_util.Rng.int rng 40 in
               (* All truths Yes; workers 85% accurate. *)
               let correct = Ltc_util.Rng.bernoulli rng 0.85 in
               {
                 Truth_infer.worker = wi + 1;
                 task;
                 answer = (if correct then Task.Yes else Task.No);
               })))
  in
  let r = Truth_infer.run_two_coin ~n_workers:20 ~n_tasks:40 observations in
  Alcotest.(check bool)
    (Printf.sprintf "prevalence %.2f > 0.8" r.Truth_infer.prevalence)
    true
    (r.Truth_infer.prevalence > 0.8)

let test_two_coin_balanced_accuracy () =
  let r = Truth_infer.run_two_coin ~n_workers:2 ~n_tasks:1 [] in
  Alcotest.(check (float 1e-9)) "balanced accuracy of priors" 0.75
    r.Truth_infer.tc_accuracies.(0)

(* ------------------------------------------------------------- Truth_sim *)

let test_truth_sim_respects_bound () =
  (* A task completed to delta must err at most epsilon (plus sampling
     noise; Hoeffding is loose, so the real error is far below). *)
  let epsilon = 0.2 in
  let tasks = [| Task.make ~id:0 ~loc:(point ~x:0.0 ~y:0.0) () |] in
  let workers =
    Array.init 8 (fun k ->
        Worker.make ~index:(k + 1) ~loc:(point ~x:0.5 ~y:0.0) ~accuracy:0.9
          ~capacity:1)
  in
  let i = Instance.create ~tasks ~workers ~epsilon () in
  let arrangement =
    Array.fold_left
      (fun m (w : Worker.t) -> Arrangement.add m ~worker:w.Worker.index ~task:0)
      Arrangement.empty workers
  in
  (* 8 workers x Acc* ~ 0.63 = 5.1 > delta = 3.22: completed. *)
  (match Arrangement.validate i arrangement with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "fixture must validate");
  let report =
    Truth_sim.run ~trials:2000 (Ltc_util.Rng.create ~seed:99) i arrangement
  in
  Alcotest.(check bool) "error below epsilon" true
    (report.Truth_sim.max_error <= epsilon);
  Alcotest.(check int) "votes" 8 report.Truth_sim.tasks.(0).Truth_sim.votes

let test_truth_sim_unassigned_task_errs () =
  let tasks = [| Task.make ~id:0 ~loc:(point ~x:0.0 ~y:0.0) () |] in
  let workers =
    [| Worker.make ~index:1 ~loc:(point ~x:0.0 ~y:0.0) ~accuracy:0.9 ~capacity:1 |]
  in
  let i = Instance.create ~tasks ~workers ~epsilon:0.2 () in
  let report =
    Truth_sim.run ~trials:50 (Ltc_util.Rng.create ~seed:1) i Arrangement.empty
  in
  check_float "error rate 1" 1.0 report.Truth_sim.tasks.(0).Truth_sim.error_rate

(* Error rates recorded before the simulation decided with
   [Quality.majority]: each of the first 60 arrivals of a seeded instance
   votes on up to its capacity of candidate tasks in ascending id order,
   and two equal voters tie on one task whenever they disagree.  A change
   to the vote, its tie rule or the order of the draws moves them. *)
let test_truth_sim_pins () =
  let i = Fixtures.small_random ~seed:8 ~n_workers:60 () in
  let arrangement = ref Arrangement.empty in
  Array.iter
    (fun (w : Worker.t) ->
      let n = ref 0 in
      Instance.iter_candidates_sorted i w (fun task ->
          if !n < w.Worker.capacity then begin
            incr n;
            arrangement :=
              Arrangement.add !arrangement ~worker:w.Worker.index ~task
          end))
    i.Instance.workers;
  let r =
    Truth_sim.run ~trials:200 (Ltc_util.Rng.create ~seed:17) i !arrangement
  in
  let field f = Array.to_list (Array.map f r.Truth_sim.tasks) in
  Alcotest.(check (list int)) "votes"
    [ 25; 37; 26; 8; 3; 16; 2; 9; 1; 6; 2; 8 ]
    (field (fun t -> t.Truth_sim.votes));
  Alcotest.(check (list (float 0.0))) "error rates"
    [ 0.0; 0.0; 0.0; 0.01; 0.035; 0.0; 0.08; 0.015; 0.22; 0.025; 0.155; 0.0 ]
    (field (fun t -> t.Truth_sim.error_rate));
  Alcotest.(check (float 0.0))
    "mean" 0x1.70a3d70a3d70bp-5 r.Truth_sim.mean_error;
  Alcotest.(check (float 0.0)) "max" 0x1.c28f5c28f5c29p-3 r.Truth_sim.max_error;
  let tasks = [| Task.make ~id:0 ~loc:(point ~x:0.0 ~y:0.0) () |] in
  let workers =
    Array.init 2 (fun k ->
        Worker.make ~index:(k + 1) ~loc:(point ~x:0.5 ~y:0.0) ~accuracy:0.8
          ~capacity:1)
  in
  let i = Instance.create ~tasks ~workers ~epsilon:0.2 () in
  let pair =
    Arrangement.(empty |> add ~worker:1 ~task:0 |> add ~worker:2 ~task:0)
  in
  let r = Truth_sim.run ~trials:200 (Ltc_util.Rng.create ~seed:17) i pair in
  Alcotest.(check (float 0.0)) "ties err" 0.34
    r.Truth_sim.tasks.(0).Truth_sim.error_rate

(* -------------------------------------------------------------- Analysis *)

let analysis_fixture () =
  let tasks =
    [| Task.make ~id:0 ~loc:(point ~x:0.0 ~y:0.0) ();
       Task.make ~id:1 ~loc:(point ~x:4.0 ~y:0.0) () |]
  in
  let workers =
    (* 6 workers x Acc* ~ 0.64 = 3.8 > delta(0.2) = 3.22: completable. *)
    Array.init 6 (fun k ->
        Worker.make ~index:(k + 1)
          ~loc:(point ~x:(float_of_int k) ~y:3.0)
          ~accuracy:0.9 ~capacity:2)
  in
  Instance.create ~tasks ~workers ~epsilon:0.2 ()

let test_analysis_counts () =
  let i = analysis_fixture () in
  let a =
    Arrangement.empty
    |> Arrangement.add ~worker:1 ~task:0
    |> Arrangement.add ~worker:1 ~task:1
    |> Arrangement.add ~worker:3 ~task:0
  in
  let r = Analysis.of_arrangement i a in
  Alcotest.(check int) "assignments" 3 r.Analysis.assignments;
  Alcotest.(check int) "workers used" 2 r.Analysis.workers_used;
  Alcotest.(check int) "latency" 3 r.Analysis.latency;
  Alcotest.(check int) "load max" 2 r.Analysis.load_max;
  check_float "load mean" 1.5 r.Analysis.load_mean;
  Alcotest.(check int) "votes min" 1 r.Analysis.votes_min;
  Alcotest.(check int) "votes max" 2 r.Analysis.votes_max;
  check_float "votes mean" 1.5 r.Analysis.votes_mean

let test_analysis_gini () =
  let i = analysis_fixture () in
  (* Perfectly even load: gini 0. *)
  let even =
    Arrangement.empty
    |> Arrangement.add ~worker:1 ~task:0
    |> Arrangement.add ~worker:2 ~task:1
  in
  let r = Analysis.of_arrangement i even in
  check_float "gini 0 on even load" 0.0 r.Analysis.load_gini;
  (* Uneven: 2 tasks on w1, none elsewhere => gini still 0 over recruited
     workers only (single recruited worker). *)
  let solo =
    Arrangement.empty
    |> Arrangement.add ~worker:1 ~task:0
    |> Arrangement.add ~worker:1 ~task:1
  in
  let r = Analysis.of_arrangement i solo in
  check_float "gini single worker" 0.0 r.Analysis.load_gini

let test_analysis_margin_and_bound () =
  let i = analysis_fixture () in
  let a =
    Array.fold_left
      (fun m (w : Worker.t) ->
        Arrangement.add (Arrangement.add m ~worker:w.index ~task:0) ~worker:w.index
          ~task:1)
      Arrangement.empty i.Instance.workers
  in
  let r = Analysis.of_arrangement i a in
  Alcotest.(check bool) "positive margin once complete" true
    (r.Analysis.margin_min > 0.0);
  Alcotest.(check bool) "error bound below epsilon" true
    (r.Analysis.error_bound_worst < 0.2);
  Alcotest.(check bool) "travel max is finite" true
    (r.Analysis.travel_max > 0.0 && r.Analysis.travel_max < 10.0)

let test_analysis_empty () =
  let i = analysis_fixture () in
  let r = Analysis.of_arrangement i Arrangement.empty in
  Alcotest.(check int) "no assignments" 0 r.Analysis.assignments;
  check_float "worst bound is 1 (no votes)" 1.0 r.Analysis.error_bound_worst

(* ------------------------------------------------------------- Serialize *)

let test_serialize_roundtrip () =
  let spec =
    {
      Ltc_workload.Spec.default_synthetic with
      Ltc_workload.Spec.n_tasks = 15;
      n_workers = 60;
      world_side = 100.0;
    }
  in
  let i = Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed:9) spec in
  let s = Serialize.instance_to_string i in
  let j = Serialize.instance_of_string s in
  Alcotest.(check bool) "tasks preserved" true (i.Instance.tasks = j.Instance.tasks);
  Alcotest.(check bool) "workers preserved" true
    (i.Instance.workers = j.Instance.workers);
  Alcotest.(check (float 0.0)) "epsilon preserved" i.Instance.epsilon
    j.Instance.epsilon;
  Alcotest.(check bool) "radius preserved" true
    (i.Instance.candidate_radius = j.Instance.candidate_radius)

let test_serialize_per_task_epsilon () =
  let tasks =
    [| Task.make ~id:0 ~loc:(point ~x:1.0 ~y:2.0) ();
       Task.make ~epsilon:0.03 ~id:1 ~loc:(point ~x:3.0 ~y:4.0) () |]
  in
  let workers =
    [| Worker.make ~index:1 ~loc:(point ~x:1.0 ~y:2.0) ~accuracy:0.8 ~capacity:3 |]
  in
  let i = Instance.create ~tasks ~workers ~epsilon:0.2 () in
  let j = Serialize.instance_of_string (Serialize.instance_to_string i) in
  Alcotest.(check bool) "per-task epsilon survives" true
    (j.Instance.tasks.(1).Task.epsilon = Some 0.03);
  Alcotest.(check bool) "default task epsilon survives" true
    (j.Instance.tasks.(0).Task.epsilon = None)

let test_serialize_file_roundtrip () =
  let i = analysis_fixture () in
  let path = Filename.temp_file "ltc_test" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save_instance ~path i;
      let j = Serialize.load_instance ~path in
      Alcotest.(check bool) "file roundtrip" true
        (i.Instance.tasks = j.Instance.tasks
        && i.Instance.workers = j.Instance.workers))

let test_serialize_arrangement_roundtrip () =
  let a =
    Arrangement.empty
    |> Arrangement.add ~worker:2 ~task:0
    |> Arrangement.add ~worker:5 ~task:3
  in
  let path = Filename.temp_file "ltc_test" ".arr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save_arrangement ~path a;
      let b = Serialize.load_arrangement ~path in
      Alcotest.(check bool) "same assignments" true
        (Arrangement.to_list a = Arrangement.to_list b);
      Alcotest.(check int) "same latency" (Arrangement.latency a)
        (Arrangement.latency b))

let test_serialize_rejects_custom_model () =
  let i =
    Instance.create
      ~accuracy:(Accuracy.Custom { name = "m"; f = (fun _ _ -> 0.9) })
      ~tasks:[| Task.make ~id:0 ~loc:(point ~x:0.0 ~y:0.0) () |]
      ~workers:[||] ~epsilon:0.1 ()
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Serialize.instance_to_string i);
       false
     with Invalid_argument _ -> true)

let test_serialize_parse_errors () =
  let bad header =
    try
      ignore (Serialize.instance_of_string header);
      false
    with Serialize.Parse_error _ -> true
  in
  Alcotest.(check bool) "bad magic" true (bad "nonsense v9\n");
  Alcotest.(check bool) "truncated" true (bad "ltc-instance v1\nepsilon 0.1\n");
  Alcotest.(check bool) "bad float" true
    (bad "ltc-instance v1\nepsilon fish\n")

(* [float_of_string] reads "nan" and "inf"; no float in an instance file
   may be either, and the refusal names the line like any malformed
   field. *)
let test_serialize_non_finite () =
  let text = Serialize.instance_to_string (analysis_fixture ()) in
  let lines = String.split_on_char '\n' text in
  let replace prefix field value =
    String.concat "\n"
      (List.map
         (fun l ->
           if String.starts_with ~prefix l then
             String.concat " "
               (List.mapi
                  (fun i f -> if i = field then value else f)
                  (String.split_on_char ' ' l))
           else l)
         lines)
  in
  let line_of prefix =
    let rec go i = function
      | [] -> Alcotest.failf "no line starts with %S" prefix
      | l :: rest -> if String.starts_with ~prefix l then i else go (i + 1) rest
    in
    go 1 lines
  in
  List.iter
    (fun (prefix, field, value) ->
      match Serialize.instance_of_string (replace prefix field value) with
      | (_ : Instance.t) -> Alcotest.failf "%s%s accepted" prefix value
      | exception Serialize.Parse_error { line; message } ->
        Alcotest.(check int) (prefix ^ value ^ ": line") (line_of prefix) line;
        Alcotest.(check string)
          (prefix ^ value ^ ": message")
          (Printf.sprintf "expected a finite float, got %S" value)
          message)
    [
      ("epsilon ", 1, "nan");
      ("accuracy sigmoid ", 2, "inf");
      ("radius ", 1, "nan");
      ("t 0 ", 2, "nan");
      ("t 1 ", 3, "-inf");
    ]

(* A record count is checked before it is trusted: a negative one is a
   parse error naming its line, and one the records do not back fails at
   the first line that is not a record, having allocated for the records
   read rather than for the count. *)
let test_serialize_counts () =
  let head = "ltc-instance v1\nepsilon 0.1\naccuracy historical\n\
              scoring hoeffding\nradius none\n"
  in
  let refused what parse text ~line ~message =
    match parse text with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Serialize.Parse_error { line = l; message = m } ->
      Alcotest.(check (pair int string)) what (line, message) (l, m)
  in
  let instance s = ignore (Serialize.instance_of_string s) in
  refused "negative task count" instance (head ^ "tasks -1\n") ~line:6
    ~message:"expected a count >= 0, got -1";
  refused "negative worker count" instance
    (head ^ "tasks 1\nt 0 1 2\nworkers -2\n")
    ~line:8 ~message:"expected a count >= 0, got -2";
  refused "negative assignment count"
    (fun s -> ignore (Serialize.arrangement_of_string s))
    "ltc-arrangement v1\nassignments -5\n" ~line:2
    ~message:"expected a count >= 0, got -5";
  refused "negative progress count"
    (fun s -> ignore (Serialize.progress_of_string s))
    "ltc-progress v1\ntasks -3\nsum_remaining 0\n" ~line:2
    ~message:"expected a count >= 0, got -3";
  let inflated =
    head ^ "tasks 10000000\nt 0 1 1\nt 1 2 2\nt 2 3 3\nworkers 0\n"
  in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  refused "inflated task count" instance inflated ~line:10
    ~message:"expected a task line";
  Gc.minor ();
  let allocated = Gc.allocated_bytes () -. before in
  if allocated >= 1e6 then
    Alcotest.failf "an inflated count allocated %.0f bytes" allocated

let test_serialize_comments_and_blanks () =
  let i = analysis_fixture () in
  let s = Serialize.instance_to_string i in
  (* Inject comments and blank lines everywhere; the parser must cope. *)
  let noisy =
    String.concat "\n"
      (List.concat_map
         (fun l -> [ ""; "# comment"; l ^ "   # trailing" ])
         (String.split_on_char '\n' s))
  in
  let j = Serialize.instance_of_string noisy in
  Alcotest.(check bool) "noisy parse" true (i.Instance.tasks = j.Instance.tasks)

(* ------------------------------------------------------------------- Svg *)

let test_svg_renders_elements () =
  let i = analysis_fixture () in
  let arrangement =
    Arrangement.empty
    |> Arrangement.add ~worker:1 ~task:0
    |> Arrangement.add ~worker:2 ~task:0
  in
  let svg = Svg.render ~arrangement i in
  let count affix =
    let n = ref 0 in
    let len = String.length affix in
    for k = 0 to String.length svg - len do
      if String.sub svg k len = affix then incr n
    done;
    !n
  in
  Alcotest.(check bool) "well-formed envelope" true
    (Astring.String.is_prefix ~affix:"<?xml" svg
    && Astring.String.is_suffix ~affix:"</svg>\n" svg);
  (* 2 halos + 6 workers + 2 tasks = 10 circles; 2 assignment lines. *)
  Alcotest.(check int) "circles" 10 (count "<circle");
  Alcotest.(check int) "assignment lines" 2 (count "<line");
  (* One incomplete (red) and no completed tasks at this score level... the
     two assignments give task 0 ~1.3 < delta: both tasks red. *)
  Alcotest.(check int) "incomplete tasks red" 2 (count "#d0342c")

let test_svg_without_arrangement () =
  let i = analysis_fixture () in
  let svg = Svg.render i in
  Alcotest.(check bool) "neutral task colour" true
    (Astring.String.is_infix ~affix:"r=\"4\" fill=\"#4a90d9\"" svg);
  Alcotest.(check bool) "no lines" false
    (Astring.String.is_infix ~affix:"<line" svg)

let test_svg_save () =
  let i = analysis_fixture () in
  let path = Filename.temp_file "ltc_test" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Svg.save ~path i;
      let ic = open_in path in
      let first = input_line ic in
      close_in ic;
      Alcotest.(check bool) "xml header" true
        (Astring.String.is_prefix ~affix:"<?xml" first))

(* --------------------------------------------------- qcheck: core layer *)

let small_instance_gen =
  QCheck2.Gen.(
    let* n_tasks = int_range 1 30 in
    let* n_workers = int_range 0 60 in
    let* capacity = int_range 1 5 in
    let* epsilon_centi = int_range 5 40 in
    let* seed = int_range 0 100_000 in
    return (n_tasks, n_workers, capacity, float_of_int epsilon_centi /. 100.0, seed))

let generate_small (n_tasks, n_workers, capacity, epsilon, seed) =
  let spec =
    {
      Ltc_workload.Spec.default_synthetic with
      Ltc_workload.Spec.n_tasks;
      n_workers;
      capacity;
      epsilon;
      world_side = 150.0;
    }
  in
  Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed) spec

let prop_serialize_rejects_garbage_without_crashing =
  (* Random mutations of a valid file must either parse or raise
     Parse_error — never crash with anything else. *)
  QCheck2.Test.make ~name:"parser total on mutated input" ~count:200
    QCheck2.Gen.(
      triple (int_range 0 100_000) (int_range 0 5000) (int_range 0 255))
    (fun (seed, pos, byte) ->
      let i =
        generate_small (3, 10, 2, 0.2, seed)
      in
      let s = Bytes.of_string (Serialize.instance_to_string i) in
      if Bytes.length s = 0 then true
      else begin
        Bytes.set s (pos mod Bytes.length s) (Char.chr byte);
        match Serialize.instance_of_string (Bytes.to_string s) with
        | (_ : Instance.t) -> true
        | exception Serialize.Parse_error _ -> true
        | exception Invalid_argument _ ->
          (* mutations can corrupt numeric fields into out-of-domain values
             caught by the constructors — also acceptable *)
          true
      end)

let prop_serialize_roundtrip =
  QCheck2.Test.make ~name:"serialize/parse is the identity" ~count:100
    small_instance_gen
    (fun params ->
      let i = generate_small params in
      let j = Serialize.instance_of_string (Serialize.instance_to_string i) in
      i.Instance.tasks = j.Instance.tasks
      && i.Instance.workers = j.Instance.workers
      && i.Instance.epsilon = j.Instance.epsilon
      && i.Instance.candidate_radius = j.Instance.candidate_radius
      && i.Instance.scoring = j.Instance.scoring)

(* State blocks (progress / arrangement) must round-trip exactly — a
   restored session's correctness rests on parse being a left inverse of
   emit for each of them, bit-for-bit on floats. *)

(* The progress block of an old text journal's snapshot, rendered as its
   writer did: nothing in the library writes one any more, so this is
   the oracle for the importer's parser. *)
let progress_block p =
  let snap = Progress.snapshot p in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "ltc-progress v1\ntasks %d\nsum_remaining %.17g\n"
    (Array.length snap.Progress.thresholds)
    snap.Progress.sum_remaining;
  Array.iteri
    (fun task threshold ->
      Printf.bprintf buf "p %.17g %.17g\n" threshold
        snap.Progress.scores.(task))
    snap.Progress.thresholds;
  Buffer.contents buf

let prop_progress_roundtrip =
  QCheck2.Test.make ~name:"progress state round-trips exactly" ~count:200
    QCheck2.Gen.(
      let* n_tasks = int_range 1 20 in
      let* records = list_size (int_range 0 60) (pair (int_range 0 100) (int_range 1 500)) in
      let* complete_all = bool in
      return (n_tasks, records, complete_all))
    (fun (n_tasks, records, complete_all) ->
      let thresholds =
        Array.init n_tasks (fun t -> 1.0 +. (float_of_int t /. 7.0))
      in
      let p = Progress.create_per_task ~thresholds () in
      List.iter
        (fun (task, centi) ->
          Progress.record p ~task:(task mod n_tasks)
            ~score:(float_of_int centi /. 100.0))
        records;
      if complete_all then
        (* all-tasks-complete edge: sum_remaining pinned at 0 *)
        for task = 0 to n_tasks - 1 do
          Progress.record p ~task ~score:10.0
        done;
      let q = Serialize.progress_of_string (progress_block p) in
      let sp = Progress.snapshot p and sq = Progress.snapshot q in
      sp.Progress.thresholds = sq.Progress.thresholds
      && sp.Progress.scores = sq.Progress.scores
      && sp.Progress.sum_remaining = sq.Progress.sum_remaining
      && Progress.all_complete p = Progress.all_complete q
      && (not complete_all || Progress.all_complete q))

let prop_arrangement_roundtrip =
  QCheck2.Test.make ~name:"arrangement round-trips exactly (incl. empty)"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 80) (pair (int_range 1 50) (int_range 0 30)))
    (fun pairs ->
      (* duplicates collapse on add, so compare via to_list *)
      let a =
        List.fold_left
          (fun a (worker, task) -> Arrangement.add a ~worker ~task)
          Arrangement.empty pairs
      in
      let b = Serialize.arrangement_of_string (Serialize.arrangement_to_string a) in
      Arrangement.to_list a = Arrangement.to_list b
      && Arrangement.latency a = Arrangement.latency b
      && Arrangement.size a = Arrangement.size b)

let prop_analysis_invariants =
  QCheck2.Test.make ~name:"analysis invariants on random arrangements"
    ~count:100
    QCheck2.Gen.(pair small_instance_gen (int_range 0 100_000))
    (fun (params, aseed) ->
      let i = generate_small params in
      if Instance.worker_count i = 0 then true
      else begin
        (* Random (possibly invalid) arrangement built from candidates. *)
        let rng = Ltc_util.Rng.create ~seed:aseed in
        let arrangement = ref Arrangement.empty in
        Array.iter
          (fun (w : Worker.t) ->
            if Ltc_util.Rng.bool rng then
              List.iteri
                (fun k task ->
                  if k < w.capacity && Ltc_util.Rng.bool rng then
                    arrangement := Arrangement.add !arrangement ~worker:w.index ~task)
                (sorted_candidates i w))
          i.Instance.workers;
        let r = Analysis.of_arrangement i !arrangement in
        let n_assign = Arrangement.size !arrangement in
        r.Analysis.assignments = n_assign
        && r.Analysis.load_gini >= 0.0
        && r.Analysis.load_gini <= 1.0
        && r.Analysis.workers_used <= n_assign
        && r.Analysis.latency = Arrangement.latency !arrangement
        && r.Analysis.error_bound_worst >= 0.0
        && r.Analysis.error_bound_worst <= 1.0
        && (n_assign = 0 || r.Analysis.travel_max <= 30.0 +. 1e-9)
      end)

(* Tasks anywhere in a 100 x 100 square, workers either anywhere or on a
   task, and a radius that is absent, tiny (far more radius-sized cells
   than the grid's cell budget allows), ordinary, or wider than the
   world. *)
let sorted_query_gen =
  QCheck2.Gen.(
    let point = pair (float_range 0.0 100.0) (float_range 0.0 100.0) in
    let* tasks = list_size (int_range 0 40) point in
    let* workers =
      list_size (int_range 1 6)
        (oneof [ map (fun p -> `At p) point; map (fun k -> `On k) nat ])
    in
    let* radius =
      oneof
        [
          return None;
          return (Some 1e-4);
          map Option.some (float_range 0.5 50.0);
          return (Some 500.0);
        ]
    in
    return (tasks, workers, radius))

let prop_sorted_candidates =
  QCheck2.Test.make ~name:"sorted candidates = brute-force filter" ~count:300
    sorted_query_gen
    (fun (points, picks, radius) ->
      let loc (x, y) = Ltc_geo.Point.make ~x ~y in
      let tasks =
        Array.of_list
          (List.mapi (fun id p -> Task.make ~id ~loc:(loc p) ()) points)
      in
      let n = Array.length tasks in
      let workers =
        Array.of_list
          (List.mapi
             (fun k pick ->
               let at =
                 match pick with
                 | `On j when n > 0 -> tasks.(j mod n).Task.loc
                 | `On _ -> loc (0.0, 0.0)
                 | `At p -> loc p
               in
               Worker.make ~index:(k + 1) ~loc:at ~accuracy:0.9 ~capacity:2)
             picks)
      in
      let i =
        Instance.create ~candidate_radius:radius ~tasks ~workers ~epsilon:0.1
          ()
      in
      let brute (w : Worker.t) =
        List.filter
          (fun task ->
            match radius with
            | None -> true
            | Some r ->
              Ltc_geo.Point.distance_sq w.loc tasks.(task).Task.loc <= r *. r)
          (List.init n Fun.id)
      in
      Array.for_all
        (fun w ->
          let want = brute w in
          (* Every hit queries every worker again, so the outer run must
             survive nested fills of the same scratch. *)
          let outer = ref [] and nested_ok = ref true in
          Instance.iter_candidates_sorted i w (fun task ->
              outer := task :: !outer;
              Array.iter
                (fun w' ->
                  if sorted_candidates i w' <> brute w' then nested_ok := false)
                workers);
          let unsorted = ref [] in
          Instance.iter_candidates i w (fun task -> unsorted := task :: !unsorted);
          List.rev !outer = want && !nested_ok
          && List.sort compare !unsorted = want)
        workers)

let prop_progress_threshold_per_task =
  QCheck2.Test.make ~name:"per-task thresholds drive completion" ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 6) (pair (float_range 0.5 3.0) (float_range 0.0 4.0)))
    (fun spec ->
      let thresholds = Array.of_list (List.map fst spec) in
      let p = Progress.create_per_task ~thresholds () in
      List.iteri
        (fun task (_, score) -> Progress.record p ~task ~score)
        spec;
      List.for_all
        (fun (task, (threshold, score)) ->
          Progress.is_complete p task = (score >= threshold))
        (List.mapi (fun i x -> (i, x)) spec))

(* --------------------------------------------- qcheck: binary codec *)

module B = Serialize.Binary
module Oracle = Journal_oracle

(* Arbitrary byte strings (the stock string gen skews printable). *)
let bytes_gen =
  QCheck2.Gen.(
    map
      (fun l ->
        let a = Array.of_list l in
        String.init (Array.length a) (fun i -> Char.chr a.(i)))
      (list_size (int_range 0 400) (int_range 0 255)))

(* Whole-string decoders. *)
let record_of payload =
  B.record_of_payload payload ~pos:0 ~len:(String.length payload)

let check_of payload =
  B.check_payload payload ~pos:0 ~len:(String.length payload)

(* The payload of the one record framed into [buf]. *)
let framed_payload buf =
  let s = B.contents buf in
  match B.frame_at s 0 with
  | B.Frame len when 8 + len = String.length s -> Some (String.sub s 8 len)
  | B.Frame _ | B.Eof | B.Torn | B.Invalid _ -> None

let test_crc32_vectors () =
  (* The IEEE 802.3 check value, plus the empty-string fixed point. *)
  Alcotest.(check int32) "check value" 0xCBF43926l (B.crc32 "123456789");
  Alcotest.(check int32) "empty" 0l (B.crc32 "")

let prop_crc32_matches_bitwise_reference =
  (* The sliced-by-8 table implementation against the from-the-definition
     bitwise fold, over arbitrary bytes and lengths (covering every
     remainder-loop tail length). *)
  QCheck2.Test.make ~name:"crc32 matches the bitwise definition" ~count:300
    bytes_gen
    (fun s -> B.crc32 s = Oracle.crc32 s)

let prop_varint_roundtrip =
  QCheck2.Test.make ~name:"varint round-trips any non-negative int"
    ~count:300
    QCheck2.Gen.(
      oneof
        [ int_range 0 300; map (fun n -> n land max_int) int ])
    (fun n ->
      let buf = B.buffer () in
      B.add_varint buf n;
      let c = B.cursor (B.contents buf) in
      B.varint c = n && B.at_end c)

let prop_scalar_roundtrip =
  QCheck2.Test.make ~name:"f64/i64 round-trip bit-exactly" ~count:300
    QCheck2.Gen.(pair float int)
    (fun (f, n) ->
      let buf = B.buffer () in
      B.add_f64 buf f;
      B.add_i64 buf (Int64.of_int n);
      let c = B.cursor (B.contents buf) in
      let f' = B.f64 c in
      let n' = B.i64 c in
      (* NaN-proof: compare the payload bits, not the floats. *)
      Int64.bits_of_float f' = Int64.bits_of_float f
      && n' = Int64.of_int n
      && B.at_end c)

let event_gen =
  QCheck2.Gen.(
    let* index = int_range 1 5000 in
    let* x = float_range (-300.0) 300.0 in
    let* y = float_range (-300.0) 300.0 in
    let* accuracy = float_range 0.0 1.0 in
    let* capacity = int_range 1 6 in
    let* degraded = bool in
    let* assigned = list_size (int_range 0 8) (int_range 0 500) in
    let* answered = list_size (int_range 0 8) (int_range 0 500) in
    return
      {
        B.e_worker =
          Worker.make ~index
            ~loc:(Ltc_geo.Point.make ~x ~y)
            ~accuracy ~capacity;
        e_degraded = degraded;
        e_assigned = assigned;
        e_answered = answered;
      })

let prop_event_record_roundtrip =
  QCheck2.Test.make ~name:"event record round-trips through the frame"
    ~count:300 event_gen
    (fun e ->
      let buf = B.buffer () in
      B.add_record buf (B.Event e);
      match Option.map record_of (framed_payload buf) with
      | Some (B.Event e') ->
        e'.B.e_worker = e.B.e_worker
        && e'.B.e_degraded = e.B.e_degraded
        && e'.B.e_assigned = e.B.e_assigned
        && e'.B.e_answered = e.B.e_answered
      | Some (B.Snapshot _) | None -> false)

let snapshot_gen =
  QCheck2.Gen.(
    let* spec =
      list_size (int_range 1 20) (pair (float_range 0.5 3.0) (float_range 0.0 4.0))
    in
    let* consumed = int_range 0 10_000 in
    let* policy = map Int64.of_int int in
    let* noshow = map Int64.of_int int in
    (* [None]: a partial snapshot, without the arrangement section. *)
    let* assignments =
      opt (list_size (int_range 0 40) (pair (int_range 1 60) (int_range 0 19)))
    in
    return (spec, consumed, policy, noshow, assignments))

let arrangement_of =
  Option.map
    (List.fold_left
       (fun a (worker, task) -> Arrangement.add a ~worker ~task)
       Arrangement.empty)

let snapshot_of_gen (spec, consumed, policy, noshow, assignments) =
  let thresholds = Array.of_list (List.map fst spec) in
  let p = Progress.create_per_task ~thresholds () in
  List.iteri (fun task (_, score) -> Progress.record p ~task ~score) spec;
  {
    B.s_consumed = consumed;
    s_policy = policy;
    s_noshow = noshow;
    s_progress = p;
    s_arrangement = arrangement_of assignments;
  }

let prop_snapshot_record_roundtrip =
  QCheck2.Test.make ~name:"snapshot record round-trips through the frame"
    ~count:200 snapshot_gen
    (fun gen ->
      let s = snapshot_of_gen gen in
      let buf = B.buffer () in
      B.add_record buf (B.Snapshot s);
      match framed_payload buf with
      | None -> false
      | Some payload -> (
        match record_of payload with
        | B.Snapshot s' ->
          s'.B.s_consumed = s.B.s_consumed
          && s'.B.s_policy = s.B.s_policy
          && s'.B.s_noshow = s.B.s_noshow
          && Progress.snapshot s'.B.s_progress
             = Progress.snapshot s.B.s_progress
          && Option.map Arrangement.to_list s'.B.s_arrangement
             = Option.map Arrangement.to_list s.B.s_arrangement
          && (payload.[0] = 'S') = Option.is_some s.B.s_arrangement
        | B.Event _ -> false))

(* Integers on each side of every 7-bit varint boundary, up to the
   largest, with small ones mixed in. *)
let varint_gen =
  QCheck2.Gen.(
    oneof
      [
        int_range 0 300;
        oneofl
          (max_int
          :: List.concat_map
               (fun k -> [ (1 lsl (7 * k)) - 1; 1 lsl (7 * k) ])
               [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
      ])

(* Records the encoder never sees from a session: varints at every
   boundary, empty and long lists, any float bits (a literal worker:
   [Worker.make] would refuse most of them). *)
let wide_event_gen =
  QCheck2.Gen.(
    let positive = map (fun n -> max 1 n) varint_gen in
    let length = oneof [ return 0; int_range 1 4; int_range 120 300 ] in
    let list = list_size length varint_gen in
    let* index = positive in
    let* capacity = positive in
    let* x = float and* y = float and* accuracy = float in
    let* degraded = bool in
    let* assigned = list and* answered = list in
    return
      (B.Event
         {
           B.e_worker = { Worker.index; loc = point ~x ~y; accuracy; capacity };
           e_degraded = degraded;
           e_assigned = assigned;
           e_answered = answered;
         }))

let wide_snapshot_gen =
  QCheck2.Gen.(
    let* base = snapshot_gen in
    let* wide = opt (list_size (int_range 0 60) (pair varint_gen varint_gen)) in
    let s = snapshot_of_gen base in
    (* A full snapshot's arrangement, widened; a partial one stays. *)
    return
      (B.Snapshot
         (match (wide, s.B.s_arrangement) with
         | Some pairs, Some _ ->
           { s with B.s_arrangement = arrangement_of (Some pairs) }
         | _ -> s)))

(* One frame buffer, reused and cleared between cases as a journal
   reuses its group buffer, so growth and reuse are both exercised. *)
let shared_buffer = B.buffer ()

let prop_frame_buffer_matches_oracle =
  QCheck2.Test.make ~name:"frame buffer writes the oracle's bytes" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 6) (oneof [ wide_event_gen; wide_snapshot_gen ]))
    (fun records ->
      B.clear shared_buffer;
      let oracle = Buffer.create 1024 in
      List.iter
        (fun r ->
          B.add_record shared_buffer r;
          Oracle.add_record_frame oracle r)
        records;
      B.contents shared_buffer = Buffer.contents oracle)

(* A record that fails to encode leaves the buffer as it was. *)
let test_failed_record_leaves_buffer () =
  let buf = B.buffer () in
  let ok =
    B.Event
      {
        B.e_worker =
          Worker.make ~index:1 ~loc:(point ~x:1.0 ~y:2.0) ~accuracy:0.9
            ~capacity:2;
        e_degraded = false;
        e_assigned = [ 3 ];
        e_answered = [ 3 ];
      }
  in
  B.add_record buf ok;
  let before = B.contents buf in
  (match ok with
  | B.Event e ->
    Alcotest.check_raises "negative task"
      (Invalid_argument "Serialize.Binary.add_varint: negative") (fun () ->
        B.add_record buf (B.Event { e with B.e_answered = [ 3; -1 ] }))
  | B.Snapshot _ -> assert false);
  Alcotest.(check string) "buffer unchanged" before (B.contents buf)

(* The decoder's two modes are one grammar: on any payload, intact or
   damaged, [check_payload] refuses exactly when [record_of_payload] does,
   with the same message, and otherwise names the record's kind.  The
   payload is also decoded as a window inside other bytes, as restore
   reads it inside a journal body: the window's bounds, not the string's,
   decide every length check and the trailing-byte count. *)
let prop_check_payload_agrees =
  let outcome f =
    match f () with
    | v -> Ok v
    | exception Serialize.Parse_error { message; _ } -> Error message
  in
  let kind_of = function
    | B.Event _ -> B.Event_record
    | B.Snapshot { B.s_arrangement = Some _; _ } -> B.Snapshot_record
    | B.Snapshot _ -> B.Partial_record
  in
  QCheck2.Test.make ~name:"check_payload agrees with record_of_payload"
    ~count:500
    QCheck2.Gen.(
      let* record =
        oneof
          [
            map (fun e -> B.Event e) event_gen;
            map (fun g -> B.Snapshot (snapshot_of_gen g)) snapshot_gen;
          ]
      in
      let* damage = int_range 0 3 in
      let* at = nat in
      let* byte = int_range 0 255 in
      let* before = bytes_gen and* after = bytes_gen in
      return (record, damage, at, byte, before, after))
    (fun (record, damage, at, byte, before, after) ->
      let payload = Oracle.payload record in
      let len = String.length payload in
      let payload =
        match damage with
        | 0 -> payload
        | 1 ->
          String.mapi
            (fun i c -> if i = at mod len then Char.chr byte else c)
            payload
        | 2 -> String.sub payload 0 (at mod len)
        | _ -> payload ^ String.make 1 (Char.chr byte)
      in
      let padded = before ^ payload ^ after in
      let pos = String.length before and len = String.length payload in
      let built = outcome (fun () -> record_of payload) in
      let in_window =
        outcome (fun () -> B.record_of_payload padded ~pos ~len)
      in
      let checked = outcome (fun () -> B.check_payload padded ~pos ~len) in
      (match (built, in_window) with
      | Ok r, Ok r' -> Oracle.payload r = Oracle.payload r'
      | Error a, Error b -> a = b
      | Ok _, Error _ | Error _, Ok _ -> false)
      &&
      match (built, checked) with
      | Ok r, Ok kind -> kind_of r = kind
      | Error a, Error b -> a = b
      | Ok _, Error _ | Error _, Ok _ -> false)

(* NaN and infinities in a CRC-valid record are corruption: every rule
   that compares them would let them through. *)
let test_binary_non_finite () =
  let refused_payload label affix payload =
    let message f =
      match f payload with
      | _ -> Alcotest.failf "%s: decoded" label
      | exception Serialize.Parse_error { message; _ } -> message
    in
    let built = message (fun p -> ignore (record_of p)) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S names %S" label built affix)
      true
      (Astring.String.is_infix ~affix built);
    Alcotest.(check string) (label ^ ": checked alike") built
      (message (fun p -> ignore (check_of p)))
  in
  let refused label affix record =
    refused_payload label affix (Oracle.payload record)
  in
  let event ?(x = 1.0) ?(y = 2.0) ?(accuracy = 0.9) () =
    B.Event
      {
        (* a literal: [Worker.make] would refuse these values *)
        B.e_worker =
          { Worker.index = 1; loc = point ~x ~y; accuracy; capacity = 2 };
        e_degraded = false;
        e_assigned = [];
        e_answered = [];
      }
  in
  refused "NaN x" "location must be finite" (event ~x:Float.nan ());
  refused "infinite y" "location must be finite" (event ~y:Float.infinity ());
  refused "NaN accuracy" "accuracy out of [0, 1]"
    (event ~accuracy:Float.nan ());
  let snapshot score =
    (* [record] refuses a non-finite score, so the snapshot is encoded
       with a marker score whose eight bytes are then overwritten. *)
    let f64 x =
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.bits_of_float x);
      Bytes.to_string b
    in
    let marker = 0.4375 in
    let p = Progress.create ~threshold:1.0 ~n_tasks:3 in
    Progress.record p ~task:1 ~score:marker;
    let payload =
      Oracle.payload
        (B.Snapshot
           {
             B.s_consumed = 1;
             s_policy = 0L;
             s_noshow = 0L;
             s_progress = p;
             s_arrangement =
               Some (Arrangement.add Arrangement.empty ~worker:1 ~task:1);
           })
    in
    match Astring.String.find_sub ~sub:(f64 marker) payload with
    | None -> Alcotest.fail "marker score not in the payload"
    | Some i ->
      String.sub payload 0 i ^ f64 score
      ^ String.sub payload (i + 8) (String.length payload - i - 8)
  in
  refused_payload "NaN score" "non-finite score" (snapshot Float.nan);
  refused_payload "infinite score" "non-finite score"
    (snapshot Float.infinity)

let test_frame_triage () =
  (* Two frames back to back: clean walk, then every damage class. *)
  let buf = Buffer.create 64 in
  Oracle.add_frame buf "first payload";
  Oracle.add_frame buf "second";
  let s = Buffer.contents buf in
  let first_len = 8 + String.length "first payload" in
  let payload_at s pos =
    match B.frame_at s pos with
    | B.Frame len -> Some (String.sub s (pos + 8) len)
    | B.Eof | B.Torn | B.Invalid _ -> None
  in
  Alcotest.(check (option string)) "frame 1" (Some "first payload")
    (payload_at s 0);
  Alcotest.(check (option string)) "frame 2" (Some "second")
    (payload_at s first_len);
  (match B.frame_at s (String.length s) with
  | B.Eof -> ()
  | _ -> Alcotest.fail "expected Eof on the end boundary");
  (* Truncation anywhere inside a frame is a torn tail... *)
  for cut = 1 to String.length s - first_len - 1 do
    match B.frame_at (String.sub s 0 (String.length s - cut)) first_len with
    | B.Torn -> ()
    | _ -> Alcotest.failf "expected Torn at cut=%d" cut
  done;
  (* ...while wrong bytes inside a complete frame are Invalid: *)
  let flip i s =
    String.mapi
      (fun j ch -> if i = j then Char.chr (Char.code ch lxor 0x40) else ch)
      s
  in
  (match B.frame_at (flip (first_len + 9) s) first_len with
  | B.Invalid reason ->
    Alcotest.(check bool) "CRC named" true
      (Astring.String.is_infix ~affix:"CRC" reason)
  | _ -> Alcotest.fail "expected Invalid on a flipped payload byte");
  (match B.frame_at (flip 3 s) 0 with
  | B.Invalid _ | B.Torn -> ()
  | _ -> Alcotest.fail "expected Invalid/Torn on a mangled length")

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "core.quality",
      [
        Alcotest.test_case "delta" `Quick test_delta;
        Alcotest.test_case "delta/Hoeffding consistency" `Quick
          test_delta_hoeffding_consistency;
        Alcotest.test_case "majority vote" `Quick test_majority;
        Alcotest.test_case "scoring thresholds" `Quick test_scoring_threshold;
      ] );
    ( "core.accuracy",
      [
        Alcotest.test_case "sigmoid near task" `Quick test_sigmoid_close;
        Alcotest.test_case "sigmoid at dmax" `Quick test_sigmoid_at_dmax;
        Alcotest.test_case "sigmoid monotone" `Quick
          test_sigmoid_monotone_in_distance;
        Alcotest.test_case "acc_star" `Quick test_acc_star;
        Alcotest.test_case "custom clamped" `Quick test_custom_clamped;
      ] );
    ( "core.task",
      [
        Alcotest.test_case "non-finite location refused" `Quick
          test_task_validation;
      ] );
    ( "core.worker",
      [ Alcotest.test_case "validation and trust" `Quick test_worker_validation ] );
    ( "core.instance",
      [
        Alcotest.test_case "validation" `Quick test_instance_validation;
        Alcotest.test_case "candidate radius" `Quick
          test_instance_candidates_radius;
        Alcotest.test_case "unrestricted candidates" `Quick
          test_instance_candidates_unrestricted;
        Alcotest.test_case "score consistency" `Quick
          test_instance_score_matches_quality;
      ] );
    ( "core.arrangement",
      [
        Alcotest.test_case "accumulates" `Quick test_arrangement_accumulates;
        Alcotest.test_case "validate happy path" `Quick test_validate_happy;
        Alcotest.test_case "validate violations" `Quick
          test_validate_catches_violations;
        Alcotest.test_case "validate capacity" `Quick test_validate_capacity;
      ] );
    ( "core.progress",
      [
        Alcotest.test_case "basics" `Quick test_progress_basic;
        Alcotest.test_case "overshoot" `Quick test_progress_overshoot;
        Alcotest.test_case "zero tasks" `Quick test_progress_zero_tasks;
        Alcotest.test_case "record refuses non-finite scores" `Quick
          test_progress_record_non_finite;
        Alcotest.test_case "create refuses non-finite thresholds" `Quick
          test_progress_create_non_finite;
        qcheck prop_progress_array_model;
        qcheck prop_progress_aggregates;
        qcheck prop_progress_iter_incomplete;
        qcheck prop_progress_held;
        Alcotest.test_case "release all = fresh" `Quick
          test_progress_release_all;
        qcheck prop_progress_of_snapshot_matches_reference;
        Alcotest.test_case "non-finite snapshot values" `Quick
          test_progress_snapshot_non_finite;
      ] );
    ( "core.analysis",
      [
        Alcotest.test_case "counts" `Quick test_analysis_counts;
        Alcotest.test_case "gini" `Quick test_analysis_gini;
        Alcotest.test_case "margin and error bound" `Quick
          test_analysis_margin_and_bound;
        Alcotest.test_case "empty arrangement" `Quick test_analysis_empty;
      ] );
    ( "core.serialize",
      [
        Alcotest.test_case "instance roundtrip" `Quick test_serialize_roundtrip;
        Alcotest.test_case "per-task epsilon survives" `Quick
          test_serialize_per_task_epsilon;
        Alcotest.test_case "file roundtrip" `Quick test_serialize_file_roundtrip;
        Alcotest.test_case "arrangement roundtrip" `Quick
          test_serialize_arrangement_roundtrip;
        Alcotest.test_case "rejects custom model" `Quick
          test_serialize_rejects_custom_model;
        Alcotest.test_case "parse errors" `Quick test_serialize_parse_errors;
        Alcotest.test_case "non-finite floats refused" `Quick
          test_serialize_non_finite;
        Alcotest.test_case "record counts checked" `Quick
          test_serialize_counts;
        Alcotest.test_case "comments and blanks" `Quick
          test_serialize_comments_and_blanks;
        qcheck prop_serialize_roundtrip;
        qcheck prop_serialize_rejects_garbage_without_crashing;
        qcheck prop_progress_roundtrip;
        qcheck prop_arrangement_roundtrip;
      ] );
    ( "core.binary_codec",
      [
        Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
        Alcotest.test_case "frame triage" `Quick test_frame_triage;
        qcheck prop_crc32_matches_bitwise_reference;
        qcheck prop_varint_roundtrip;
        qcheck prop_scalar_roundtrip;
        qcheck prop_event_record_roundtrip;
        qcheck prop_snapshot_record_roundtrip;
        qcheck prop_check_payload_agrees;
        Alcotest.test_case "non-finite values refused" `Quick
          test_binary_non_finite;
        qcheck prop_frame_buffer_matches_oracle;
        Alcotest.test_case "a failed record leaves the buffer" `Quick
          test_failed_record_leaves_buffer;
      ] );
    ( "core.svg",
      [
        Alcotest.test_case "renders all elements" `Quick
          test_svg_renders_elements;
        Alcotest.test_case "without arrangement" `Quick
          test_svg_without_arrangement;
        Alcotest.test_case "save to file" `Quick test_svg_save;
      ] );
    ( "core.properties",
      [
        qcheck prop_analysis_invariants;
        qcheck prop_progress_threshold_per_task;
        qcheck prop_sorted_candidates;
      ] );
    ( "core.truth_infer",
      [
        Alcotest.test_case "recovers planted model" `Quick
          test_truth_infer_recovers_planted_model;
        Alcotest.test_case "EM >= majority voting" `Quick
          test_truth_infer_beats_majority;
        Alcotest.test_case "empty input and validation" `Quick
          test_truth_infer_empty_and_validation;
        Alcotest.test_case "accuracy clamped" `Quick
          test_truth_infer_accuracy_clamped;
        Alcotest.test_case "two-coin recovers asymmetry" `Quick
          test_two_coin_recovers_asymmetry;
        Alcotest.test_case "two-coin prevalence" `Quick test_two_coin_prevalence;
        Alcotest.test_case "two-coin balanced accuracy" `Quick
          test_two_coin_balanced_accuracy;
      ] );
    ( "core.truth_sim",
      [
        Alcotest.test_case "respects Hoeffding bound" `Quick
          test_truth_sim_respects_bound;
        Alcotest.test_case "unassigned task errs" `Quick
          test_truth_sim_unassigned_task_errs;
        Alcotest.test_case "error rate pins" `Quick test_truth_sim_pins;
      ] );
  ]
