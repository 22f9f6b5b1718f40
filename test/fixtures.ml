(* Shared fixtures: the paper's running example (Fig. 1, Tables I-II) and
   small random instances for property tests. *)

open Ltc_core

(* Table I: historical accuracy of workers w1..w8 on tasks t1..t3. *)
let table1 =
  [|
    [| 0.96; 0.98; 0.98; 0.98; 0.96; 0.96; 0.94; 0.94 |];
    [| 0.98; 0.96; 0.96; 0.98; 0.94; 0.96; 0.96; 0.94 |];
    [| 0.96; 0.96; 0.96; 0.98; 0.94; 0.94; 0.96; 0.96 |];
  |]

let example_accuracy =
  Accuracy.Custom
    {
      name = "table1";
      f = (fun w t -> table1.(t.Task.id).(w.Worker.index - 1));
    }

(* Locations are irrelevant under the Custom model; spread workers on a line
   so that spatial code paths still see distinct points. *)
let example_instance ~scoring ~epsilon =
  let tasks =
    Array.init 3 (fun id ->
        Task.make ~id ~loc:(Ltc_geo.Point.make ~x:(float_of_int id) ~y:0.0) ())
  in
  let workers =
    Array.init 8 (fun i ->
        Worker.make ~index:(i + 1)
          ~loc:(Ltc_geo.Point.make ~x:(float_of_int i) ~y:1.0)
          ~accuracy:table1.(0).(i) ~capacity:2)
  in
  Instance.create ~accuracy:example_accuracy ~scoring ~tasks ~workers ~epsilon
    ()

(* Example 1: quality = plain sum of accuracies, threshold 2.92. *)
let example1 () =
  example_instance ~scoring:(Quality.Sum_accuracy { threshold = 2.92 })
    ~epsilon:0.14

(* Examples 2-4: Hoeffding scoring with eps = 0.2 (delta ~ 3.22). *)
let example2 () = example_instance ~scoring:Quality.Hoeffding ~epsilon:0.2

(* A small uniform random instance for property tests: dense enough that all
   algorithms complete. *)
let small_random ~seed ?(n_tasks = 12) ?(n_workers = 600) ?(capacity = 3)
    ?(epsilon = 0.14) () =
  let spec =
    {
      Ltc_workload.Spec.default_synthetic with
      n_tasks;
      n_workers;
      capacity;
      epsilon;
      world_side = 80.0;
    }
  in
  Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed) spec

(* A micro instance solvable by the exact optimum. *)
let micro_random ~seed () =
  let spec =
    {
      Ltc_workload.Spec.default_synthetic with
      n_tasks = 3;
      n_workers = 14;
      capacity = 2;
      epsilon = 0.2;
      world_side = 12.0;
    }
  in
  Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed) spec

(* Shard-local clustered workload: task clusters sit at x = 90i + 15
   (tasks within +-10, all in one 30-unit grid cell), workers arrive
   round-robin across clusters jittered +-8 around the centre, so every
   candidate set stays inside the worker's own cell — the regime where
   the sharded server must be byte-identical to one merged session.  At
   [tasks_per = 48] it is the serve-shard bench's shape, whose workers
   see 48 candidates each. *)
let clustered_instance ?(clusters = 4) ?(tasks_per = 3) ?(n_arrivals = 48)
    ?(capacity = 2) ~seed () =
  let rng = Ltc_util.Rng.create ~seed in
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
  Ltc_core.Instance.create ~tasks ~workers ~epsilon:0.25 ()

(* Random instances for the candidate kernel's oracles: each accuracy
   model and scoring, per-task error rates on a third of the tasks, and a
   radius that is absent, ordinary or far below the grid's cell budget
   (so its cells widen).  A worker stands on a task, on a grid-cell edge
   or anywhere in a square wider than the tasks' bounding box. *)
let kernel_instance_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n_tasks = int_range 0 40 in
    let* n_workers = int_range 1 12 in
    let* model = int_range 0 2 in
    let* hoeffding = bool in
    let+ radius =
      oneof
        [
          return None;
          return (Some 1e-3);
          map Option.some (float_range 2.0 40.0);
        ]
    in
    let rng = Ltc_util.Rng.create ~seed in
    let f x = Ltc_util.Rng.float rng x and int n = Ltc_util.Rng.int rng n in
    let tasks =
      Array.init n_tasks (fun id ->
          let epsilon = if int 3 = 0 then Some (0.05 +. f 0.4) else None in
          Task.make ?epsilon ~id
            ~loc:(Ltc_geo.Point.make ~x:(f 100.0) ~y:(f 100.0))
            ())
    in
    (* The grid's world is the tasks' bounding box, its cell the radius. *)
    let min_x, min_y =
      Array.fold_left
        (fun (x, y) (t : Task.t) ->
          let p = t.loc in
          Ltc_geo.Point.(Float.min x p.x, Float.min y p.y))
        (infinity, infinity) tasks
    in
    let cell = Option.value radius ~default:10.0 in
    let edge lo = lo +. (float_of_int (int 8) *. cell) in
    let workers =
      Array.init n_workers (fun i ->
          let loc =
            match int 3 with
            | 0 when n_tasks > 0 -> tasks.(int n_tasks).Task.loc
            | 1 when n_tasks > 0 ->
              Ltc_geo.Point.make ~x:(edge min_x) ~y:(edge min_y)
            | _ ->
              Ltc_geo.Point.make ~x:(f 140.0 -. 20.0) ~y:(f 140.0 -. 20.0)
          in
          Worker.make ~index:(i + 1) ~loc ~accuracy:(0.5 +. f 0.5)
            ~capacity:(1 + int 4))
    in
    let accuracy =
      match model with
      | 0 -> Accuracy.Sigmoid { dmax = 5.0 +. f 35.0 }
      | 1 -> Accuracy.Historical
      | _ ->
        Accuracy.Custom
          {
            name = "hash";
            f =
              (fun w t ->
                float_of_int (((7 * w.Worker.index) + (13 * t.Task.id)) mod 11)
                /. 10.0);
          }
    in
    let scoring =
      if hoeffding then Quality.Hoeffding
      else Quality.Sum_accuracy { threshold = 1.0 +. f 2.0 }
    in
    Instance.create ~accuracy ~scoring ~candidate_radius:radius ~tasks ~workers
      ~epsilon:0.2 ())

(* A progress state to decide against: a sixth of the tasks held (half of
   them released again), then a random score on half of the open ones,
   some past their threshold.  The same seed builds the same state. *)
let random_progress ~seed instance =
  let rng = Ltc_util.Rng.create ~seed in
  let n = Instance.task_count instance in
  let held = Array.init n (fun _ -> Ltc_util.Rng.int rng 6 = 0) in
  let p =
    Progress.create_per_task ~held:(fun t -> held.(t))
      ~thresholds:(Instance.thresholds instance) ()
  in
  for task = 0 to n - 1 do
    if held.(task) && Ltc_util.Rng.bool rng then Progress.release p task;
    if Progress.is_open p task && Ltc_util.Rng.bool rng then
      Progress.record p ~task
        ~score:(Ltc_util.Rng.float rng (1.5 *. Progress.threshold_of p task))
  done;
  p
