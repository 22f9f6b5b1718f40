type t = {
  tasks : Task.t array;
  workers : Worker.t array;
  epsilon : float;
  accuracy : Accuracy.t;
  scoring : Quality.scoring;
  candidate_radius : float option;
  task_index : Ltc_geo.Grid_index.t option;
}

let default_radius accuracy =
  match accuracy with
  | Accuracy.Sigmoid { dmax } -> Some dmax
  | Accuracy.Historical | Accuracy.Custom _ -> None

let create ?(accuracy = Accuracy.Sigmoid { dmax = Accuracy.default_dmax })
    ?(scoring = Quality.Hoeffding) ?candidate_radius ~tasks ~workers ~epsilon
    () =
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Instance.create: epsilon must lie in (0, 1)";
  Array.iteri
    (fun i (task : Task.t) ->
      if task.id <> i then
        invalid_arg "Instance.create: task ids must match their positions")
    tasks;
  Array.iteri
    (fun i (w : Worker.t) ->
      if w.index <> i + 1 then
        invalid_arg
          "Instance.create: workers must be in contiguous 1-based arrival \
           order")
    workers;
  let candidate_radius =
    match candidate_radius with
    | Some r -> r
    | None -> default_radius accuracy
  in
  let task_index =
    match candidate_radius with
    | None -> None
    | Some radius ->
      if Array.length tasks = 0 then None
      else begin
        let points = Array.map (fun (task : Task.t) -> task.loc) tasks in
        let world = Ltc_geo.Bbox.of_points (Array.to_list points) in
        Some (Ltc_geo.Grid_index.build ~world ~cell:radius points)
      end
  in
  { tasks; workers; epsilon; accuracy; scoring; candidate_radius; task_index }

let task_count t = Array.length t.tasks
let worker_count t = Array.length t.workers

let threshold t = Quality.threshold t.scoring ~epsilon:t.epsilon

let threshold_of t task_id =
  match (t.scoring, t.tasks.(task_id).Task.epsilon) with
  | Quality.Hoeffding, Some epsilon -> Quality.threshold t.scoring ~epsilon
  | Quality.Hoeffding, None | Quality.Sum_accuracy _, _ -> threshold t

let thresholds t = Array.init (Array.length t.tasks) (threshold_of t)

let score t w task_id = Quality.score t.scoring t.accuracy w t.tasks.(task_id)

let acc t w task_id = Accuracy.acc t.accuracy w t.tasks.(task_id)

let iter_candidates t (w : Worker.t) f =
  match (t.candidate_radius, t.task_index) with
  | Some radius, Some index ->
    Ltc_geo.Grid_index.iter_within index ~center:w.loc ~radius f
  | None, _ | _, None ->
    for i = 0 to Array.length t.tasks - 1 do
      f i
    done

let iter_candidates_sorted t (w : Worker.t) f =
  match (t.candidate_radius, t.task_index) with
  | Some radius, Some index ->
    Ltc_geo.Grid_index.iter_within_sorted index ~center:w.loc ~radius f
  | None, _ | _, None ->
    for i = 0 to Array.length t.tasks - 1 do
      f i
    done

let candidates t (w : Worker.t) =
  match (t.candidate_radius, t.task_index) with
  | Some radius, Some index ->
    Ltc_geo.Grid_index.query_within index ~center:w.loc ~radius
  | None, _ | _, None -> List.init (Array.length t.tasks) (fun i -> i)

let count_candidates t (w : Worker.t) =
  match (t.candidate_radius, t.task_index) with
  | Some radius, Some index ->
    Ltc_geo.Grid_index.count_within index ~center:w.loc ~radius
  | None, _ | _, None -> Array.length t.tasks

let memory_words t =
  let index_words =
    match t.task_index with
    | None -> 0
    | Some index -> Ltc_geo.Grid_index.memory_words index
  in
  (* Tasks: id + 2 float coords (boxed point record ~ 5 words); workers:
     index, accuracy, capacity, point ~ 8 words. *)
  (5 * Array.length t.tasks) + (8 * Array.length t.workers) + index_words

let pp fmt t =
  Format.fprintf fmt
    "instance{|T|=%d, |W|=%d, eps=%g, acc=%a, scoring=%a, radius=%s}"
    (task_count t) (worker_count t) t.epsilon Accuracy.pp t.accuracy
    Quality.pp_scoring t.scoring
    (match t.candidate_radius with
    | None -> "none"
    | Some r -> string_of_float r)
