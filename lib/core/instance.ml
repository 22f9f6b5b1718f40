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
  (match scoring with
  | Quality.Sum_accuracy { threshold }
    when not (threshold > 0.0 && threshold < infinity) ->
    invalid_arg "Instance.create: sum_accuracy threshold must be finite and > 0"
  | Quality.Sum_accuracy _ | Quality.Hoeffding -> ());
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

(* Per-domain candidate buffers, used as a stack: a query fills the slots
   from [top] up and raises [top] past them while its reader runs — so a
   reader that queries again fills above them, and may grow the arrays —
   and the reader lowers it on the way out. *)
type candidates = {
  mutable ids : int array;
  mutable d2 : float array;
  mutable scores : float array;
  mutable top : int;
}

let stack =
  Domain.DLS.new_key (fun () ->
      { ids = [||]; d2 = [||]; scores = [||]; top = 0 })

let candidates () = Domain.DLS.get stack

(* The one candidate scan: [w]'s candidates with their squared distances,
   pushed above [c.top]; returns where they start. *)
let push t c (w : Worker.t) ~sorted =
  let base = c.top in
  let room = base + Array.length t.tasks in
  if Array.length c.ids < room then begin
    let grow a fill =
      let b = Array.make (max room (2 * Array.length a)) fill in
      Array.blit a 0 b 0 base;
      b
    in
    c.ids <- grow c.ids 0;
    c.d2 <- grow c.d2 0.0;
    c.scores <- grow c.scores 0.0
  end;
  (match (t.candidate_radius, t.task_index) with
  | Some radius, Some index ->
    c.top <-
      base
      + Ltc_geo.Grid_index.query index ~center:w.loc ~radius ~sorted c.ids
          c.d2 base
  | None, _ | _, None ->
    Array.iteri
      (fun i (task : Task.t) ->
        c.ids.(base + i) <- i;
        c.d2.(base + i) <- Ltc_geo.Point.distance_sq w.loc task.loc)
      t.tasks;
    c.top <- room);
  base

let push_open t c progress w ~scores =
  let base = push t c w ~sorted:true in
  c.top <- Progress.keep_open progress c.ids c.d2 base c.top;
  if scores then
    Accuracy.fill_weights t.accuracy ~star:(Quality.star t.scoring) w t.tasks
      ~ids:c.ids ~d2:c.d2 c.scores base c.top;
  base

let pop_candidates c base = c.top <- base

let iter t w ~sorted f =
  let c = candidates () in
  let base = push t c w ~sorted in
  match
    for k = base to c.top - 1 do
      f c.ids.(k)
    done
  with
  | () -> c.top <- base
  | exception e ->
    c.top <- base;
    raise e

let iter_candidates t w f = iter t w ~sorted:false f
let iter_candidates_sorted t w f = iter t w ~sorted:true f

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
