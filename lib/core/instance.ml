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

let iter_candidates t (w : Worker.t) f =
  match (t.candidate_radius, t.task_index) with
  | Some radius, Some index ->
    Ltc_geo.Grid_index.iter_within index ~center:w.loc ~radius f
  | None, _ | _, None ->
    for i = 0 to Array.length t.tasks - 1 do
      f i
    done

(* Per-domain scratch for the sorted query, used as a stack: a query fills
   the slots from [top] up, raises [top] past them while its callback
   runs — so a callback that queries again fills above them — and lowers
   it on the way out. *)
type scratch = { mutable buf : int array; mutable top : int }

let scratch = Domain.DLS.new_key (fun () -> { buf = [||]; top = 0 })

let iter_candidates_sorted t (w : Worker.t) f =
  match (t.candidate_radius, t.task_index) with
  | Some radius, Some index ->
    let s = Domain.DLS.get scratch in
    let base = s.top in
    let need = base + Ltc_geo.Grid_index.length index in
    if Array.length s.buf < need then begin
      let buf = Array.make (max need (2 * Array.length s.buf)) 0 in
      Array.blit s.buf 0 buf 0 base;
      s.buf <- buf
    end;
    let n =
      Ltc_geo.Grid_index.fill_within_sorted index ~center:w.loc ~radius s.buf
        base
    in
    s.top <- base + n;
    (* [s.buf] is re-read on every step: a nested query may have grown it. *)
    (match
       for k = base to base + n - 1 do
         f s.buf.(k)
       done
     with
    | () -> s.top <- base
    | exception e ->
      s.top <- base;
      raise e)
  | None, _ | _, None -> iter_candidates t w f

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
