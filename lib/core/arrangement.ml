type assignment = { worker : int; task : int }

type t = {
  rev_assignments : assignment list;
  size : int;
  latency : int;
}

let empty = { rev_assignments = []; size = 0; latency = 0 }

let add t ~worker ~task =
  {
    rev_assignments = { worker; task } :: t.rev_assignments;
    size = t.size + 1;
    latency = max t.latency worker;
  }

let size t = t.size
let latency t = t.latency
let to_list t = List.rev t.rev_assignments
let to_rev_list t = t.rev_assignments

let tasks_of_worker t worker =
  List.sort compare
    (List.filter_map
       (fun a -> if a.worker = worker then Some a.task else None)
       t.rev_assignments)

let workers_of_task t task =
  List.sort compare
    (List.filter_map
       (fun a -> if a.task = task then Some a.worker else None)
       t.rev_assignments)

type violation =
  | Worker_out_of_range of assignment
  | Task_out_of_range of assignment
  | Duplicate_assignment of assignment
  | Capacity_exceeded of { worker : int; assigned : int; capacity : int }
  | Not_a_candidate of assignment
  | Task_incomplete of { task : int; accumulated : float; threshold : float }

let validate (instance : Instance.t) t =
  let n_tasks = Instance.task_count instance in
  let n_workers = Instance.worker_count instance in
  let violations = ref [] in
  let report v = violations := v :: !violations in
  let load = Array.make (n_workers + 1) 0 in
  let accumulated = Array.make (max n_tasks 1) 0.0 in
  let seen = Hashtbl.create (2 * t.size) in
  let check a =
    if a.worker < 1 || a.worker > n_workers then Worker_out_of_range a |> report
    else if a.task < 0 || a.task >= n_tasks then Task_out_of_range a |> report
    else begin
      let w = instance.Instance.workers.(a.worker - 1) in
      if Hashtbl.mem seen (a.worker, a.task) then Duplicate_assignment a |> report
      else begin
        Hashtbl.add seen (a.worker, a.task) ();
        load.(a.worker) <- load.(a.worker) + 1;
        accumulated.(a.task) <-
          accumulated.(a.task) +. Instance.score instance w a.task;
        let is_candidate =
          match instance.Instance.candidate_radius with
          | None -> true
          | Some radius ->
            Ltc_geo.Point.distance w.Worker.loc
              instance.Instance.tasks.(a.task).Task.loc
            <= radius +. 1e-9
        in
        if not is_candidate then Not_a_candidate a |> report
      end
    end
  in
  List.iter check (to_list t);
  Array.iteri
    (fun i (w : Worker.t) ->
      let assigned = load.(i + 1) in
      if assigned > w.capacity then
        report
          (Capacity_exceeded
             { worker = w.index; assigned; capacity = w.capacity }))
    instance.Instance.workers;
  for task = 0 to n_tasks - 1 do
    let threshold = Instance.threshold_of instance task in
    if accumulated.(task) < threshold -. 1e-9 then
      report (Task_incomplete { task; accumulated = accumulated.(task); threshold })
  done;
  match List.rev !violations with
  | [] -> Ok ()
  | vs -> Error vs

let pp_violation fmt = function
  | Worker_out_of_range a ->
    Format.fprintf fmt "worker %d out of range (task %d)" a.worker a.task
  | Task_out_of_range a ->
    Format.fprintf fmt "task %d out of range (worker %d)" a.task a.worker
  | Duplicate_assignment a ->
    Format.fprintf fmt "duplicate assignment (w%d, t%d)" a.worker a.task
  | Capacity_exceeded { worker; assigned; capacity } ->
    Format.fprintf fmt "worker %d assigned %d tasks, capacity %d" worker
      assigned capacity
  | Not_a_candidate a ->
    Format.fprintf fmt "task %d is not a candidate for worker %d" a.task
      a.worker
  | Task_incomplete { task; accumulated; threshold } ->
    Format.fprintf fmt "task %d incomplete: %.4f < %.4f" task accumulated
      threshold

let pp fmt t =
  Format.fprintf fmt "arrangement{%d assignments, latency=%d}" t.size
    t.latency
