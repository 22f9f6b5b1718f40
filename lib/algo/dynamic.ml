open Ltc_core

type strategy =
  | Laf_d
  | Aam_d
  | Random_d of int

type outcome = {
  engine : Engine.outcome;
  mean_response : float;
  max_response : int;
  completed_tasks : int;
}

let uniform_releases rng ~n_tasks ~horizon ~upfront_fraction =
  if upfront_fraction < 0.0 || upfront_fraction > 1.0 then
    invalid_arg "Dynamic.uniform_releases: fraction out of [0, 1]";
  let upfront =
    int_of_float (Float.ceil (upfront_fraction *. float_of_int n_tasks))
  in
  Array.init n_tasks (fun task ->
      if task < upfront then 0 else 1 + Ltc_util.Rng.int rng (max 1 horizon))

let strategy_name = function
  | Laf_d -> "LAF-dyn"
  | Aam_d -> "AAM-dyn"
  | Random_d _ -> "Random-dyn"

let policy = function
  | Laf_d -> Laf.policy
  | Aam_d -> Aam.policy
  | Random_d seed -> Random_assign.policy ~seed

let run ~strategy ~release:releases (instance : Instance.t) =
  Ltc_util.Trace.with_span ("dynamic:" ^ strategy_name strategy) @@ fun () ->
  let n_tasks = Instance.task_count instance in
  if Array.length releases <> n_tasks then
    invalid_arg "Dynamic.run: release array must have one entry per task";
  Array.iter
    (fun r -> if r < 0 then invalid_arg "Dynamic.run: negative release")
    releases;
  let progress =
    Progress.create_per_task
      ~held:(fun task -> releases.(task) > 0)
      ~thresholds:(Instance.thresholds instance) ()
  in
  let st =
    Engine.start ~progress ~name:(strategy_name strategy) (policy strategy)
      instance
  in
  (* Held tasks in release order, ties by id. *)
  let pending =
    Array.of_list
      (List.filter (fun task -> releases.(task) > 0) (List.init n_tasks Fun.id))
  in
  Array.stable_sort
    (fun a b -> Int.compare releases.(a) releases.(b))
    pending;
  let next = ref 0 in
  let completion = Array.make n_tasks (-1) in
  let workers = instance.Instance.workers in
  while
    (not (Progress.all_complete progress))
    && Engine.consumed st < Array.length workers
  do
    let w = workers.(Engine.consumed st) in
    while !next < Array.length pending && releases.(pending.(!next)) <= w.index
    do
      Progress.release progress pending.(!next);
      incr next
    done;
    let d = Engine.step st w in
    List.iter
      (fun task ->
        if completion.(task) < 0 && Progress.is_complete progress task then
          completion.(task) <- w.index)
      d.Engine.answered
  done;
  let responses =
    List.filter_map
      (fun task ->
        if completion.(task) < 0 then None
        else Some (completion.(task) - releases.(task)))
      (List.init n_tasks Fun.id)
  in
  let completed_tasks = List.length responses in
  {
    engine = Engine.finish st;
    mean_response =
      (if completed_tasks = 0 then 0.0
       else
         float_of_int (List.fold_left ( + ) 0 responses)
         /. float_of_int completed_tasks);
    max_response = List.fold_left max 0 responses;
    completed_tasks;
  }
