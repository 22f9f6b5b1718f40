type task_report = {
  task : int;
  votes : int;
  acc_star_sum : float;
  error_rate : float;
}

type report = {
  trials : int;
  epsilon : float;
  tasks : task_report array;
  mean_error : float;
  max_error : float;
}

let run ?(trials = 1000) ?actual_accuracy rng (instance : Instance.t)
    arrangement =
  if trials <= 0 then invalid_arg "Truth_sim.run: trials must be positive";
  let n_tasks = Instance.task_count instance in
  let actual =
    match actual_accuracy with
    | Some f -> f
    | None -> fun w task -> Accuracy.acc instance.Instance.accuracy w task
  in
  (* Per task: list of (vote weight, correctness probability).  Weights come
     from the believed model, correctness from [actual]. *)
  let voters = Array.make (max n_tasks 1) [] in
  List.iter
    (fun (a : Arrangement.assignment) ->
      let w = instance.Instance.workers.(a.worker - 1) in
      let believed = Instance.acc instance w a.task in
      let weight = (2.0 *. believed) -. 1.0 in
      let correctness = actual w instance.Instance.tasks.(a.task) in
      voters.(a.task) <- (weight, correctness) :: voters.(a.task))
    (Arrangement.to_list arrangement);
  let errors = Array.make (max n_tasks 1) 0 in
  (* By symmetry of the binary answer, fix the truth to Yes: a trial errs
     unless Definition 4's vote decides Yes (a tie or no vote errs). *)
  let answer (weight, acc) =
    (weight, if Ltc_util.Rng.bernoulli rng acc then Task.Yes else Task.No)
  in
  for _ = 1 to trials do
    for task = 0 to n_tasks - 1 do
      if Quality.majority (List.map answer voters.(task)) <> Some Task.Yes
      then errors.(task) <- errors.(task) + 1
    done
  done;
  let model = instance.Instance.accuracy in
  let tasks =
    Array.init n_tasks (fun task ->
        let assigned = Arrangement.workers_of_task arrangement task in
        let acc_star_sum =
          List.fold_left
            (fun sum worker ->
              let w = instance.Instance.workers.(worker - 1) in
              sum +. Accuracy.acc_star model w instance.Instance.tasks.(task))
            0.0 assigned
        in
        {
          task;
          votes = List.length assigned;
          acc_star_sum;
          error_rate = float_of_int errors.(task) /. float_of_int trials;
        })
  in
  let error_rates = Array.map (fun r -> r.error_rate) tasks in
  {
    trials;
    epsilon = instance.Instance.epsilon;
    tasks;
    mean_error = (if n_tasks = 0 then 0.0 else Ltc_util.Stats.mean error_rates);
    max_error = Array.fold_left (fun m r -> Float.max m r.error_rate) 0.0 tasks;
  }

let pp fmt r =
  Format.fprintf fmt
    "truth-sim{trials=%d, eps=%g, mean_err=%.4f, max_err=%.4f, tasks=%d}"
    r.trials r.epsilon r.mean_error r.max_error (Array.length r.tasks)
