type observation = {
  worker : int;
  task : int;
  answer : Task.answer;
}

type result = {
  accuracies : float array;
  posteriors : float array;
  labels : Task.answer option array;
  iterations : int;
  converged : bool;
}

let clamp_accuracy p = Float.max 0.51 (Float.min 0.99 p)

(* EM stops after [max_iterations] rounds, or once no parameter moved by
   [tolerance] or more; every worker starts at [prior_accuracy]. *)
let max_iterations = 100
let tolerance = 1e-6
let prior_accuracy = 0.75

let validate ~n_workers ~n_tasks observations =
  List.iter
    (fun o ->
      if o.worker < 1 || o.worker > n_workers then
        invalid_arg "Truth_infer: worker index out of range";
      if o.task < 0 || o.task >= n_tasks then
        invalid_arg "Truth_infer: task id out of range")
    observations

(* Group observations by task once; each entry is (worker-1, is_yes). *)
let by_task ~n_tasks observations =
  let per_task = Array.make (max n_tasks 1) [] in
  List.iter
    (fun o ->
      per_task.(o.task) <-
        (o.worker - 1, Task.answer_equal o.answer Task.Yes) :: per_task.(o.task))
    observations;
  per_task

let labels_of_posteriors posteriors per_task =
  Array.mapi
    (fun task q ->
      if per_task.(task) = [] then None
      else if q > 0.5 then Some Task.Yes
      else if q < 0.5 then Some Task.No
      else None)
    posteriors

(* E-step for one task: posterior of Yes under the one-coin model with a
   flat truth prior.  Log-space for numeric safety on many-vote tasks. *)
let posterior_yes accuracies votes =
  match votes with
  | [] -> 0.5
  | _ ->
    let log_yes = ref 0.0 and log_no = ref 0.0 in
    List.iter
      (fun (worker, is_yes) ->
        let p = accuracies.(worker) in
        if is_yes then begin
          log_yes := !log_yes +. log p;
          log_no := !log_no +. log (1.0 -. p)
        end
        else begin
          log_yes := !log_yes +. log (1.0 -. p);
          log_no := !log_no +. log p
        end)
      votes;
    let m = Float.max !log_yes !log_no in
    let yes = exp (!log_yes -. m) and no = exp (!log_no -. m) in
    yes /. (yes +. no)

let run ~n_workers ~n_tasks observations =
  validate ~n_workers ~n_tasks observations;
  let per_task = by_task ~n_tasks observations in
  let accuracies = Array.make (max n_workers 1) prior_accuracy in
  let posteriors = Array.make (max n_tasks 1) 0.5 in
  (* Per-worker accumulators for the M-step. *)
  let agreement = Array.make (max n_workers 1) 0.0 in
  let answered = Array.make (max n_workers 1) 0 in
  List.iter (fun o -> answered.(o.worker - 1) <- answered.(o.worker - 1) + 1)
    observations;
  let iterations = ref 0 in
  let converged = ref false in
  while (not !converged) && !iterations < max_iterations do
    incr iterations;
    (* E-step. *)
    for task = 0 to n_tasks - 1 do
      posteriors.(task) <- posterior_yes accuracies per_task.(task)
    done;
    (* M-step: expected agreement of each worker with the posterior. *)
    Array.fill agreement 0 (Array.length agreement) 0.0;
    Array.iteri
      (fun task votes ->
        let q = posteriors.(task) in
        ignore task;
        List.iter
          (fun (worker, is_yes) ->
            agreement.(worker) <-
              agreement.(worker) +. (if is_yes then q else 1.0 -. q))
          votes)
      per_task;
    let delta = ref 0.0 in
    for worker = 0 to n_workers - 1 do
      if answered.(worker) > 0 then begin
        let updated =
          clamp_accuracy (agreement.(worker) /. float_of_int answered.(worker))
        in
        delta := Float.max !delta (Float.abs (updated -. accuracies.(worker)));
        accuracies.(worker) <- updated
      end
    done;
    if !delta < tolerance then converged := true
  done;
  {
    accuracies = Array.sub accuracies 0 (max n_workers 1);
    posteriors = Array.sub posteriors 0 (max n_tasks 1);
    labels = labels_of_posteriors posteriors per_task;
    iterations = !iterations;
    converged = !converged;
  }

type two_coin_result = {
  sensitivities : float array;
  specificities : float array;
  tc_accuracies : float array;
  tc_posteriors : float array;
  tc_labels : Task.answer option array;
  tc_iterations : int;
  tc_converged : bool;
  prevalence : float;
}

let run_two_coin ~n_workers ~n_tasks observations =
  validate ~n_workers ~n_tasks observations;
  let per_task = by_task ~n_tasks observations in
  let alpha = Array.make (max n_workers 1) prior_accuracy in
  let beta = Array.make (max n_workers 1) prior_accuracy in
  let posteriors = Array.make (max n_tasks 1) 0.5 in
  let prevalence = ref 0.5 in
  (* M-step accumulators. *)
  let yes_mass = Array.make (max n_workers 1) 0.0 in
  let yes_total = Array.make (max n_workers 1) 0.0 in
  let no_mass = Array.make (max n_workers 1) 0.0 in
  let no_total = Array.make (max n_workers 1) 0.0 in
  let iterations = ref 0 in
  let converged = ref false in
  while (not !converged) && !iterations < max_iterations do
    incr iterations;
    (* E-step: posterior truth per task under the current parameters. *)
    for task = 0 to n_tasks - 1 do
      match per_task.(task) with
      | [] -> posteriors.(task) <- !prevalence
      | votes ->
        let log_yes = ref (log !prevalence) in
        let log_no = ref (log (1.0 -. !prevalence)) in
        List.iter
          (fun (worker, is_yes) ->
            if is_yes then begin
              log_yes := !log_yes +. log alpha.(worker);
              log_no := !log_no +. log (1.0 -. beta.(worker))
            end
            else begin
              log_yes := !log_yes +. log (1.0 -. alpha.(worker));
              log_no := !log_no +. log beta.(worker)
            end)
          votes;
        let m = Float.max !log_yes !log_no in
        let yes = exp (!log_yes -. m) and no = exp (!log_no -. m) in
        posteriors.(task) <- yes /. (yes +. no)
    done;
    (* M-step. *)
    Array.fill yes_mass 0 (Array.length yes_mass) 0.0;
    Array.fill yes_total 0 (Array.length yes_total) 0.0;
    Array.fill no_mass 0 (Array.length no_mass) 0.0;
    Array.fill no_total 0 (Array.length no_total) 0.0;
    let prevalence_sum = ref 0.0 in
    let observed_tasks = ref 0 in
    Array.iteri
      (fun task votes ->
        if votes <> [] then begin
          incr observed_tasks;
          prevalence_sum := !prevalence_sum +. posteriors.(task)
        end;
        let q = posteriors.(task) in
        List.iter
          (fun (worker, is_yes) ->
            yes_total.(worker) <- yes_total.(worker) +. q;
            no_total.(worker) <- no_total.(worker) +. (1.0 -. q);
            if is_yes then yes_mass.(worker) <- yes_mass.(worker) +. q
            else no_mass.(worker) <- no_mass.(worker) +. (1.0 -. q))
          votes)
      per_task;
    let delta = ref 0.0 in
    for worker = 0 to n_workers - 1 do
      if yes_total.(worker) > 1e-12 then begin
        let a = clamp_accuracy (yes_mass.(worker) /. yes_total.(worker)) in
        delta := Float.max !delta (Float.abs (a -. alpha.(worker)));
        alpha.(worker) <- a
      end;
      if no_total.(worker) > 1e-12 then begin
        let b = clamp_accuracy (no_mass.(worker) /. no_total.(worker)) in
        delta := Float.max !delta (Float.abs (b -. beta.(worker)));
        beta.(worker) <- b
      end
    done;
    if !observed_tasks > 0 then
      prevalence :=
        Float.max 0.05
          (Float.min 0.95 (!prevalence_sum /. float_of_int !observed_tasks));
    if !delta < tolerance then converged := true
  done;
  {
    sensitivities = Array.sub alpha 0 (max n_workers 1);
    specificities = Array.sub beta 0 (max n_workers 1);
    tc_accuracies =
      Array.init (max n_workers 1) (fun w -> (alpha.(w) +. beta.(w)) /. 2.0);
    tc_posteriors = Array.sub posteriors 0 (max n_tasks 1);
    tc_labels = labels_of_posteriors posteriors per_task;
    tc_iterations = !iterations;
    tc_converged = !converged;
    prevalence = !prevalence;
  }

let majority_baseline ~n_workers ~n_tasks observations =
  validate ~n_workers ~n_tasks observations;
  let per_task = by_task ~n_tasks observations in
  let posteriors =
    Array.map
      (fun votes ->
        match votes with
        | [] -> 0.5
        | _ ->
          let yes = List.length (List.filter snd votes) in
          let total = List.length votes in
          float_of_int yes /. float_of_int total)
      per_task
  in
  let labels = labels_of_posteriors posteriors per_task in
  let agreement = Array.make (max n_workers 1) 0 in
  let answered = Array.make (max n_workers 1) 0 in
  Array.iteri
    (fun task votes ->
      List.iter
        (fun (worker, is_yes) ->
          match labels.(task) with
          | None -> ()
          | Some label ->
            answered.(worker) <- answered.(worker) + 1;
            if Task.answer_equal label (if is_yes then Task.Yes else Task.No)
            then agreement.(worker) <- agreement.(worker) + 1)
        votes)
    per_task;
  let accuracies =
    Array.init (max n_workers 1) (fun worker ->
        if answered.(worker) = 0 then 0.75
        else
          clamp_accuracy
            (float_of_int agreement.(worker) /. float_of_int answered.(worker)))
  in
  { accuracies; posteriors; labels; iterations = 0; converged = true }
