open Ltc_core

exception Budget_exceeded

(* Enumerate the subsets of size [size] of [items], calling [f] with each
   (as a list).  Stops early when [f] returns true; returns whether any call
   did. *)
let exists_subset items size f =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let chosen = Array.make (max size 1) 0 in
  let rec go start depth =
    if depth = size then f (Array.to_list (Array.sub chosen 0 size))
    else begin
      let rec try_from i =
        if i > n - (size - depth) then false
        else begin
          chosen.(depth) <- arr.(i);
          if go (i + 1) (depth + 1) then true else try_from (i + 1)
        end
      in
      try_from start
    end
  in
  if size = 0 then f [] else go 0 0

let feasible_with ?(max_nodes = 5_000_000) instance l =
  let n_tasks = Instance.task_count instance in
  let workers = instance.Instance.workers in
  let l = min l (Array.length workers) in
  let thresholds = Instance.thresholds instance in
  let candidates =
    Array.init l (fun i ->
        let acc = ref [] in
        Instance.iter_candidates_sorted instance workers.(i) (fun task ->
            acc := task :: !acc);
        List.rev !acc)
  in
  (* suffix.(i).(t): total score workers i.. could still add to task t. *)
  let suffix = Array.make_matrix (l + 1) (max n_tasks 1) 0.0 in
  for i = l - 1 downto 0 do
    Array.blit suffix.(i + 1) 0 suffix.(i) 0 n_tasks;
    List.iter
      (fun task ->
        suffix.(i).(task) <-
          suffix.(i).(task) +. Instance.score instance workers.(i) task)
      candidates.(i)
  done;
  let s = Array.make (max n_tasks 1) 0.0 in
  let nodes = ref 0 in
  let solution = ref [] in
  let eps = 1e-9 in
  let complete task = s.(task) >= thresholds.(task) -. eps in
  let all_complete () =
    let rec go task = task >= n_tasks || (complete task && go (task + 1)) in
    go 0
  in
  let rec dfs i acc =
    incr nodes;
    if !nodes > max_nodes then raise Budget_exceeded;
    if all_complete () then begin
      solution := acc;
      true
    end
    else if i >= l then false
    else begin
      (* Prune: some task can no longer be completed even with all future
         contributions. *)
      let doomed = ref false in
      for task = 0 to n_tasks - 1 do
        if
          (not (complete task))
          && s.(task) +. suffix.(i).(task) < thresholds.(task) -. eps
        then doomed := true
      done;
      if !doomed then false
      else begin
        let w = workers.(i) in
        let open_tasks = List.filter (fun t -> not (complete t)) candidates.(i) in
        let size = min w.Worker.capacity (List.length open_tasks) in
        exists_subset open_tasks size (fun subset ->
            List.iter
              (fun task -> s.(task) <- s.(task) +. Instance.score instance w task)
              subset;
            let found =
              dfs (i + 1) (List.map (fun task -> (w.Worker.index, task)) subset :: acc)
            in
            if not found then
              List.iter
                (fun task ->
                  s.(task) <- s.(task) -. Instance.score instance w task)
                subset;
            found)
      end
    end
  in
  if dfs 0 [] then begin
    let arrangement =
      List.fold_left
        (fun m (worker, task) -> Arrangement.add m ~worker ~task)
        Arrangement.empty
        (List.concat (List.rev !solution))
    in
    Some arrangement
  end
  else None

let solve ?max_nodes instance =
  let n = Instance.worker_count instance in
  match feasible_with ?max_nodes instance n with
  | None -> None
  | Some _ ->
    (* Binary search the minimal feasible latency (feasibility is monotone
       in the prefix length). *)
    let rec search lo hi best =
      (* Invariant: hi is feasible with witness [best]; lo - 1 infeasible. *)
      if lo >= hi then (hi, best)
      else begin
        let mid = (lo + hi) / 2 in
        match feasible_with ?max_nodes instance mid with
        | Some a -> search lo mid a
        | None -> search (mid + 1) hi best
      end
    in
    let witness =
      match feasible_with ?max_nodes instance n with
      | Some a -> a
      | None -> assert false
    in
    let latency, arrangement = search 1 n witness in
    (* The witness may finish earlier than the searched bound. *)
    Some (min latency (Arrangement.latency arrangement), arrangement)
