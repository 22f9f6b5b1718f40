open Ltc_core

type verdict = {
  feasible_maybe : bool;
  required_units : int;
  routable_units : int;
  starved_tasks : int list;
}

(* The relaxation both entry points read: per task, the demand
   [d_t = ceil (threshold_t / s_t)] for the best candidate score [s_t]
   ([max_int] when no candidate scores), and the supply of candidate
   workers. *)
let relaxation instance =
  let n_tasks = Instance.task_count instance in
  let thresholds = Instance.thresholds instance in
  let best_score = Array.make n_tasks 0.0 in
  let supply = Array.make n_tasks 0 in
  Array.iter
    (fun (w : Worker.t) ->
      Instance.iter_candidates instance w (fun task ->
          supply.(task) <- supply.(task) + 1;
          let s = Instance.score instance w task in
          if s > best_score.(task) then best_score.(task) <- s))
    instance.Instance.workers;
  let demand =
    Array.init n_tasks (fun task ->
        if best_score.(task) <= 0.0 then max_int
        else int_of_float (Float.ceil (thresholds.(task) /. best_score.(task))))
  in
  (demand, supply)

let total_demand demand =
  Array.fold_left (fun acc d -> if d = max_int then acc else acc + d) 0 demand

(* Maximum flow of [source -(K)-> workers 1..l -(1)-> tasks -(d_t)-> sink]
   over candidate pairs.  [demand] must be free of [max_int]. *)
let routable instance demand l =
  let workers = instance.Instance.workers in
  let n_tasks = Array.length demand in
  let source = 0 and sink = 1 + l + n_tasks in
  let g = Ltc_flow.Graph.create ~n:(sink + 1) in
  for i = 0 to l - 1 do
    ignore
      (Ltc_flow.Graph.add_arc g ~src:source ~dst:(1 + i)
         ~cap:workers.(i).Worker.capacity ~cost:0.0);
    Instance.iter_candidates instance workers.(i) (fun task ->
        ignore
          (Ltc_flow.Graph.add_arc g ~src:(1 + i) ~dst:(1 + l + task) ~cap:1
             ~cost:0.0))
  done;
  Array.iteri
    (fun task d ->
      ignore
        (Ltc_flow.Graph.add_arc g ~src:(1 + l + task) ~dst:sink ~cap:d
           ~cost:0.0))
    demand;
  Ltc_flow.Dinic.max_flow g ~source ~sink

let screen instance =
  let demand, supply = relaxation instance in
  let starved_tasks =
    List.filter
      (fun task -> supply.(task) < demand.(task))
      (List.init (Array.length demand) Fun.id)
  in
  let required_units = total_demand demand in
  let routable_units =
    if starved_tasks <> [] then 0
    else routable instance demand (Instance.worker_count instance)
  in
  {
    feasible_maybe = starved_tasks = [] && routable_units >= required_units;
    required_units;
    routable_units;
    starved_tasks;
  }

let latency_lower_bound instance =
  let n_workers = Instance.worker_count instance in
  let demand, _ = relaxation instance in
  let required_units = total_demand demand in
  let routes l = routable instance demand l >= required_units in
  if Array.length demand = 0 then Some 0
  else if Array.mem max_int demand || not (routes n_workers) then None
  else begin
    (* Binary search the smallest routable prefix (monotone in l). *)
    let rec search lo hi =
      if lo >= hi then hi
      else begin
        let mid = (lo + hi) / 2 in
        if routes mid then search lo mid else search (mid + 1) hi
      end
    in
    Some (search 1 n_workers)
  end

let pp_verdict fmt v =
  Format.fprintf fmt "%s (routed %d of %d demand units%s)"
    (if v.feasible_maybe then "may be feasible" else "certified infeasible")
    v.routable_units v.required_units
    (match v.starved_tasks with
    | [] -> ""
    | ts -> Printf.sprintf "; %d starved tasks" (List.length ts))
