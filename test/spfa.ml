(* Reference min-cost max-flow: SPFA (queue-based Bellman-Ford) path search
   on raw arc costs, without potentials.  Slower than Ltc_flow.Mcmf (no
   reduced costs, no early exit) but structurally independent from it: no
   potential maintenance and no float-epsilon subtleties in reduced costs,
   so the flow tests cross-check SSPA against it.  Every call allocates its
   own labels. *)

open Ltc_flow

let epsilon = 1e-9

(* [run g ~source ~sink] routes a maximum flow of minimum cost, mutating
   [g]'s residual capacities like [Mcmf.run], and returns its
   (flow, cost).  @raise Invalid_argument on a negative-cost cycle. *)
let run g ~source ~sink =
  let n = Graph.node_count g in
  let raw = Graph.raw g in
  let heads = raw.Graph.r_heads
  and caps = raw.Graph.r_caps
  and costs = raw.Graph.r_costs
  and next = raw.Graph.r_next
  and first = raw.Graph.r_first in
  let dist = Array.make n infinity
  and pred = Array.make n (-1)
  and in_queue = Array.make n false
  and relaxations = Array.make n 0 in
  (* One shortest path by SPFA; a node relaxed more than n times means a
     negative cycle.  Returns true when the sink is reachable. *)
  let shortest_path () =
    Array.fill dist 0 n infinity;
    Array.fill pred 0 n (-1);
    Array.fill relaxations 0 n 0;
    let queue = Queue.create () in
    dist.(source) <- 0.0;
    Queue.push source queue;
    in_queue.(source) <- true;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      in_queue.(u) <- false;
      let a = ref first.(u) in
      while !a <> -1 do
        let arc = !a in
        a := next.(arc);
        if caps.(arc) > 0 then begin
          let v = heads.(arc) in
          let nd = dist.(u) +. costs.(arc) in
          if nd < dist.(v) -. epsilon then begin
            dist.(v) <- nd;
            pred.(v) <- arc;
            if not in_queue.(v) then begin
              relaxations.(v) <- relaxations.(v) + 1;
              if relaxations.(v) > n then
                invalid_arg "Spfa.run: negative-cost cycle in input";
              Queue.push v queue;
              in_queue.(v) <- true
            end
          end
        end
      done
    done;
    dist.(sink) < infinity
  in
  let flow = ref 0 and cost = ref 0.0 in
  while shortest_path () do
    let rec bottleneck v acc =
      if v = source then acc
      else
        let a = pred.(v) in
        bottleneck heads.(a lxor 1) (min acc caps.(a))
    in
    let amount = bottleneck sink max_int in
    let rec augment v =
      if v <> source then begin
        let a = pred.(v) in
        Graph.push g a amount;
        augment heads.(a lxor 1)
      end
    in
    augment sink;
    flow := !flow + amount;
    cost := !cost +. (float_of_int amount *. dist.(sink))
  done;
  (!flow, !cost)
