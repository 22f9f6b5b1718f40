(* Reference min-cost-flow solver: the successive-shortest-path run that
   Ltc_flow.Mcmf's residual-list passes replaced, kept as the oracle for
   it.  Each Dijkstra pass walks a settled node's whole adjacency and
   steps past the arcs of capacity 0; labels are validated by an epoch
   [stamp] array beside a [flag] byte per node for "settled by this
   pass".  It keys the same Node_heap and adds to the same four work
   counters as Mcmf, so equal inputs must give equal residuals, cost
   bits, rounds and counter deltas.  Rounds allocate their bottleneck and
   augment closures. *)

open Ltc_flow

let epsilon = 1e-9
let labels = [ ("solver", "sspa") ]
let m_runs = Ltc_util.Metrics.counter ~labels "ltc_flow_mcmf_runs_total"
let m_rounds = Ltc_util.Metrics.counter ~labels "ltc_flow_mcmf_rounds_total"

let m_flow =
  Ltc_util.Metrics.counter ~labels "ltc_flow_mcmf_pushed_flow_total"

let m_bf_rounds =
  Ltc_util.Metrics.counter ~labels "ltc_flow_mcmf_bellman_ford_rounds_total"

let m_dijkstra =
  Ltc_util.Metrics.counter ~labels "ltc_flow_mcmf_dijkstra_passes_total"

let m_arcs = Ltc_util.Metrics.counter ~labels "ltc_flow_mcmf_arcs_scanned_total"

let m_relax =
  Ltc_util.Metrics.counter ~labels "ltc_flow_mcmf_relaxations_total"

type workspace = {
  mutable pot : float array;
  mutable dist : float array;
  mutable pred : int array;
  mutable stamp : int array;   (* dist/pred/flag valid iff stamp.(v) = epoch *)
  mutable flag : Bytes.t;      (* settled by the current pass *)
  mutable epoch : int;
  heap : Node_heap.t;
}

let create_workspace ?(hint = 16) () =
  let hint = max hint 1 in
  {
    pot = Array.make hint 0.0;
    dist = Array.make hint infinity;
    pred = Array.make hint (-1);
    stamp = Array.make hint 0;
    flag = Bytes.make hint '\000';
    epoch = 0;
    heap = Node_heap.create ~n:hint;
  }

let ensure_workspace ws ~n =
  let old = Array.length ws.pot in
  if n > old then begin
    let cap = max n (2 * old) in
    ws.pot <- Array.make cap 0.0;
    ws.dist <- Array.make cap infinity;
    ws.pred <- Array.make cap (-1);
    ws.stamp <- Array.make cap 0;
    ws.flag <- Bytes.make cap '\000';
    Node_heap.ensure_capacity ws.heap ~n:cap
  end

let bellman_ford (raw : Graph.raw) ~n ~source pot =
  Array.fill pot 0 n infinity;
  pot.(source) <- 0.0;
  let changed = ref true in
  let round = ref 0 in
  while !changed && !round < n do
    changed := false;
    incr round;
    Ltc_util.Metrics.Counter.incr m_bf_rounds;
    for a = 0 to raw.Graph.r_len - 1 do
      if raw.Graph.r_caps.(a) > 0 then begin
        let u = raw.Graph.r_heads.(a lxor 1) in
        let v = raw.Graph.r_heads.(a) in
        if pot.(u) < infinity then begin
          let d = pot.(u) +. raw.Graph.r_costs.(a) in
          if d < pot.(v) -. epsilon then begin
            pot.(v) <- d;
            changed := true
          end
        end
      end
    done
  done;
  if !changed then invalid_arg "Mcmf: negative-cost cycle in input";
  for v = 0 to n - 1 do
    if pot.(v) = infinity then pot.(v) <- 0.0
  done

let run ?(max_flow = max_int) ?workspace ?budget g ~source ~sink =
  let n = Graph.node_count g in
  if source < 0 || source >= n || sink < 0 || sink >= n then
    invalid_arg "Mcmf.run: node out of range";
  if source = sink then invalid_arg "Mcmf.run: source = sink";
  let raw = Graph.raw g in
  let heads = raw.Graph.r_heads
  and caps = raw.Graph.r_caps
  and costs = raw.Graph.r_costs
  and next = raw.Graph.r_next
  and first = raw.Graph.r_first in
  let ws =
    match workspace with
    | Some ws ->
      ensure_workspace ws ~n;
      ws
    | None -> create_workspace ~hint:n ()
  in
  let pot = ws.pot
  and dist = ws.dist
  and pred = ws.pred
  and stamp = ws.stamp
  and settled = ws.flag
  and heap = ws.heap in
  bellman_ford raw ~n ~source pot;
  let epoch = ref ws.epoch in
  let arcs_scanned = ref 0 and relaxations = ref 0 in
  let dijkstra () =
    incr epoch;
    let ep = !epoch in
    Node_heap.clear heap;
    dist.(source) <- 0.0;
    stamp.(source) <- ep;
    Bytes.set settled source '\000';
    Node_heap.push heap ~keys:dist source;
    let reached_sink = ref false in
    let continue = ref true in
    while !continue do
      let u = Node_heap.pop heap in
      if u < 0 then continue := false
      else begin
        Bytes.set settled u '\001';
        if u = sink then begin
          reached_sink := true;
          continue := false
        end
        else begin
          let d = dist.(u) in
          let a = ref first.(u) in
          while !a <> -1 do
            let arc = !a in
            a := next.(arc);
            incr arcs_scanned;
            if caps.(arc) > 0 then begin
              let v = heads.(arc) in
              let stamped = stamp.(v) = ep in
              if (not stamped) || Bytes.get settled v = '\000' then begin
                let reduced = costs.(arc) +. pot.(u) -. pot.(v) in
                let reduced = if reduced < 0.0 then 0.0 else reduced in
                let nd = d +. reduced in
                let dv = if stamped then dist.(v) else infinity in
                if nd < dv -. epsilon then begin
                  dist.(v) <- nd;
                  pred.(v) <- arc;
                  if not stamped then begin
                    stamp.(v) <- ep;
                    Bytes.set settled v '\000'
                  end;
                  incr relaxations;
                  Node_heap.push heap ~keys:dist v
                end
              end
            end
          done
        end
      end
    done;
    !reached_sink
  in
  Ltc_util.Metrics.Counter.incr m_runs;
  let total_flow = ref 0 in
  let total_cost = ref 0.0 in
  let rounds = ref 0 in
  let round_budget =
    match budget with
    | None -> max_int
    | Some (Mcmf.Rounds r) ->
      if r < 0 then invalid_arg "Mcmf.run: negative round budget";
      r
  in
  let exhausted = ref false in
  let within_budget () =
    if !rounds >= round_budget then begin
      exhausted := true;
      false
    end
    else true
  in
  while
    !total_flow < max_flow
    && within_budget ()
    &&
    (Ltc_util.Metrics.Counter.incr m_dijkstra;
     dijkstra ())
  do
    let ep = !epoch in
    let path_cost = dist.(sink) +. pot.(sink) -. pot.(source) in
    incr rounds;
    let d_sink = dist.(sink) in
    for v = 0 to n - 1 do
      let dv = if stamp.(v) = ep then dist.(v) else infinity in
      pot.(v) <- pot.(v) +. Float.min dv d_sink
    done;
    let rec bottleneck v acc =
      if v = source then acc
      else begin
        let a = pred.(v) in
        bottleneck heads.(a lxor 1) (min acc caps.(a))
      end
    in
    let amount = min (bottleneck sink max_int) (max_flow - !total_flow) in
    let rec augment v =
      if v <> source then begin
        let a = pred.(v) in
        Graph.push g a amount;
        augment heads.(a lxor 1)
      end
    in
    augment sink;
    total_flow := !total_flow + amount;
    total_cost := !total_cost +. (float_of_int amount *. path_cost)
  done;
  ws.epoch <- !epoch;
  Ltc_util.Metrics.Counter.add m_rounds !rounds;
  Ltc_util.Metrics.Counter.add m_flow !total_flow;
  Ltc_util.Metrics.Counter.add m_arcs !arcs_scanned;
  Ltc_util.Metrics.Counter.add m_relax !relaxations;
  {
    Mcmf.flow = !total_flow;
    cost = !total_cost;
    rounds = !rounds;
    exhausted = !exhausted;
  }
