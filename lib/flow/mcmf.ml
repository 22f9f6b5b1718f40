type result = {
  flow : int;
  cost : float;
  rounds : int;
  exhausted : bool;
}

type budget = Rounds of int

(* Tolerance for reduced-cost non-negativity under float arithmetic. *)
let epsilon = 1e-9

(* Solver metrics, registered once and free while metrics are disabled.
   The [solver] label predates the single engine; dashboards and the
   repository benchmark select on it. *)
let labels = [ ("solver", "sspa") ]

let m_runs =
  Ltc_util.Metrics.counter ~help:"min-cost-flow solver invocations" ~labels
    "ltc_flow_mcmf_runs_total"

let m_rounds =
  Ltc_util.Metrics.counter ~help:"augmenting rounds (shortest-path solves)"
    ~labels "ltc_flow_mcmf_rounds_total"

let m_flow =
  Ltc_util.Metrics.counter ~help:"total flow units pushed" ~labels
    "ltc_flow_mcmf_pushed_flow_total"

let m_bf_rounds =
  Ltc_util.Metrics.counter
    ~help:"Bellman-Ford relaxation sweeps while initialising potentials"
    ~labels "ltc_flow_mcmf_bellman_ford_rounds_total"

let m_dijkstra =
  Ltc_util.Metrics.counter ~help:"Dijkstra passes over the reduced graph"
    ~labels "ltc_flow_mcmf_dijkstra_passes_total"

let m_arcs =
  Ltc_util.Metrics.counter
    ~help:"arcs scanned out of settled nodes by Dijkstra passes" ~labels
    "ltc_flow_mcmf_arcs_scanned_total"

let m_relax =
  Ltc_util.Metrics.counter
    ~help:"labels lowered through an arc (heap inserts and decrease-keys)"
    ~labels "ltc_flow_mcmf_relaxations_total"

(* ------------------------------------------------------ reusable workspace *)

(* Per-solve scratch: potentials, Dijkstra labels and heap.  Labels are
   validated by an epoch stamp instead of O(n) fills, so a shortest-path
   pass touching few nodes costs what it touches, not the node count. *)
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

let workspace_capacity ws = Array.length ws.pot

(* Grows the arrays to [n] nodes.  Nothing needs carrying over: Bellman-Ford
   rewrites every potential a solve reads, and a fresh stamp of 0 is below
   every epoch a pass will use, so grown labels read as unvisited. *)
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

(* ------------------------------------------------- potential initialiser *)

(* Bellman-Ford over residual arcs; fills [pot] with shortest-path distances
   from [source] (unreachable nodes keep 0, which is safe: they can only be
   reached later through reachable nodes, whose potentials are exact).  On
   an LTC batch network, whose arcs are appended in topological order of
   their tails (source -> workers -> tasks -> sink), the first sweep
   reaches the fixpoint and the second only confirms it: one O(E) sweep
   per batch beside hundreds of Dijkstra passes. *)
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
        (* The source of arc [a] is the head of its reverse. *)
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

(* --------------------------------------------------------------------- run *)

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
  (* Dijkstra on reduced costs, stopping as soon as the sink settles.
     Labels are valid only where [stamp.(v)] equals this pass's epoch —
     unstamped nodes read as dist = infinity, unsettled, which replaces the
     three O(n) fills the allocation-per-run solver paid per pass.  The
     heap is keyed on [dist] itself, so a pass allocates nothing; its work
     is counted in registers and added to the run's totals once.
     Returns true when the sink is reachable. *)
  let epoch = ref ws.epoch in
  let arcs_scanned = ref 0 and relaxations = ref 0 in
  let dijkstra () =
    incr epoch;
    let ep = !epoch in
    Node_heap.clear heap;
    Array.unsafe_set dist source 0.0;
    Array.unsafe_set stamp source ep;
    Bytes.unsafe_set settled source '\000';
    Node_heap.push heap ~keys:dist source;
    let scanned = ref 0 and relaxed = ref 0 in
    let reached_sink = ref false in
    let continue = ref true in
    while !continue do
      let u = Node_heap.pop heap in
      if u < 0 then continue := false
      else begin
        Bytes.unsafe_set settled u '\001';
        if u = sink then begin
          reached_sink := true;
          continue := false
        end
        else begin
          let d = Array.unsafe_get dist u in
          let pot_u = Array.unsafe_get pot u in
          let a = ref (Array.unsafe_get first u) in
          while !a <> -1 do
            let arc = !a in
            a := Array.unsafe_get next arc;
            incr scanned;
            if Array.unsafe_get caps arc > 0 then begin
              let v = Array.unsafe_get heads arc in
              let stamped = Array.unsafe_get stamp v = ep in
              if
                (not stamped) || Bytes.unsafe_get settled v = '\000'
              then begin
                let reduced =
                  Array.unsafe_get costs arc
                  +. pot_u
                  -. Array.unsafe_get pot v
                in
                let reduced = if reduced < 0.0 then 0.0 else reduced in
                let nd = d +. reduced in
                let dv =
                  if stamped then Array.unsafe_get dist v else infinity
                in
                if nd < dv -. epsilon then begin
                  Array.unsafe_set dist v nd;
                  Array.unsafe_set pred v arc;
                  if not stamped then begin
                    Array.unsafe_set stamp v ep;
                    Bytes.unsafe_set settled v '\000'
                  end;
                  incr relaxed;
                  Node_heap.push heap ~keys:dist v
                end
              end
            end
          done
        end
      end
    done;
    arcs_scanned := !arcs_scanned + !scanned;
    relaxations := !relaxations + !relaxed;
    !reached_sink
  in
  Ltc_util.Metrics.Counter.incr m_runs;
  let total_flow = ref 0 in
  let total_cost = ref 0.0 in
  let rounds = ref 0 in
  (* Anytime budget: checked before each shortest-path pass, so a budgeted
     run always returns a flow that is a valid prefix of the exact run's
     augmentation sequence (SSPA's prefix-optimality: the first k routed
     units form a min-cost k-flow). *)
  let round_budget =
    match budget with
    | None -> max_int
    | Some (Rounds r) ->
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
    (* True (unreduced) cost of the found path. *)
    let path_cost = dist.(sink) +. pot.(sink) -. pot.(source) in
    incr rounds;
    (* Early-exit potential update: unsettled nodes advance by the sink
       distance, settled ones by their own distance. *)
    let d_sink = dist.(sink) in
    for v = 0 to n - 1 do
      let dv =
        if Array.unsafe_get stamp v = ep then Array.unsafe_get dist v
        else infinity
      in
      pot.(v) <- pot.(v) +. Float.min dv d_sink
    done;
    (* Bottleneck along the predecessor chain. *)
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
  { flow = !total_flow; cost = !total_cost; rounds = !rounds;
    exhausted = !exhausted }
