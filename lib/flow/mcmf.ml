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
    ~help:
      "arcs in the adjacency of nodes settled by Dijkstra passes (saturated \
       included)"
    ~labels "ltc_flow_mcmf_arcs_scanned_total"

let m_relax =
  Ltc_util.Metrics.counter
    ~help:"labels lowered through an arc (heap inserts and decrease-keys)"
    ~labels "ltc_flow_mcmf_relaxations_total"

(* ------------------------------------------------------ reusable workspace *)

(* Per-solve scratch: potentials, Dijkstra labels, heap and residual lists.
   Labels are validated by an epoch mark instead of O(n) fills, so a
   shortest-path pass touching few nodes costs what it touches, not the
   node count.  A node's residual list holds exactly its arcs of capacity
   > 0, in adjacency order, as a doubly linked list over arc ids; it is
   built the first time a run expands the node, and [list_run] says
   whether it belongs to the current run. *)
type workspace = {
  mutable pot : float array;
  mutable dist : float array;
  mutable pred : int array;
  mutable mark : int array;
      (* 2·epoch: labelled by the current pass, 2·epoch + 1: settled by
         it; anything smaller: unvisited (dist/pred stale) *)
  mutable epoch : int;
  heap : Node_heap.t;
  mutable list_head : int array;  (* first arc of v's residual list, -1 *)
  mutable list_run : int array;
      (* 2v: run that built v's list; 2v + 1: v's adjacency length *)
  mutable list_next : int array;  (* per arc: next arc of its tail's list *)
  mutable list_prev : int array;  (* per arc: previous arc, -1 at the head *)
  mutable run : int;
}

let make_workspace ~nodes ~arcs =
  {
    pot = Array.make nodes 0.0;
    dist = Array.make nodes infinity;
    pred = Array.make nodes (-1);
    mark = Array.make nodes 0;
    epoch = 0;
    heap = Node_heap.create ~n:nodes;
    list_head = Array.make nodes (-1);
    list_run = Array.make (2 * nodes) 0;
    list_next = Array.make arcs (-1);
    list_prev = Array.make arcs (-1);
    run = 0;
  }

let create_workspace ?(hint = 16) () =
  let hint = max hint 1 in
  make_workspace ~nodes:hint ~arcs:(2 * hint)

let workspace_capacity ws = Array.length ws.pot

(* Grows the arrays to [n] nodes and [arcs] arc slots.  Nothing needs
   carrying over: Bellman-Ford rewrites every potential a solve reads, a
   fresh mark of 0 is below every epoch a pass will use, so grown labels
   read as unvisited, and a fresh run stamp of 0 is below every run, so
   every list reads as not built. *)
let ensure_workspace ws ~n ~arcs =
  let old = Array.length ws.pot in
  if n > old then begin
    let cap = max n (2 * old) in
    ws.pot <- Array.make cap 0.0;
    ws.dist <- Array.make cap infinity;
    ws.pred <- Array.make cap (-1);
    ws.mark <- Array.make cap 0;
    ws.list_head <- Array.make cap (-1);
    ws.list_run <- Array.make (2 * cap) 0;
    Node_heap.ensure_capacity ws.heap ~n:cap
  end;
  let old = Array.length ws.list_next in
  if arcs > old then begin
    let cap = max arcs (2 * old) in
    ws.list_next <- Array.make cap (-1);
    ws.list_prev <- Array.make cap (-1)
  end

(* ------------------------------------------------------- residual lists *)

(* Builds [u]'s residual list for run [run] from the current capacities,
   walking its adjacency once, and records the adjacency length. *)
let build_list ws (raw : Graph.raw) ~run u =
  let caps = raw.Graph.r_caps and next = raw.Graph.r_next in
  let list_next = ws.list_next and list_prev = ws.list_prev in
  let last = ref (-1) and degree = ref 0 in
  let a = ref (Array.unsafe_get raw.Graph.r_first u) in
  while !a <> -1 do
    let arc = !a in
    a := Array.unsafe_get next arc;
    incr degree;
    if Array.unsafe_get caps arc > 0 then begin
      Array.unsafe_set list_prev arc !last;
      if !last = -1 then Array.unsafe_set ws.list_head u arc
      else Array.unsafe_set list_next !last arc;
      last := arc
    end
  done;
  if !last = -1 then Array.unsafe_set ws.list_head u (-1)
  else Array.unsafe_set list_next !last (-1);
  Array.unsafe_set ws.list_run (2 * u) run;
  Array.unsafe_set ws.list_run ((2 * u) + 1) !degree

(* Removes [arc], whose capacity just dropped to 0, from its tail [u]'s
   list. *)
let unlink ws u arc =
  let p = Array.unsafe_get ws.list_prev arc
  and q = Array.unsafe_get ws.list_next arc in
  if p = -1 then Array.unsafe_set ws.list_head u q
  else Array.unsafe_set ws.list_next p q;
  if q <> -1 then Array.unsafe_set ws.list_prev q p

(* Puts [arc], which just regained capacity, back into its tail [v]'s list
   after the last arc of the list that precedes it in [v]'s adjacency, so
   the list keeps adjacency order.  Every other arc of [v] is in the list
   exactly when its capacity is > 0. *)
let relink ws (raw : Graph.raw) v arc =
  let caps = raw.Graph.r_caps and next = raw.Graph.r_next in
  let p = ref (-1) and b = ref (Array.unsafe_get raw.Graph.r_first v) in
  while !b <> arc do
    if Array.unsafe_get caps !b > 0 then p := !b;
    b := Array.unsafe_get next !b
  done;
  let p = !p in
  let q =
    if p = -1 then Array.unsafe_get ws.list_head v
    else Array.unsafe_get ws.list_next p
  in
  Array.unsafe_set ws.list_prev arc p;
  Array.unsafe_set ws.list_next arc q;
  if p = -1 then Array.unsafe_set ws.list_head v arc
  else Array.unsafe_set ws.list_next p arc;
  if q <> -1 then Array.unsafe_set ws.list_prev q arc

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
  and costs = raw.Graph.r_costs in
  let ws =
    match workspace with
    | Some ws ->
      ensure_workspace ws ~n ~arcs:raw.Graph.r_len;
      ws
    | None -> make_workspace ~nodes:n ~arcs:raw.Graph.r_len
  in
  let pot = ws.pot
  and dist = ws.dist
  and pred = ws.pred
  and mark = ws.mark
  and heap = ws.heap
  and list_run = ws.list_run
  and list_head = ws.list_head
  and list_next = ws.list_next in
  (* Lists built by an earlier run are stale: the graph may have been
     cleared, refilled or pushed since. *)
  ws.run <- ws.run + 1;
  let run = ws.run in
  bellman_ford raw ~n ~source pot;
  (* Dijkstra on reduced costs, stopping as soon as the sink settles.
     Labels are valid only where [mark.(v)] is at least this pass's
     [2·epoch] — older marks read as dist = infinity, unsettled, which
     replaces the three O(n) fills the allocation-per-run solver paid per
     pass.  A settled node's residual list holds its arcs of capacity > 0
     in adjacency order; the arcs of capacity 0 it skips were the only
     ones the full adjacency walk stepped past without a relaxation, so
     the relaxations, and the heap's pops, come in the same order.  The
     heap is keyed on [dist] itself, so a pass allocates nothing; its
     work is counted in registers and added to the run's totals once.
     Returns true when the sink is reachable. *)
  let epoch = ref ws.epoch in
  let arcs_scanned = ref 0 and relaxations = ref 0 in
  let dijkstra () =
    incr epoch;
    let labelled = 2 * !epoch in
    let settled = labelled + 1 in
    Node_heap.clear heap;
    Array.unsafe_set dist source 0.0;
    Array.unsafe_set mark source labelled;
    Node_heap.push heap ~keys:dist source;
    let scanned = ref 0 and relaxed = ref 0 in
    let reached_sink = ref false in
    let continue = ref true in
    while !continue do
      let u = Node_heap.pop heap in
      if u < 0 then continue := false
      else begin
        Array.unsafe_set mark u settled;
        if u = sink then begin
          reached_sink := true;
          continue := false
        end
        else begin
          if Array.unsafe_get list_run (2 * u) <> run then
            build_list ws raw ~run u;
          (* The arcs of [u]'s whole adjacency, saturated included. *)
          scanned := !scanned + Array.unsafe_get list_run ((2 * u) + 1);
          let d = Array.unsafe_get dist u in
          let pot_u = Array.unsafe_get pot u in
          let a = ref (Array.unsafe_get list_head u) in
          while !a <> -1 do
            let arc = !a in
            a := Array.unsafe_get list_next arc;
            let v = Array.unsafe_get heads arc in
            let m = Array.unsafe_get mark v in
            if m < settled then begin
              let reduced =
                Array.unsafe_get costs arc +. pot_u -. Array.unsafe_get pot v
              in
              let reduced = if reduced < 0.0 then 0.0 else reduced in
              let nd = d +. reduced in
              (* An unvisited node's label reads as infinity, which any
                 finite [nd] lowers. *)
              if m <> labelled || nd < Array.unsafe_get dist v -. epsilon
              then begin
                Array.unsafe_set dist v nd;
                Array.unsafe_set pred v arc;
                Array.unsafe_set mark v labelled;
                incr relaxed;
                Node_heap.push heap ~keys:dist v
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
    let settled = (2 * !epoch) + 1 in
    (* True (unreduced) cost of the found path. *)
    let path_cost = dist.(sink) +. pot.(sink) -. pot.(source) in
    incr rounds;
    (* Early-exit potential update: unsettled nodes advance by the sink
       distance, settled ones by their own distance.  The pass pops keys
       in non-decreasing order, so a settled node's distance is at most
       the sink's and a labelled one still queued is at least the sink's:
       this is [Float.min dist.(v) d_sink] over the labelled nodes, and
       [d_sink] elsewhere, bit for bit, without its sign tests. *)
    let d_sink = dist.(sink) in
    for v = 0 to n - 1 do
      let dv =
        if Array.unsafe_get mark v = settled then Array.unsafe_get dist v
        else d_sink
      in
      Array.unsafe_set pot v (Array.unsafe_get pot v +. dv)
    done;
    (* Bottleneck along the predecessor chain. *)
    let amount = ref (max_flow - !total_flow) in
    let v = ref sink in
    while !v <> source do
      let a = pred.(!v) in
      if caps.(a) < !amount then amount := caps.(a);
      v := heads.(a lxor 1)
    done;
    let amount = !amount in
    (* Augment, keeping the residual lists in step: every arc on the path
       was relaxed out of a node expanded this run, so it is in its tail's
       list; its reverse's tail [v] has a list only if it was expanded too
       (the sink never is). *)
    let v = ref sink in
    while !v <> source do
      let a = pred.(!v) in
      let u = heads.(a lxor 1) in
      Graph.push g a amount;
      if caps.(a) = 0 then unlink ws u a;
      if caps.(a lxor 1) = amount && list_run.(2 * !v) = run then
        relink ws raw !v (a lxor 1);
      v := u
    done;
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
