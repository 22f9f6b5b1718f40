type result = {
  flow : int;
  cost : float;
  rounds : int;
  exhausted : bool;
}

type budget =
  | Rounds of int
  | Deadline_s of float

(* Tolerance for reduced-cost non-negativity under float arithmetic. *)
let epsilon = 1e-9

(* Shared solver metrics, one series per solver backend; registered once
   and free while metrics are disabled. *)
let solver_metrics solver =
  let labels = [ ("solver", solver) ] in
  ( Ltc_util.Metrics.counter ~help:"min-cost-flow solver invocations" ~labels
      "ltc_flow_mcmf_runs_total",
    Ltc_util.Metrics.counter ~help:"augmenting rounds (shortest-path solves)"
      ~labels "ltc_flow_mcmf_rounds_total",
    Ltc_util.Metrics.counter ~help:"total flow units pushed" ~labels
      "ltc_flow_mcmf_pushed_flow_total" )

let m_runs, m_rounds, m_flow = solver_metrics "sspa"

let m_bf_rounds =
  Ltc_util.Metrics.counter
    ~help:"Bellman-Ford relaxation sweeps while initialising potentials"
    ~labels:[ ("solver", "sspa") ]
    "ltc_flow_mcmf_bellman_ford_rounds_total"

let m_dijkstra =
  Ltc_util.Metrics.counter ~help:"Dijkstra passes over the reduced graph"
    ~labels:[ ("solver", "sspa") ]
    "ltc_flow_mcmf_dijkstra_passes_total"

let m_dag_inits =
  Ltc_util.Metrics.counter
    ~help:"single-pass topological potential initialisations"
    ~labels:[ ("solver", "sspa") ]
    "ltc_flow_mcmf_dag_inits_total"

(* ------------------------------------------------------ reusable workspace *)

(* Per-solve scratch: potentials, Dijkstra labels and heap, plus the SPFA
   ring/counters {!Mcmf_spfa} borrows.  Labels are validated by an epoch
   stamp instead of O(n) fills, so a shortest-path pass touching few nodes
   costs what it touches, not the node count. *)
type workspace = {
  mutable pot : float array;
  mutable dist : float array;
  mutable pred : int array;
  mutable stamp : int array;   (* dist/pred/flag valid iff stamp.(v) = epoch *)
  mutable flag : Bytes.t;      (* Dijkstra: settled; SPFA: in-queue *)
  mutable epoch : int;
  heap : Node_heap.t;
  mutable ring : int array;    (* SPFA FIFO ring buffer *)
  mutable counts : int array;  (* SPFA relaxation counters *)
  (* Nodes stamped by the current Dijkstra pass, recorded only under
     [`Keep] so the potential update can walk the touched set instead of
     all n nodes — the part that makes incremental resolves sub-linear. *)
  mutable touched : int array;
  mutable n_touched : int;
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
    ring = [||];
    counts = [||];
    touched = Array.make hint 0;
    n_touched = 0;
  }

let workspace_capacity ws = Array.length ws.pot

let ensure_workspace ws ~n =
  let old = Array.length ws.pot in
  if n > old then begin
    let cap = max n (2 * old) in
    let pot = Array.make cap 0.0 in
    Array.blit ws.pot 0 pot 0 old;
    ws.pot <- pot;
    let dist = Array.make cap infinity in
    Array.blit ws.dist 0 dist 0 old;
    ws.dist <- dist;
    let pred = Array.make cap (-1) in
    Array.blit ws.pred 0 pred 0 old;
    ws.pred <- pred;
    (* Fresh stamps are 0 and the epoch only grows from 0, so grown slots
       can never masquerade as currently-valid labels. *)
    let stamp = Array.make cap 0 in
    Array.blit ws.stamp 0 stamp 0 old;
    ws.stamp <- stamp;
    let flag = Bytes.make cap '\000' in
    Bytes.blit ws.flag 0 flag 0 old;
    ws.flag <- flag;
    (* The touched list is reset per pass; stale contents never survive. *)
    ws.touched <- Array.make cap 0;
    Node_heap.ensure_capacity ws.heap ~n:cap
  end

let borrow_potentials ws = ws.pot

let copy_potentials ws ~n =
  if n < 0 || n > Array.length ws.pot then
    invalid_arg "Mcmf.copy_potentials: n out of range";
  Array.sub ws.pot 0 n

(* SPFA-side scratch (ring + relax counters); stale contents are masked by
   the epoch stamp, so growth can drop old values. *)
let ensure_spfa_scratch ws ~n =
  ensure_workspace ws ~n;
  if Array.length ws.ring < n then begin
    let cap = Array.length ws.pot in
    ws.ring <- Array.make cap 0;
    ws.counts <- Array.make cap 0
  end

let ws_dist ws = ws.dist
let ws_pred ws = ws.pred
let ws_stamp ws = ws.stamp
let ws_flag ws = ws.flag
let ws_ring ws = ws.ring
let ws_counts ws = ws.counts
let ws_epoch ws = ws.epoch
let ws_set_epoch ws e = ws.epoch <- e

(* ---------------------------------------------------- potential initialisers *)

type potential_init = [ `Bellman_ford | `Dag_topo | `Keep ]

(* Bellman-Ford over residual arcs; fills [pot] with shortest-path distances
   from [source] (unreachable nodes keep 0, which is safe: they can only be
   reached later through reachable nodes, whose potentials are exact). *)
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

(* Single relaxation sweep in arc-insertion order.  When arcs were appended
   in topological order of their tails — true of every LTC batch network:
   source -> workers -> tasks -> sink — one sweep reaches the exact
   Bellman-Ford fixpoint (BF's first round performs this identical
   relaxation sequence and its second round only verifies convergence), so
   the potentials are bit-for-bit the Bellman-Ford ones at half the cost
   and without the convergence re-scan. *)
let dag_topo_init (raw : Graph.raw) ~n ~source pot =
  Ltc_util.Metrics.Counter.incr m_dag_inits;
  Array.fill pot 0 n infinity;
  pot.(source) <- 0.0;
  for a = 0 to raw.Graph.r_len - 1 do
    if raw.Graph.r_caps.(a) > 0 then begin
      let u = raw.Graph.r_heads.(a lxor 1) in
      let v = raw.Graph.r_heads.(a) in
      if pot.(u) < infinity then begin
        let d = pot.(u) +. raw.Graph.r_costs.(a) in
        if d < pot.(v) -. epsilon then pot.(v) <- d
      end
    end
  done;
  for v = 0 to n - 1 do
    if pot.(v) = infinity then pot.(v) <- 0.0
  done

let init_potentials (raw : Graph.raw) ~n ~source ~init pot =
  match init with
  | `Keep -> ()
  | `Bellman_ford -> bellman_ford raw ~n ~source pot
  | `Dag_topo -> dag_topo_init raw ~n ~source pot

(* --------------------------------------------------------------------- run *)

let run ?(max_flow = max_int) ?(stop_on_nonnegative = false) ?workspace
    ?(init = `Bellman_ford) ?budget g ~source ~sink =
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
  and touched = ws.touched
  and heap = ws.heap in
  init_potentials raw ~n ~source ~init pot;
  (* [`Keep] doubles as the incremental-resolve mode: potentials are
     trusted as-is {e and} the per-round potential update walks only the
     nodes this pass touched.  That sparse update differs from the dense
     one by a uniform [-d_sink] shift across all nodes (untouched nodes
     advance by [d_sink] in the dense form, by [0] here), and uniform
     shifts leave every reduced cost — and the [path_cost] difference
     below — unchanged, so flows and costs agree with the dense update in
     exact arithmetic. *)
  let sparse = match init with `Keep -> true | _ -> false in
  (* Dijkstra on reduced costs, stopping as soon as the sink settles.
     Labels are valid only where [stamp.(v)] equals this pass's epoch —
     unstamped nodes read as dist = infinity, unsettled, which replaces the
     three O(n) fills the allocation-per-run solver paid per pass.
     Returns true when the sink is reachable. *)
  let epoch = ref ws.epoch in
  let dijkstra () =
    incr epoch;
    let ep = !epoch in
    Node_heap.clear heap;
    Array.unsafe_set dist source 0.0;
    Array.unsafe_set stamp source ep;
    Bytes.unsafe_set settled source '\000';
    if sparse then begin
      Array.unsafe_set touched 0 source;
      ws.n_touched <- 1
    end;
    Node_heap.push_or_decrease heap source 0.0;
    let reached_sink = ref false in
    let continue = ref true in
    while !continue do
      match Node_heap.pop_min heap with
      | None -> continue := false
      | Some (u, d) ->
        Bytes.unsafe_set settled u '\001';
        if u = sink then begin
          reached_sink := true;
          continue := false
        end
        else begin
          let pot_u = Array.unsafe_get pot u in
          let a = ref (Array.unsafe_get first u) in
          while !a <> -1 do
            let arc = !a in
            a := Array.unsafe_get next arc;
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
                    Bytes.unsafe_set settled v '\000';
                    if sparse then begin
                      Array.unsafe_set touched ws.n_touched v;
                      ws.n_touched <- ws.n_touched + 1
                    end
                  end;
                  Node_heap.push_or_decrease heap v nd
                end
              end
            end
          done
        end
    done;
    !reached_sink
  in
  Ltc_util.Metrics.Counter.incr m_runs;
  let total_flow = ref 0 in
  let total_cost = ref 0.0 in
  let rounds = ref 0 in
  let continue = ref true in
  (* Anytime budget: checked before each shortest-path pass, so a budgeted
     run always returns a flow that is a valid prefix of the exact run's
     augmentation sequence (SSPA's prefix-optimality: the first k routed
     units form a min-cost k-flow). *)
  let round_budget, deadline =
    match budget with
    | None -> (max_int, infinity)
    | Some (Rounds r) ->
      if r < 0 then invalid_arg "Mcmf.run: negative round budget";
      (r, infinity)
    | Some (Deadline_s d) ->
      if not (d >= 0.0) then invalid_arg "Mcmf.run: negative deadline budget";
      (max_int, Ltc_util.Fault.Clock.now_s () +. d)
  in
  let exhausted = ref false in
  let within_budget () =
    if
      !rounds >= round_budget
      || (deadline < infinity && Ltc_util.Fault.Clock.now_s () > deadline)
    then begin
      exhausted := true;
      false
    end
    else true
  in
  while
    !continue && !total_flow < max_flow
    && within_budget ()
    &&
    (Ltc_util.Metrics.Counter.incr m_dijkstra;
     dijkstra ())
  do
    let ep = !epoch in
    (* True (unreduced) cost of the found path. *)
    let path_cost = dist.(sink) +. pot.(sink) -. pot.(source) in
    if stop_on_nonnegative && path_cost >= -.epsilon then continue := false
    else begin
      incr rounds;
      (* Early-exit potential update: unsettled nodes advance by the sink
         distance, settled ones by their own distance.  In sparse mode the
         same update is applied modulo a uniform [-d_sink] shift, visiting
         only touched nodes (untouched ones advance by 0 instead of
         [d_sink]); reduced costs are identical either way. *)
      let d_sink = dist.(sink) in
      if sparse then
        for k = 0 to ws.n_touched - 1 do
          let v = Array.unsafe_get touched k in
          let dv = Array.unsafe_get dist v in
          if dv < d_sink then pot.(v) <- pot.(v) +. (dv -. d_sink)
        done
      else
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
    end
  done;
  ws.epoch <- !epoch;
  Ltc_util.Metrics.Counter.add m_rounds !rounds;
  Ltc_util.Metrics.Counter.add m_flow !total_flow;
  { flow = !total_flow; cost = !total_cost; rounds = !rounds;
    exhausted = !exhausted }
