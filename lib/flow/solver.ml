(* The incremental session keeps one residual network alive across batches:

     node 0        source
     node 1        sink
     nodes 2..     persistent unit (task) nodes, one per [set_unit] id
     nodes above   transient worker nodes of the open batch

   Persistent arcs (unit -> sink) occupy the arena prefix [0, base_len);
   batch arcs (source -> worker, worker -> unit) are appended above it and
   retracted by [Graph.truncate] at [end_batch].  The workspace potentials
   are never re-initialised ([`Keep]): feasibility (non-negative reduced
   costs on every residual arc) is maintained by local repairs —
     - a new worker starts at the source's potential (its 0-cost arc from
       the source is then tight);
     - inserting a link lowers the unit's potential to [pot(worker) + cost]
       when the new arc undercuts it, and [sink_bound] accumulates the
       lowest such value so the sink's potential can be lowered once per
       resolve (the sink has no residual out-arcs between batches, so
       lowering it cannot break anything);
     - [set_unit] raises a re-capacitated unit's potential back to the
       sink's (its fresh 0-cost sink arc needs [pot(unit) >= pot(sink)];
       raising is safe because between batches a unit node has no residual
       in-arcs).  *)
type t = {
  sg : Graph.t;
  sws : Mcmf.workspace;
  mutable unit_node : int array;  (* unit id -> node, -1 undeclared *)
  mutable unit_arc : int array;   (* unit id -> its sink arc *)
  mutable n_units : int;
  mutable base_len : int;         (* arc slots of the persistent plane *)
  mutable stage : [ `Idle | `Open | `Solved ];
  mutable worker_base : int;      (* first worker node of the open batch *)
  mutable n_workers : int;
  mutable sink_bound : float;     (* pending sink-potential repair *)
}

let source = 0
let sink = 1

let m_resolves =
  Ltc_util.Metrics.counter ~help:"incremental batch resolves"
    ~labels:[ ("solver", "incremental") ]
    "ltc_flow_incremental_resolves_total"

let m_links =
  Ltc_util.Metrics.counter ~help:"links inserted into incremental batches"
    ~labels:[ ("solver", "incremental") ]
    "ltc_flow_incremental_links_total"

let create ?(hint = 16) () =
  let sws = Mcmf.create_workspace ~hint:(max hint 2) () in
  Mcmf.ensure_workspace sws ~n:2;
  let sg = Graph.create ~n:2 in
  Graph.reserve sg ~nodes:(max hint 2) ~arcs:(max hint 2);
  {
    sg;
    sws;
    unit_node = Array.make (max hint 16) (-1);
    unit_arc = Array.make (max hint 16) (-1);
    n_units = 0;
    base_len = 0;
    stage = `Idle;
    worker_base = 2;
    n_workers = 0;
    sink_bound = infinity;
  }

let memory_words s =
  Graph.memory_words s.sg
  + (8 * Graph.node_count s.sg)
  + (2 * Array.length s.unit_node)

let ensure_units s u =
  let len = Array.length s.unit_node in
  if u >= len then begin
    let cap = max (u + 1) (2 * len) in
    let grow a =
      let b = Array.make cap (-1) in
      Array.blit a 0 b 0 len;
      b
    in
    s.unit_node <- grow s.unit_node;
    s.unit_arc <- grow s.unit_arc
  end

type link = Graph.arc

let set_unit s ~unit_id ~cap =
  if s.stage <> `Idle then
    invalid_arg "Solver.set_unit: batch in progress";
  if unit_id < 0 then invalid_arg "Solver.set_unit: negative unit id";
  if cap < 0 then invalid_arg "Solver.set_unit: negative capacity";
  ensure_units s unit_id;
  if s.unit_node.(unit_id) = -1 then begin
    let node = 2 + s.n_units in
    s.n_units <- s.n_units + 1;
    Graph.grow_nodes s.sg ~n:(node + 1);
    let arc = Graph.add_arc s.sg ~src:node ~dst:sink ~cap ~cost:0.0 in
    s.unit_node.(unit_id) <- node;
    s.unit_arc.(unit_id) <- arc;
    s.base_len <- Graph.arc_slots s.sg;
    Mcmf.ensure_workspace s.sws ~n:(node + 1);
    let pot = Mcmf.borrow_potentials s.sws in
    (* Feasible and tight for the fresh 0-cost sink arc. *)
    pot.(node) <- pot.(sink)
  end
  else begin
    let node = s.unit_node.(unit_id) in
    Graph.set_capacity s.sg s.unit_arc.(unit_id) cap;
    let pot = Mcmf.borrow_potentials s.sws in
    (* Raising is safe: between batches a unit node has no residual
       in-arcs (worker arcs are retracted, its sink reverse was zeroed
       just now). *)
    if cap > 0 && pot.(node) < pot.(sink) then pot.(node) <- pot.(sink)
  end

let begin_batch s =
  if s.stage <> `Idle then invalid_arg "Solver.begin_batch: batch already open";
  s.stage <- `Open;
  s.worker_base <- 2 + s.n_units;
  s.n_workers <- 0;
  s.sink_bound <- infinity

let add_worker s ~cap =
  if s.stage <> `Open then invalid_arg "Solver.add_worker: no open batch";
  if cap < 0 then invalid_arg "Solver.add_worker: negative capacity";
  let node = s.worker_base + s.n_workers in
  s.n_workers <- s.n_workers + 1;
  Graph.grow_nodes s.sg ~n:(node + 1);
  ignore (Graph.add_arc s.sg ~src:source ~dst:node ~cap ~cost:0.0);
  Mcmf.ensure_workspace s.sws ~n:(node + 1);
  let pot = Mcmf.borrow_potentials s.sws in
  (* Tight for the 0-cost source arc; link insertions repair below it. *)
  pot.(node) <- pot.(source);
  s.n_workers - 1

let add_link s ~worker ~unit_id ~cost =
  if s.stage <> `Open then invalid_arg "Solver.add_link: no open batch";
  if worker < 0 || worker >= s.n_workers then
    invalid_arg "Solver.add_link: unknown worker handle";
  let tnode =
    if unit_id >= 0 && unit_id < Array.length s.unit_node then
      s.unit_node.(unit_id)
    else -1
  in
  if tnode = -1 then invalid_arg "Solver.add_link: undeclared unit";
  let wnode = s.worker_base + worker in
  let arc = Graph.add_arc s.sg ~src:wnode ~dst:tnode ~cap:1 ~cost in
  Ltc_util.Metrics.Counter.incr m_links;
  let pot = Mcmf.borrow_potentials s.sws in
  (* Reduced-cost revalidation: the new arc needs
     [cost + pot(w) - pot(unit) >= 0].  Lowering [pot(unit)] cannot break
     other arcs (in-arcs only gain slack; the unit's only residual
     out-arc is its sink arc, covered by the deferred sink repair). *)
  let bound = pot.(wnode) +. cost in
  if bound < pot.(tnode) then begin
    pot.(tnode) <- bound;
    if bound < s.sink_bound then s.sink_bound <- bound
  end;
  arc

let resolve s ?budget () =
  if s.stage <> `Open then invalid_arg "Solver.resolve: no open batch";
  Ltc_util.Metrics.Counter.incr m_resolves;
  let pot = Mcmf.borrow_potentials s.sws in
  (* Deferred dirty-frontier repair: the sink chases the lowest unit
     potential the batch's insertions produced.  Safe to over-lower — the
     sink has no residual out-arcs between batches. *)
  if s.sink_bound < pot.(sink) then pot.(sink) <- s.sink_bound;
  s.sink_bound <- infinity;
  s.stage <- `Solved;
  Mcmf.run s.sg ~workspace:s.sws ~init:`Keep ?budget ~source ~sink

let link_flow s link =
  if s.stage <> `Solved then invalid_arg "Solver.link_flow: resolve first";
  Graph.flow s.sg link

let end_batch s =
  if s.stage = `Idle then invalid_arg "Solver.end_batch: no open batch";
  Graph.truncate s.sg s.base_len;
  s.stage <- `Idle;
  s.n_workers <- 0
