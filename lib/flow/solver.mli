(** The incremental min-cost-flow session MCF-LTC's [`Incremental]
    backend runs on.

    A session owns a persistent residual network and live potentials.  The
    caller declares demand units once ({!set_unit}), then per batch stacks
    transient worker nodes on top ({!begin_batch} / {!add_worker} /
    {!add_link}), {!resolve}s, reads flows ({!link_flow}) and retracts the
    batch ({!end_batch}).  Between batches only the touched subgraph is
    repaired, so a resolve costs what the delta touches — not the plane
    size.  A from-scratch solve needs no session: build a {!Graph.t} and
    call {!Mcmf.run}.  See DESIGN.md §15 for the potential-repair
    invariants. *)

type t
(** A session: its residual network, unit maps and the {!Mcmf.workspace}
    holding its potentials.  Not domain-safe; one session per concurrent
    run. *)

val create : ?hint:int -> unit -> t
(** An idle session with no units; [hint] pre-sizes its workspace. *)

val memory_words : t -> int
(** Approximate footprint of the session's persistent state: its residual
    network and unit maps (for memory tracking panels). *)

(** {2 Session protocol}

    Calls below enforce the stage discipline [idle -> open -> solved -> idle]:
    {!set_unit} only while idle, {!add_worker}/{!add_link} only while
    open, {!link_flow} only after {!resolve}, {!end_batch} closes either
    way.

    {b Caller obligation}: after a resolve, every unit whose link carried
    flow (or whose demand otherwise changed) must be re-declared with
    {!set_unit} before the next {!begin_batch} — that is what resets its
    residual capacity and repairs its potential.  MCF-LTC tracks exactly
    the tasks it recorded progress against. *)

type link = Graph.arc
(** Token returned by {!add_link}, valid until {!end_batch}. *)

val set_unit : t -> unit_id:int -> cap:int -> unit
(** Declare (first call) or re-dimension (later calls) a demand unit — an
    LTC task: a persistent node with a [cap]-capacity, zero-cost arc to the
    sink.  Re-dimensioning discards any flow previously routed through the
    unit's sink arc and repairs its potential.  [cap = 0] retires the unit
    (it may be revived later).  Unit ids are caller-chosen small
    non-negative ints (task ids).  @raise Invalid_argument while a batch is
    open, or on negative arguments. *)

val begin_batch : t -> unit
(** Open a batch: subsequent workers and links stack above the persistent
    plane and will be retracted by {!end_batch}. *)

val add_worker : t -> cap:int -> int
(** Add a transient supply node with a [cap]-capacity, zero-cost arc from
    the source; returns its batch-local handle (0, 1, ...). *)

val add_link : t -> worker:int -> unit_id:int -> cost:float -> link
(** Add a transient capacity-1 arc from a batch worker to a declared unit,
    revalidating reduced-cost feasibility on insertion (the unit's — and
    transitively the sink's — potential is lowered when the new arc
    undercuts it).  @raise Invalid_argument on an unknown worker handle or
    an undeclared unit. *)

val resolve : t -> ?budget:Mcmf.budget -> unit -> Mcmf.result
(** Solve the current batch incrementally: Dijkstra repair over the live
    potentials ([`Keep]), limited to the subgraph the new arcs make
    reachable.  [budget] is the anytime cutoff of {!Mcmf.run}. *)

val link_flow : t -> link -> int
(** Flow routed through a link by the last {!resolve} (0 or 1). *)

val end_batch : t -> unit
(** Retract the batch's workers and links from the network (the persistent
    plane, its flow residuals and potentials stay live) and return to
    idle. *)
