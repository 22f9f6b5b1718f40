(** Pluggable min-cost-flow solver backends behind one first-class
    interface.

    Before this module, every caller hard-wired a backend: [Mcmf.run] here,
    [Mcmf_spfa.run] there, each with its own [potential_init] plumbing.  A
    {!t} instead bundles a named backend with its reusable workspace, and a
    name-keyed registry (mirroring [Ltc_algo.Algorithm]) lets callers —
    MCF-LTC's config, the CLI, benches — select SSPA, SPFA or the
    incremental session solver without code changes.  Future backends
    (cost-scaling, bucket-Dijkstra) plug in by adding a registry entry.

    Two protocols, discriminated by {!capabilities}:

    - {b Scratch} ([sspa], [spfa]): the caller builds a {!Graph.t} per
      problem and calls {!solve}; the instance only carries the reused
      workspace.
    - {b Incremental} ([incremental]): the instance owns a persistent
      residual network and live potentials.  The caller declares demand
      units once ({!set_unit}), then per batch stacks transient worker
      nodes on top ({!begin_batch} / {!add_worker} / {!add_link}),
      {!resolve}s, reads flows ({!link_flow}) and retracts the batch
      ({!end_batch}).  Between batches only the touched subgraph is
      repaired, so a resolve costs what the delta touches — not the plane
      size.  See DESIGN.md §15 for the potential-repair invariants. *)

type capabilities = {
  solver_name : string;  (** registry key, lowercase *)
  incremental : bool;
      (** supports the session protocol ({!set_unit} .. {!end_batch});
          when [false] those calls raise and {!solve} is the entry point *)
  potentials : bool;
      (** honours {!Mcmf.potential_init} hints passed to {!solve} (SSPA);
          backends without potentials ignore [init] *)
  anytime : bool;  (** honours an {!Mcmf.budget} cutoff *)
}

type t
(** A solver instance: a backend plus its private reusable state (scratch
    workspace, or the incremental session).  Not domain-safe; one instance
    per concurrent run. *)

val names : unit -> string list
(** Registered backend names, registry order: [["sspa"; "spfa";
    "incremental"]]. *)

val all_capabilities : unit -> capabilities list
(** Capability records of every registered backend, registry order. *)

val create : ?hint:int -> string -> t
(** [create name] instantiates a registered backend (name matched
    case-insensitively); [hint] pre-sizes its workspace.
    @raise Invalid_argument on an unknown name, listing the registry. *)

val name : t -> string
val capabilities : t -> capabilities

val borrow_potentials : t -> float array
(** The backend workspace's live potential array, with exactly the
    {!Mcmf.borrow_potentials} caveats (overwritten by the next
    solve/resolve, replaced when the workspace grows).  Meaningful after a
    solve on a potential-maintaining backend (SSPA) or on the
    incremental session (whose potentials are always live). *)

val memory_words : t -> int
(** Approximate footprint of solver-owned persistent state: the
    incremental session's residual network and unit maps (for memory
    tracking panels).  0 for scratch backends — their graph is
    caller-owned and already charged by the caller. *)

val solve :
  t ->
  ?max_flow:int ->
  ?stop_on_nonnegative:bool ->
  ?init:Mcmf.potential_init ->
  ?budget:Mcmf.budget ->
  Graph.t ->
  source:int ->
  sink:int ->
  Mcmf.result
(** One from-scratch solve over a caller-built graph, with the contract of
    {!Mcmf.run}.  [init] is honoured only when [capabilities.potentials];
    SPFA ignores it.  @raise Invalid_argument on an incremental instance —
    a session's potentials must never be clobbered by a scratch solve; use
    {!resolve}. *)

(** {2 Incremental session protocol}

    Calls below raise [Invalid_argument] on a non-incremental instance,
    and enforce the stage discipline [idle -> open -> solved -> idle]:
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
