(** Minimum-cost maximum-flow via the Successive Shortest Path Algorithm.

    This is the solver the paper plugs into MCF-LTC (Sec. III): "we apply the
    Successive Shortest Path Algorithm (SSPA) to calculate the minimum cost
    flow [...] SSPA is suitable for large-scale data and many-to-many
    matching with real-valued arc costs".

    Implementation: node potentials initialised by Bellman-Ford (the LTC
    networks carry negative arc costs [-Acc*]) — or, for layered batch
    networks, by a single topological relaxation sweep ({!potential_init}) —
    then repeated Dijkstra on reduced costs with a binary heap, augmenting
    one shortest path per round.  Dijkstra stops as soon as the sink
    settles; potentials of unsettled nodes advance by the sink distance
    (Goldberg's early-exit variant), preserving reduced-cost
    non-negativity.  A small epsilon absorbs floating-point drift in the
    reduced costs.

    {b Hot path.}  All per-solve scratch (potential, distance, predecessor
    and settled labels, the Dijkstra heap) lives in a {!workspace} that can
    be reused across solves, and distance labels are validated by an epoch
    stamp rather than O(V) fills per shortest-path pass — a caller that
    solves one batch after another (MCF-LTC's [run_batches]) allocates
    nothing after the first batch.  See DESIGN.md §9. *)

type result = {
  flow : int;      (** total units routed from source to sink *)
  cost : float;    (** total cost of the routed flow *)
  rounds : int;    (** number of augmenting iterations *)
  exhausted : bool;
      (** the anytime budget stopped the search before the solver proved
          the flow maximal — the result is a valid partial (prefix-optimal)
          flow, not necessarily a maximum one.  Always [false] without a
          [budget]. *)
}

type budget =
  | Rounds of int
      (** stop after at most this many augmenting rounds (>= 0) *)
  | Deadline_s of float
      (** stop starting new rounds once this much wall time elapsed since
          the call, measured with {!Ltc_util.Fault.Clock} so tests and the
          chaos harness can virtualise it (>= 0) *)
(** Anytime cutoff for {!run}.  The budget is checked {e between}
    shortest-path passes, so the routed units always form a minimum-cost
    [k]-flow for the [k] actually routed (SSPA routes cheapest paths in
    non-decreasing cost order); the caller can greedily complete the
    remainder.  A budget can only truncate the augmentation sequence —
    with a budget that never fires the run is identical to an unbudgeted
    one. *)

(** {2 Reusable workspace} *)

type workspace
(** Solver scratch: potentials, labels, heap, and the queue/counter arrays
    {!Mcmf_spfa} shares.  One workspace serves any sequence of solves (its
    arrays grow on demand and never shrink); it must not be shared between
    concurrently running solves. *)

val create_workspace : ?hint:int -> unit -> workspace
(** An empty workspace, pre-sized for graphs of [hint] nodes (default 16;
    it grows transparently). *)

val workspace_capacity : workspace -> int
(** Current node capacity of the workspace arrays. *)

val borrow_potentials : workspace -> float array
(** The workspace's {e live} node-potential array — a borrow, not a copy.
    After {!run} returns, entries [0 .. node_count - 1] hold the final
    potentials of that solve, which the next solve may keep alive via
    [`Keep].  The borrow is invalidated
    by the next solve: the array is overwritten, and {e replaced entirely}
    when the workspace grows — a caller holding the old array would then
    silently read stale values.  Read or copy what you need before solving
    again; use {!copy_potentials} to keep values across solves. *)

val copy_potentials : workspace -> n:int -> float array
(** [copy_potentials ws ~n] is a fresh copy of the first [n] potentials —
    safe to hold across later solves, unlike {!borrow_potentials}.
    @raise Invalid_argument when [n] exceeds {!workspace_capacity}. *)

(** {2 Potential initialisation} *)

type potential_init =
  [ `Bellman_ford
    (** Iterated relaxation over all residual arcs; correct on any input
        without negative cycles.  The default. *)
  | `Dag_topo
    (** One relaxation sweep in arc-insertion order.  {b Precondition}:
        arcs were added in topological order of their source nodes (true of
        every LTC batch network: source -> workers -> tasks -> sink).  On
        such graphs the sweep performs exactly Bellman-Ford's first-round
        relaxation sequence and lands on the same fixpoint bit-for-bit,
        skipping only the convergence re-scan — half the initialisation
        cost, same potentials, same flow, same cost.  On a graph violating
        the precondition the potentials are silently non-optimal and the
        min-cost guarantee is lost. *)
  | `Keep
    (** Trust the workspace potentials exactly as the caller maintained
        them — no initialisation, no validation scan.  This is the
        incremental-resolve mode ({!Solver}'s session protocol): the
        caller keeps the residual network and potentials alive across
        solves and repairs reduced-cost feasibility itself when inserting
        arcs.  [`Keep] also switches the per-round potential update to a
        sparse walk of the nodes the shortest-path pass touched (the dense
        update is O(V) per round and would defeat sub-linear resolves);
        the sparse form differs from the dense one only by a uniform
        per-round shift, which no reduced cost or path cost can observe.
        {b Precondition}: every residual arc has non-negative reduced cost
        (within epsilon) under the current workspace potentials; violating
        it silently loses the min-cost guarantee. *) ]

val run :
  ?max_flow:int ->
  ?stop_on_nonnegative:bool ->
  ?workspace:workspace ->
  ?init:potential_init ->
  ?budget:budget ->
  Graph.t ->
  source:int ->
  sink:int ->
  result
(** [run g ~source ~sink] augments along successive cheapest paths until the
    sink is unreachable (a {e maximum} flow of minimum cost), mutating [g]'s
    residual capacities; read per-arc results with {!Graph.flow}.

    [max_flow] caps the total units routed.  [stop_on_nonnegative] (default
    [false]) additionally stops when the cheapest augmenting path has cost
    [>= 0], yielding a {e minimum-cost} flow instead (never routes
    cost-increasing flow).

    [workspace] supplies the per-solve scratch; without it a fresh one is
    allocated for this call.  [init] selects the potential initialiser
    (default [`Bellman_ford]); see {!potential_init}.  [budget] bounds the
    search ({!budget}); when it fires, the result carries
    [exhausted = true] and the routed units are a minimum-cost flow of
    their own value.

    @raise Invalid_argument when [source = sink], nodes are out of range,
    or the budget is negative. *)

(**/**)

(* Solver-internal plumbing: {!Mcmf_spfa} shares this workspace (distance /
   predecessor / stamp labels, its FIFO ring and relaxation counters).  Not
   part of the public API. *)

val ensure_workspace : workspace -> n:int -> unit
val ensure_spfa_scratch : workspace -> n:int -> unit
val ws_dist : workspace -> float array
val ws_pred : workspace -> int array
val ws_stamp : workspace -> int array
val ws_flag : workspace -> Bytes.t
val ws_ring : workspace -> int array
val ws_counts : workspace -> int array
val ws_epoch : workspace -> int
val ws_set_epoch : workspace -> int -> unit

(**/**)
