(** Minimum-cost maximum-flow via the Successive Shortest Path Algorithm.

    This is the solver the paper plugs into MCF-LTC (Sec. III): "we apply the
    Successive Shortest Path Algorithm (SSPA) to calculate the minimum cost
    flow [...] SSPA is suitable for large-scale data and many-to-many
    matching with real-valued arc costs".

    Implementation: node potentials initialised by Bellman-Ford (the LTC
    networks carry negative arc costs [-Acc*]), then repeated Dijkstra on
    reduced costs with a binary heap, augmenting one shortest path per
    round.  Dijkstra stops as soon as the sink
    settles; potentials of unsettled nodes advance by the sink distance
    (Goldberg's early-exit variant), preserving reduced-cost
    non-negativity.  A small epsilon absorbs floating-point drift in the
    reduced costs.

    {b Hot path.}  All per-solve scratch (potential, distance, predecessor
    and settled labels, the Dijkstra heap) lives in a {!workspace} that can
    be reused across solves, and distance labels are validated by an epoch
    stamp rather than O(V) fills per shortest-path pass — a caller that
    solves one batch after another (MCF-LTC's [run_batches]) allocates
    nothing after the first batch.  The heap is keyed on the distance
    labels themselves ({!Node_heap}), so a shortest-path pass allocates
    nothing either, and its pops follow the tie order the arrangement
    digests pin.  Each run adds the arcs its passes scanned and the
    labels they lowered to [ltc_flow_mcmf_arcs_scanned_total] and
    [ltc_flow_mcmf_relaxations_total].  See DESIGN.md §9. *)

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
(** Anytime cutoff for {!run}.  The budget is checked {e between}
    shortest-path passes, so the routed units always form a minimum-cost
    [k]-flow for the [k] actually routed (SSPA routes cheapest paths in
    non-decreasing cost order); the caller can greedily complete the
    remainder.  A budget can only truncate the augmentation sequence —
    with a budget that never fires the run is identical to an unbudgeted
    one. *)

(** {2 Reusable workspace} *)

type workspace
(** Solver scratch: potentials, labels and heap.  One workspace serves any
    sequence of solves (its arrays grow on demand and never shrink); it
    must not be shared between concurrently running solves. *)

val create_workspace : ?hint:int -> unit -> workspace
(** An empty workspace, pre-sized for graphs of [hint] nodes (default 16;
    it grows transparently). *)

val workspace_capacity : workspace -> int
(** Current node capacity of the workspace arrays. *)

(** {2 Solving} *)

val run :
  ?max_flow:int ->
  ?workspace:workspace ->
  ?budget:budget ->
  Graph.t ->
  source:int ->
  sink:int ->
  result
(** [run g ~source ~sink] augments along successive cheapest paths until the
    sink is unreachable (a {e maximum} flow of minimum cost), mutating [g]'s
    residual capacities; read per-arc results with {!Graph.flow}.

    [max_flow] caps the total units routed.

    [workspace] supplies the per-solve scratch; without it a fresh one is
    allocated for this call.  [budget] bounds the search ({!budget}); when
    it fires, the result carries [exhausted = true] and the routed units
    are a minimum-cost flow of their own value.

    @raise Invalid_argument when [source = sink], nodes are out of range,
    or the budget is negative. *)
