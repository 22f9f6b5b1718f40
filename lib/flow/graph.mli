(** Flow networks with residual arcs.

    The representation follows the classic competitive-programming layout:
    arcs are appended in pairs (forward at even id, backward at odd id, so
    [a lxor 1] is the reverse of [a]) into flat arrays, with per-node
    adjacency as an intrusive linked list.  Capacities are integers — the
    LTC reduction only needs capacities [K], [1] and [ceil(delta - S[t])] —
    while costs are floats, because arc costs are (negated) real-valued
    [Acc*] scores. *)

type t

type arc = int
(** Arc identifier, stable across the graph's lifetime. *)

val create : n:int -> t
(** A network with nodes [0 .. n-1] and no arcs.
    @raise Invalid_argument when [n <= 0]. *)

val clear : t -> n:int -> unit
(** [clear t ~n] empties the graph and re-dimensions it to nodes
    [0 .. n-1], {e keeping the underlying arc and node arrays} so the next
    batch of {!add_arc} calls runs allocation-free in the already-reserved
    arena.  Arc ids restart at 0.  Previously returned arc ids and {!raw}
    views are invalidated.  @raise Invalid_argument when [n <= 0]. *)

val node_count : t -> int

val arc_count : t -> int
(** Number of {e forward} arcs added with {!add_arc}. *)

val add_arc : t -> src:int -> dst:int -> cap:int -> cost:float -> arc
(** Adds a forward arc and its zero-capacity reverse.  Returns the forward
    arc id.  @raise Invalid_argument on out-of-range nodes, a negative
    capacity or a non-finite cost (a NaN label would break the order of
    {!Mcmf}'s Dijkstra heap). *)

val src : t -> arc -> int
val dst : t -> arc -> int
val cost : t -> arc -> float

val residual : t -> arc -> int
(** Remaining capacity (applies to forward and backward arcs alike). *)

val flow : t -> arc -> int
(** Flow currently routed through a forward arc.
    @raise Invalid_argument on a backward (odd) arc id. *)

val push : t -> arc -> int -> unit
(** [push t a x] routes [x] more units through [a] (and removes them from its
    reverse).  @raise Invalid_argument when [x] exceeds the residual. *)

val iter_arcs_from : t -> int -> (arc -> unit) -> unit
(** All arcs (forward and backward) leaving a node, most recent first. *)

val iter_forward_arcs : t -> (arc -> unit) -> unit
(** All forward arcs in insertion order. *)

val memory_words : t -> int
(** Approximate heap footprint, for the memory panels of Figs. 3-4.
    Reports the {e reserved} arena (array capacities, which {!clear} keeps
    and {!add_arc} grows), not merely the live arc prefix — that is what
    the process actually holds when the graph is reused across batches. *)

(** {2 Solver access}

    Read-only views of the internal arrays for performance-critical solvers
    ({!Mcmf}'s inner loops run millions of arc inspections; going through
    the checked accessors above costs ~4x).  Slots [0 .. r_len - 1] are
    valid; even slots are forward arcs, [a lxor 1] is the reverse of [a].
    The view is invalidated by the next {!add_arc} or {!clear} (the arrays
    may be reallocated); capacities must only be mutated through {!push}. *)

type raw = private {
  r_heads : int array;  (** destination node per arc *)
  r_caps : int array;   (** residual capacity per arc *)
  r_costs : float array;
  r_next : int array;   (** adjacency chain per arc *)
  r_first : int array;  (** head of each node's adjacency chain, -1 if none *)
  r_len : int;          (** number of arc slots in use *)
}

val raw : t -> raw
