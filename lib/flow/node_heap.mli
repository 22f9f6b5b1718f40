(** Indexed binary min-heap over node ids, keyed on the caller's labels.

    Purpose-built priority queue for Dijkstra inside {!Mcmf}: nodes are small
    integers and their keys are the caller's distance labels.  {!push} reads
    a node's key from the label array itself and {!pop} returns a bare node
    id, so neither boxes a float and a Dijkstra pass allocates nothing.
    The heap keeps its own copy of each queued key in slot order, so a
    sift compares adjacent slots.  All storage is three flat arrays sized
    by the node count.

    {b Tie order.}  Equal keys leave the heap in exactly the order of the
    classic swap-based heap (sift-up over strictly larger keys, sift-down
    to the smaller child with the left one on a tie): Dijkstra's
    predecessors, and with them every min-cost-flow arrangement, depend on
    it, since most labels on an LTC batch network tie at [0.0]
    (DESIGN.md §9).  Keys must not be NaN. *)

type t

val create : n:int -> t
(** Heap over node ids [0 .. n-1], initially empty. *)

val capacity : t -> int
(** Current node-id bound (the [n] of {!create}, possibly grown). *)

val ensure_capacity : t -> n:int -> unit
(** Grows the heap to accept node ids [0 .. n-1], preserving queued
    entries.  Never shrinks.  Lets one heap serve a whole run of solves
    over graphs of varying node counts ({!Mcmf}'s reusable workspace). *)

val clear : t -> unit
(** O(size): empties the heap for reuse. *)

val is_empty : t -> bool
val size : t -> int

val mem : t -> int -> bool
(** Is the node currently queued? *)

val push : t -> keys:float array -> int -> unit
(** [push t ~keys v] inserts [v] at key [keys.(v)], or, when [v] is
    already queued with a larger key, lowers it to [keys.(v)].  A key at
    or above the queued one is a no-op (Dijkstra never raises one).  The
    heap copies the key, so later writes to [keys.(v)] do not move [v]
    until it is pushed again.
    @raise Invalid_argument on an out-of-range node. *)

val pop : t -> int
(** Removes and returns the minimum-key node, or [-1] when the heap is
    empty. *)
