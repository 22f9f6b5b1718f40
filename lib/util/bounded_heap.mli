(** Keeper of the [k] best-scored ints of a stream.

    LAF and AAM scan every unfinished task per worker arrival and must retain
    only the [K] best-scoring candidates (Algorithm 2 lines 4-7, Algorithm 3
    lines 6-12).  This structure is a size-capped min-heap: pushing a stream
    of [n] scored items costs [O(n log k)] and the heap never holds more than
    [k] items, which is why the online algorithms match the Random baseline's
    memory footprint in Fig. 3i-l.

    Its arrays are reused from one stream to the next, so a caller makes
    one heap per policy and {!start}s it per arrival: a warm stream of
    pushes allocates nothing, and only {!pop_all}'s result list does. *)

type t

val create : unit -> t
(** An empty heap; call {!start} before the first {!push}. *)

val start : t -> k:int -> unit
(** Empty the heap and cap it at [k] elements for the next stream.
    @raise Invalid_argument ["Bounded_heap.start: k must be positive"]
    when [k <= 0]. *)

val push : t -> float array -> int array -> int -> int -> unit
(** [push t scores values lo hi] offers [values.(i)] at score
    [scores.(i)] for each [i] from [lo] to [hi - 1], in that order; each
    offer evicts the current lowest-scored element when the heap already
    holds [k].  Ties are broken towards the {e earlier-pushed} element
    (stable), matching the paper's lowest-task-index tie-break when tasks
    are pushed in index order.  Scores are read where they lie, so no
    float is boxed, as a float argument would be under dune's [-opaque]
    dev profile. *)

val pop_all : t -> int list
(** Remove and return the retained elements sorted by {e descending} score
    (stable for ties).  The heap becomes empty. *)
