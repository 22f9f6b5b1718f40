(** Keeper of the [k] largest elements of a stream.

    LAF and AAM scan every unfinished task per worker arrival and must retain
    only the [K] best-scoring candidates (Algorithm 2 lines 4-7, Algorithm 3
    lines 6-12).  This structure is a size-capped min-heap: pushing a stream
    of [n] scored items costs [O(n log k)] and the heap never holds more than
    [k] items, which is why the online algorithms match the Random baseline's
    memory footprint in Fig. 3i-l. *)

type 'a t

val create : k:int -> unit -> 'a t
(** [k] must be positive.  @raise Invalid_argument otherwise. *)

val push : 'a t -> score:float -> 'a -> unit
(** Offer an element; evicts the current lowest-scored element when the heap
    already holds [k].  Ties are broken towards the {e earlier-pushed}
    element (stable), matching the paper's lowest-task-index tie-break when
    tasks are pushed in index order. *)

val pop_all : 'a t -> (float * 'a) list
(** Remove and return the retained elements sorted by {e descending} score
    (stable for ties).  The heap becomes empty. *)
