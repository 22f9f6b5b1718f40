(** Memory-footprint estimation for the memory panels of Figs. 3i-l / 4i-l.

    The paper reports the memory cost of each algorithm (measured on their C++
    implementation).  We reproduce the semantics — {e how much memory the
    algorithm's own data structures occupy at their peak} — with
    {!Tracker}, an explicit high-water accounting object that algorithms
    feed with the sizes of the structures they allocate (flow networks,
    heaps, score arrays).  This isolates the algorithm from the workload
    (tasks/workers are inputs and identical across algorithms, exactly as
    in the paper where all algorithms load the same dataset). *)

val words_to_mb : int -> float
(** Convert a word count to MB on this platform. *)

module Tracker : sig
  type t
  (** Domain-safe: each domain that touches the tracker gets its own
      accounting cell, and {!high_water_mb} reports the merged peak (the
      sum of per-domain high-water marks — exactly the single-domain peak
      when only one domain used the tracker, an upper bound on concurrent
      usage otherwise). *)

  val create : unit -> t

  val add_words : t -> int -> unit
  (** Grow the current structural footprint by [n] words. *)

  val remove_words : t -> int -> unit

  val set_baseline_words : t -> int -> unit
  (** Footprint that exists for the whole run (e.g. the score array [S]). *)

  val high_water_mb : t -> float
  (** Peak footprint observed so far, in MB, including the baseline. *)
end
