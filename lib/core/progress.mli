(** Mutable completion state: the paper's accumulator array [S].

    [S\[t\]] is the score task [t] has accumulated so far; a task is complete
    once [S\[t\] >= threshold].  Beyond the plain array the structure
    maintains, incrementally, the two aggregates AAM consults on every
    arrival (Algorithm 3 lines 4-5):

    - [sum_remaining = sum over incomplete t of (threshold - S\[t\])], and
    - [max_remaining], the root of an indexed max-heap over the open tasks
      keyed on [threshold - S\[t\]], so a query costs O(1) instead of the
      paper's O(|T|) rescan.

    The heap holds each open task once: a {!record} sifts the task down or
    removes it on completion, and a {!release} inserts it, each in
    O(log |T|). *)

type t

val create : threshold:float -> n_tasks:int -> t
(** All accumulators at 0, every task sharing one threshold (the paper's
    constant-epsilon platform).  @raise Invalid_argument when
    [threshold <= 0], when it is NaN or infinite, or when [n_tasks < 0]. *)

val create_per_task : ?held:(int -> bool) -> thresholds:float array -> unit -> t
(** Per-task thresholds (Definition 1's general [t = <l_t, epsilon>] form);
    the array is copied.  Tasks for which [held] (default: none) holds
    start held: outside the open set, [sum_remaining] and [max_remaining]
    until {!release}, yet incomplete, so [all_complete] stays false while
    any is held.  @raise Invalid_argument on a non-positive threshold,
    then on a NaN or infinite one (the order of {!of_snapshot}'s checks). *)

val release : t -> int -> unit
(** Open a held task, as if it had been open from the start with no
    score; a no-op on a task that is not held.  Each release adds the
    task's threshold to the running [sum_remaining], so the order of the
    releases fixes the float summation order. *)

val threshold_of : t -> int -> float
(** The given task's completion threshold. *)

val n_tasks : t -> int

val accumulated : t -> int -> float
(** Current [S\[t\]]. *)

val remaining : t -> int -> float
(** [max 0 (threshold - S[t])]. *)

val is_complete : t -> int -> bool

val is_open : t -> int -> bool
(** Released and not yet complete: what an online policy may pick. *)

val all_complete : t -> bool

val incomplete_count : t -> int
(** Number of open tasks. *)

val record : t -> task:int -> score:float -> unit
(** Accumulate [score] onto task [task].  [score] must be finite and
    [>= 0].  @raise Invalid_argument ["Progress.record: negative score"],
    then ["Progress.record: non-finite score"] (NaN or infinity), or on a
    held task. *)

val sum_remaining : t -> float
(** Total outstanding score over open tasks. *)

val max_remaining : t -> float
(** Largest outstanding score over open tasks; [0] when none is open. *)

val iter_incomplete : t -> (int -> unit) -> unit
(** Every open task id, in {b ascending id order} — a guarantee, not
    an accident: MCF-LTC numbers its batch network's task nodes straight
    off this iteration, so the ordering pins down the arc layout (and with
    it the solver's tie-breaking) deterministically.  The callback must not
    call {!record}.  Linear in the task count. *)

val memory_words : t -> int

(** {2 Snapshots}

    The service layer checkpoints progress state into its journal and must
    rebuild it bit-for-bit: the snapshot therefore carries the {e raw}
    running [sum_remaining] (accumulated one arrival at a time, so float
    summation order matters to AAM) rather than recomputing it from the
    accumulator array. *)

type snapshot = {
  thresholds : float array;
  scores : float array;  (** the accumulator array [S], one slot per task *)
  sum_remaining : float;  (** raw running total, not clamped at 0 *)
}

val snapshot : t -> snapshot
(** Immutable copy of the observable state (arrays are fresh).
    @raise Invalid_argument while a task is held. *)

val borrow_snapshot : t -> snapshot
(** {!snapshot} without the copies: the arrays are the tracker's own, so
    the caller only reads them, and only until the next {!record} or
    {!release} (the journal encoder writes them out this way).
    @raise Invalid_argument while a task is held. *)

val of_snapshot : snapshot -> t
(** Rebuild a progress tracker equivalent to the one {!snapshot} captured:
    same accumulators, same incomplete set in ascending-id order, same
    [sum_remaining] and [max_remaining] answers.  Linear in the task count.
    @raise Invalid_argument on length mismatch or any value
    {!check_snapshot} refuses. *)

val check_snapshot :
  n:int ->
  threshold:(int -> float) ->
  score:(int -> float) ->
  sum_remaining:float ->
  unit
(** The value rules {!of_snapshot} applies, over [n] entries read through
    accessors, without building anything — so a decoder can check a
    snapshot it will not keep.  Refuses, in this priority: a negative
    score, a non-positive threshold, a non-finite score, threshold or
    [sum_remaining].  @raise Invalid_argument naming the first of those
    that any entry breaks. *)
