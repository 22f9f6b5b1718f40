(** Mutable completion state: the paper's accumulator array [S].

    [S\[t\]] is the score task [t] has accumulated so far; a task is complete
    once [S\[t\] >= threshold].  Beyond the plain array the structure
    maintains, incrementally, the two aggregates AAM consults on every
    arrival (Algorithm 3 lines 4-5):

    - [sum_remaining = sum over incomplete t of (threshold - S\[t\])], and
    - [max_remaining], served by a lazily-pruned max-heap so a query costs
      amortised O(log |T|) instead of the paper's O(|T|) rescan. *)

type t

val create : threshold:float -> n_tasks:int -> t
(** All accumulators at 0, every task sharing one threshold (the paper's
    constant-epsilon platform).  @raise Invalid_argument when
    [threshold <= 0] or [n_tasks < 0]. *)

val create_per_task : thresholds:float array -> t
(** Per-task thresholds (Definition 1's general [t = <l_t, epsilon>] form);
    the array is copied.  @raise Invalid_argument on a non-positive
    threshold. *)

val threshold_of : t -> int -> float
(** The given task's completion threshold. *)

val n_tasks : t -> int

val accumulated : t -> int -> float
(** Current [S\[t\]]. *)

val remaining : t -> int -> float
(** [max 0 (threshold - S[t])]. *)

val is_complete : t -> int -> bool
val all_complete : t -> bool

val incomplete_count : t -> int

val record : t -> task:int -> score:float -> unit
(** Accumulate [score] onto task [task].  [score] must be [>= 0]. *)

val sum_remaining : t -> float
(** Total outstanding score over incomplete tasks. *)

val max_remaining : t -> float
(** Largest outstanding score over incomplete tasks; [0] when all are
    complete. *)

val iter_incomplete : t -> (int -> unit) -> unit
(** Every incomplete task id, in {b ascending id order} — a guarantee, not
    an accident: MCF-LTC numbers its batch network's task nodes straight
    off this iteration, so the ordering pins down the arc layout (and with
    it the solver's tie-breaking) deterministically.  The callback must not
    call {!record}. *)

val fold_incomplete : t -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Fold over {!iter_incomplete}, same ascending-id order. *)

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
(** Immutable copy of the observable state (arrays are fresh). *)

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
