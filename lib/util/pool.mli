(** Domain parallelism.

    {!run} fans an embarrassingly parallel index range — the experiment
    harness's independent (figure cell x repetition) runs — over OCaml 5
    domains spawned for the call.  {!Workers} keeps long-lived lanes with
    bounded mailboxes for the sharded service runtime. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI default for
    [--jobs]. *)

val run : jobs:int -> int -> (int -> 'a) -> 'a array
(** [run ~jobs n f] computes [[| f 0; ...; f (n-1) |]].  It spawns
    [min jobs n - 1] domains, which claim indices from one atomic cursor
    together with the calling domain, and joins every one of them before
    it returns.  Results are ordered by index, not by completion, so
    callers see the sequential semantics however the indices were
    interleaved.  With [jobs <= 1] or [n <= 1] it is [Array.init n f] on
    the calling domain: the fallback on single-core machines and the
    reference the parallel path reproduces bit for bit (DESIGN.md,
    "Parallelism").

    When a body raises, unclaimed indices above it are abandoned; every
    claimed body finishes, every domain is joined, and then the exception
    of the lowest failing index is re-raised on the calling domain.
    Bodies run on other domains, so anything they touch must be
    domain-safe (the observability layer — {!Metrics}, {!Trace},
    {!Mem.Tracker} — is).
    @raise Invalid_argument when [n < 0]. *)

(** Persistent worker lanes with bounded mailboxes.

    Where {!run} spreads one index range over whatever domain is free, a
    {!Workers.t} {e pins} work to lanes: lane [k] is one
    long-lived domain draining its own bounded FIFO mailbox through the
    shared handler.  Items pushed to the same lane are handled in push
    order, on the same domain, for the lifetime of the pool — which is
    exactly what stateful per-lane consumers (the sharded service runtime,
    one session per shard) need, and why they build on this module rather
    than bypassing the pool.

    Backpressure is explicit: {!push} to a full mailbox blocks until the
    lane catches up (counted in {!stalls}) — items are never silently
    dropped.

    Failure isolation: a handler exception marks its lane failed, discards
    that lane's queued items, and wakes any blocked pusher — the remaining
    lanes keep running, so one dying worker can never leave the others (or
    the producer) blocked.  A later {!push} to the failed lane re-raises the
    handler's exception on the pushing domain; {!shutdown} re-raises the
    first still-standing failure (by lane index) after joining every
    domain.

    Recovery: {!restart} clears a lane's failure, after which the lane
    consumes again on its original domain — the hook the shard supervisor
    ({!Ltc_service.Supervisor}) builds crash isolation and online restore
    on.  The pool keeps nothing of what a failure discarded: the producer
    re-feeds from its own record of what it pushed (the sharded server
    re-feeds a revived shard from that shard's retained arrivals). *)
module Workers : sig
  type 'a t

  val create :
    lanes:int -> capacity:int -> handler:(lane:int -> 'a -> unit) -> 'a t
  (** [create ~lanes ~capacity ~handler] spawns [lanes] domains, each
      draining a [capacity]-slot mailbox through [handler ~lane].
      @raise Invalid_argument when [lanes < 1] or [capacity < 1]. *)

  val lanes : 'a t -> int

  val push : 'a t -> lane:int -> 'a -> unit
  (** Enqueue an item on [lane], blocking while its mailbox is full
      (bumping {!stalls} once per blocked push).  Single producer: do not
      call concurrently with {!shutdown}.
      @raise Invalid_argument on an unknown lane or after {!shutdown};
      re-raises the lane handler's exception if the lane has failed. *)

  val try_push : 'a t -> lane:int -> 'a -> bool
  (** Non-blocking {!push}: [false] when the lane's mailbox is full (the
      item is not enqueued, no stall is counted) — the primitive behind
      shed-style admission control.  Same contract as {!push}
      otherwise. *)

  val quiesce : 'a t -> unit
  (** Block until every lane has handled (or, for failed lanes,
      discarded) everything pushed so far. *)

  val failure : 'a t -> lane:int -> (exn * Printexc.raw_backtrace) option
  (** The lane's standing handler failure, if any. *)

  val restart : 'a t -> lane:int -> unit
  (** Clear the lane's failure (a no-op when the lane never failed).  The
      lane's domain (which parks, it never exits, on failure) resumes
      consuming subsequent pushes; the item whose handling raised and
      everything discarded from its mailbox are gone.  Call between
      {!quiesce} points, from the producer side. *)

  val stalls : 'a t -> int
  (** Pushes that found their mailbox full and had to block. *)

  val first_failure : 'a t -> (exn * Printexc.raw_backtrace) option
  (** Lowest-lane-index handler failure so far, if any. *)

  val shutdown : 'a t -> unit
  (** Drain every mailbox, join every domain, and re-raise the first lane
      failure if one occurred.  Idempotent (later calls are no-ops). *)
end
