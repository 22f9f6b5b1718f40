(** Deterministic fault injection for crash/recovery testing.

    A {!plan} scripts faults against named sites: code under test calls
    {!check} (or {!check_write} around a write) at each site, and the
    armed plan decides — purely from the per-site hit counter, never from
    wall time or real randomness — whether that particular visit crashes,
    fails transiently, tears the write or slows the solver down.  The
    same plan against the same workload therefore replays the exact same
    failure history, which is what the chaos harness
    ({!Ltc_service.Chaos}, [ltc chaos]) and the service test suite build
    on.

    While disarmed (the default) every probe is a single load of a
    [bool ref] and a branch — safe to leave compiled into hot paths.

    The module also owns the two clocks that make failure handling
    deterministic under test: a {!Clock} that the engine's per-arrival
    deadline reads (virtualisable, advanced by [Delay] faults) and a
    {!sleep} used by {!Retry.with_backoff} (a virtual clock advance when
    the clock is virtual, so backoff schedules cost no real time in
    tests).

    State is process-global and mutex-guarded: arm a plan from one
    domain, then probe it from as many domains as the scenario runs —
    hit counting, firing and the virtual clock are all atomic with
    respect to concurrent probes.  Arm/disarm themselves are setup
    steps; call them from a single coordinating domain.

    Concurrent probing of one {e shared} site interleaves the domains'
    visits into one counter, so which domain reaches a scripted hit is
    racy.  Where determinism matters — the sharded chaos harness — give
    each domain its own counter space with {!with_scope}: a scoped
    domain probing [site] is accounted against ["scope/site"], a
    single-writer counter whose hit sequence is reproducible.  Plans
    target a scoped site by naming it explicitly ({!scope_site}). *)

(** {1 Fault plans} *)

type action =
  | Crash  (** raise {!Injected_crash} at the site — simulated process death *)
  | Io_error
      (** raise {!Injected_io} — a transient I/O failure
          ([EINTR]/[ENOSPC]-style) that {!Retry.with_backoff} retries *)
  | Torn_write of int
      (** at a write site: persist only the first [n] bytes of the
          payload, then crash.  Ignored by plain {!check} sites. *)
  | Delay of float
      (** advance the virtual {!Clock} by this many seconds — an injected
          solver slowdown.  Ignored when the clock is real. *)

type fault = {
  site : string;  (** site name, e.g. ["journal.append"] *)
  hit : int;  (** 1-based visit number of [site] at which to fire *)
  action : action;
}
(** One scripted fault.  Each fault fires at most once: when [site]'s hit
    counter reaches [hit] while the fault is still pending.  Two faults on
    the same [(site, hit)] pair would shadow each other, so {!plan}
    generates distinct pairs. *)

type plan = fault list

exception Injected_crash of { site : string; hit : int }
(** Simulated process death.  Callers that survive it (the chaos harness)
    must treat all in-memory state as lost and recover from disk. *)

exception Injected_io of { site : string; hit : int }
(** Simulated transient I/O error; {!Retry.is_transient} recognises it. *)

val arm : plan -> unit
(** Install [plan] and zero all hit counters and fired-fault statistics.
    Arming an empty plan still enables counting (useful to trace site
    traffic). *)

val disarm : unit -> unit
(** Back to zero-overhead pass-through.  Counters and {!stats} keep their
    final values until the next {!arm}. *)

val armed : unit -> bool

val check : string -> unit
(** Probe a named site.  Disarmed: free.  Armed: bump the site's hit
    counter and fire the pending fault scheduled for this visit, if any.
    [Torn_write] faults do not fire here (they need a write payload).
    @raise Injected_crash / Injected_io as scripted. *)

val check_write : string -> len:int -> int option
(** Probe a write site about to persist [len] bytes.  [None]: write all
    of it.  [Some n] ([n < len]): a torn write fired — the caller must
    persist exactly the first [n] bytes, make them visible (flush), and
    then call {!crash} on the same site.
    @raise Injected_crash / Injected_io as scripted for non-torn
    faults. *)

val crash : string -> 'a
(** Raise {!Injected_crash} for [site] at its current hit count — the
    second half of the torn-write protocol. *)

val hits : string -> int
(** Current hit counter of a site (0 when never probed since {!arm}).
    Scope-resolved like the probes: under {!with_scope} it reads the
    scoped counter. *)

(** {1 Per-domain scopes} *)

val with_scope : string -> (unit -> 'a) -> 'a
(** [with_scope scope f] runs [f] with every probe on the calling domain
    accounted against [scope ^ "/" ^ site] instead of [site].  Scopes
    are domain-local and nest (the innermost wins); the previous scope
    is restored when [f] returns or raises.  A scoped domain is the
    single writer of its counters, so its hit sequence — and therefore
    which of its visits a plan can hit — is deterministic even with
    other domains probing concurrently. *)

val scope_site : scope:string -> string -> string
(** [scope_site ~scope site] is the site name a probe under
    [with_scope scope] resolves [site] to — use it to aim plan entries
    at one scoped domain, e.g.
    [scope_site ~scope:"shard0" "journal.append"]. *)

val current_scope : unit -> string option
(** The calling domain's active scope, if any. *)

type stats = {
  crashes : int;
  io_errors : int;
  torn_writes : int;
  delays : int;
}
(** Faults actually fired since the last {!arm} (a plan can script more
    than the workload reaches). *)

val stats : unit -> stats

val plan :
  ?crashes:int ->
  ?io_errors:int ->
  ?torn_writes:int ->
  ?delays:int ->
  ?horizon:int ->
  seed:int ->
  sites:string list ->
  write_sites:string list ->
  delay_sites:string list ->
  unit ->
  plan
(** Generate a seeded scenario: [crashes]+[io_errors] faults over
    [sites @ write_sites], [torn_writes] over [write_sites] (torn length
    uniform in 0..79 bytes) and [delays] of 0.25 s over [delay_sites],
    each at a distinct [(site, hit)] pair with hits uniform in
    [1..horizon] (default [100]).  Equal seeds yield equal plans; faults
    are returned sorted by site then hit.  Classes whose site list is
    empty generate nothing.
    @raise Invalid_argument naming the count when a count is negative, or
    when [horizon < 1]. *)

(** {1 Deterministic time} *)

(** The clock behind per-arrival solve deadlines.  Real mode reads
    [Unix.gettimeofday]; virtual mode reads a counter advanced only by
    {!Clock.advance}, [Delay] faults and virtual {!sleep}s, making
    deadline tests and chaos runs time-independent. *)
module Clock : sig
  val now_s : unit -> float

  val set_virtual : float -> unit
  (** Enter virtual mode at this time. *)

  val advance : float -> unit
  (** Move a virtual clock forward; no-op in real mode.
      @raise Invalid_argument on a negative amount. *)

  val clear : unit -> unit
  (** Back to the real clock. *)

  val is_virtual : unit -> bool
end

val sleep : float -> unit
(** Back-off sleep: [Unix.sleepf] in real mode, {!Clock.advance} in
    virtual mode (deterministic and instantaneous). *)

(** {1 Bounded-backoff retries} *)

module Retry : sig
  val attempts : int
  (** Total tries, including the first: 5.  With {!backoff_s} that adds
      at most 15 ms of (virtual or real) sleep to one journal
      operation. *)

  val backoff_s : int -> float
  (** Delay before retry [k] (1-based): 1 ms, doubling, capped at
      16 ms — [min 0.016 (0.001 *. 2 ^ (k-1))].  The one schedule:
      journal retries and supervised shard restarts both sleep it. *)

  val is_transient : exn -> bool
  (** [Injected_io], and real [Unix.Unix_error] with [EINTR], [EAGAIN],
      [EWOULDBLOCK] or [ENOSPC] (a filling disk may drain). *)

  val with_backoff :
    ?on_retry:(attempt:int -> exn -> unit) -> (unit -> 'a) -> 'a
  (** Run the thunk, retrying transient failures: up to
      [attempts - 1] retries, with {!backoff_s} sleeps between tries.
      [on_retry ~attempt exn] fires before each sleep ([attempt] is the
      1-based try that just failed).  Non-transient exceptions and the
      final transient failure propagate unchanged. *)
end
