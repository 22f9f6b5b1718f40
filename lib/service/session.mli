(** A resumable streaming session over the batch engine.

    A session holds the task side of an instance plus one online algorithm
    from {!Ltc_algo.Algorithm} and consumes worker arrivals one at a time
    via {!feed}, returning the assignment decision for each.  {!feed} is
    {!Ltc_algo.Engine.step} followed by the journal write, so feeding the
    same arrival stream into a session reproduces {!Ltc_algo.Engine.run}
    byte for byte: the same arrangement, the same latency, the same RNG
    draws — including under [accept_rate < 1] no-show noise.

    When created with [~journal:path], every processed arrival is appended
    to an on-disk journal together with its decision, and a full snapshot
    (progress, arrangement, both RNG states) is appended as an ordinary
    record every [checkpoint_every] events, with a full compaction (the
    file atomically rewritten as header + one snapshot) every 16th
    periodic snapshot to bound file growth.  {!restore} rebuilds a
    session from such a journal:
    it loads the latest snapshot, replays the event tail by re-running the
    policy (verifying the recomputed decisions against the journaled
    ones), drops any torn record at the end of the file, and compacts.
    Every record in the file is still read and checked, in file order,
    but only the latest snapshot and the events after it are built: the
    snapshots and events it supersedes are checked without being
    decoded into session state.  Recovery work is therefore bounded by
    [checkpoint_every] arrivals no matter how long the session has run.

    {2 Crash safety}

    All journal writes pass through named {!Ltc_util.Fault} sites and
    bounded-backoff retries ({!Ltc_util.Fault.Retry}), so the chaos
    harness can tear, fail or crash any of them deterministically:

    - ["journal.header"] — the header written by {!create}
    - ["journal.append"] — the group-commit write(2) carrying the
      buffered event records (one record per group by default)
    - ["journal.append.fsync"] — per-group fsync (only with
      [~fsync:true])
    - ["journal.checkpoint.write"] — the compacted image into [path.tmp]
    - ["journal.checkpoint.fsync"] — fsync of the temp file
    - ["journal.checkpoint.rename"] — just before the atomic rename
    - ["journal.checkpoint.dir"] — just before the directory fsync
    - ["session.decide"] — after the primary policy decides (the [Delay]
      fault site that triggers deadline degradation)

    Compaction writes the replacement image to [path.tmp], renames it
    over [path] — with [~fsync:true] additionally fsyncing the temp file
    before and the directory entry after (power-loss durability; the
    atomic rename alone already survives process crashes) — so a crash
    between any two sites leaves exactly one journal visible, and
    {!restore} deletes stale [.tmp] debris beside the journal it writes
    before reading.  The decision stream of a
    crashed-and-restored session is byte-identical to the uninterrupted
    run up to the last durable event.

    {2 Codec and group commit}

    Every journal is written in the [Binary] codec (header v3: a text
    header with a [codec binary] line, then length-prefixed CRC32-framed
    records — see {!Ltc_core.Serialize.Binary}): replay streams frames
    without line splitting, and the CRC keeps interior corruption
    distinguishable from a torn tail.  [Text] (header v1/v2, the
    line-oriented format of earlier versions) is read-only: {!restore}
    replays an old text journal exactly as before and its closing
    compaction rewrites the file as v3 binary; {!Journal.convert}
    transcodes one record for record.

    [group_commit] coalesces up to N encoded records into a single
    write(2) — and, with [~fsync:true], a single fsync — amortizing the
    durability discipline over the group (bounded by an internal byte
    threshold).  The buffered group is flushed synchronously before
    every checkpoint/compaction and on {!close}; a crash loses at most
    the buffered group, which {!restore} treats exactly like a torn
    tail: those arrivals were never acknowledged as durable, and the
    stream re-feeds them. *)

type t

type codec = Text | Binary
(** A journal's on-disk codec.  Only [Binary] is written; [Text] names
    the read-only format of old journals. *)

val codec_name : codec -> string
(** ["text"] / ["binary"]. *)

val strip_workers : Ltc_core.Instance.t -> Ltc_core.Instance.t
(** The task side of an instance (its workers dropped; the instance
    itself when it has none) — what a session holds and journals, and
    what a shard manifest embeds. *)

type decision = Ltc_algo.Engine.decision = {
  worker : int;
  assigned : int list;
  answered : int list;
  completed : bool;
  latency : int;
  degraded : bool;
}
(** The engine step's decision record. *)

type deadline = {
  budget_s : float;  (** per-arrival decision budget in seconds (finite, > 0) *)
  fallback : Ltc_algo.Algorithm.t;
      (** cheap online algorithm that decides an arrival whose primary
          decision arrived late *)
}
(** Per-arrival solve deadline, measured with {!Ltc_util.Fault.Clock} so
    tests can virtualise time.  Semantics match
    {!Ltc_algo.Engine.config}[.degrade]: the primary always runs (and
    consumes its RNG draws); on a budget overrun its answer is discarded
    and the fallback — sharing the session's progress state — decides
    instead.  Degraded decisions are journaled distinctly, so replay and
    {!restore} reproduce them from the journal without consulting any
    clock. *)

exception Corrupt_journal of { path : string; message : string }
(** Raised by {!restore} when the journal's prefix is unreadable, an
    {e interior} record is damaged (intact records follow it), or the
    replayed decisions diverge from the journaled ones.  Interior damage
    is reported with the byte offset, line and record index of the broken
    record plus an excerpt of the offending bytes.  (A torn {e suffix} —
    an interrupted append — is expected crash damage and is silently
    dropped instead.) *)

val create :
  ?accept_rate:float ->
  ?deadline:deadline ->
  ?on_decision:(decision -> unit) ->
  ?journal:string ->
  ?checkpoint_every:int ->
  ?fsync:bool ->
  ?format:codec ->
  ?group_commit:int ->
  algorithm:Ltc_algo.Algorithm.t ->
  seed:int ->
  Ltc_core.Instance.t ->
  t
(** [create ~algorithm ~seed instance] starts a fresh session.  Workers
    embedded in [instance] are ignored (arrivals come from {!feed});
    internally the session keeps a worker-stripped copy.

    [accept_rate] enables per-assignment no-show noise exactly as
    {!Ltc_algo.Engine.run} does — one Bernoulli draw per assigned task, in
    assignment order.  [deadline] enables graceful degradation (recorded
    in the journal header, so restored sessions keep degrading).
    [on_decision] is invoked for every consuming decision {e before} it is
    journaled — the chaos harness uses this to account for decisions whose
    journal append crashed.  [journal] starts an on-disk journal at that
    path (truncating any existing file); [checkpoint_every] (default
    [256]) sets the compaction period in events; [fsync] (default
    [false]) additionally fsyncs after every group commit; [format] must
    be [Binary] (the default, and the only codec written);
    [group_commit] (default [1]) sets how many records are coalesced per
    write/fsync.

    @raise Invalid_argument if [format] is [Text] or {!check_options}
    refuses the options. *)

val check_options :
  ?accept_rate:float ->
  ?deadline:deadline ->
  checkpoint_every:int ->
  group_commit:int ->
  Ltc_algo.Algorithm.t ->
  unit
(** The option checks {!create} runs before it touches a journal file;
    {!Shard_server.create} runs them before it writes its manifest.
    @raise Invalid_argument if [accept_rate] is outside (0, 1] or NaN, if
    [checkpoint_every < 1] or [group_commit < 1], if the algorithm (or the
    deadline fallback) has no online policy ([policy = None]: Base-off,
    MCF-LTC), or if the deadline budget is not finite
    and positive. *)

val feed : t -> Ltc_core.Worker.t -> decision
(** Process the next arrival.  Arrival indices must be consecutive from 1:
    feeding worker [k] when [consumed t <> k - 1] raises
    [Invalid_argument].  Once the session is complete, further arrivals
    are acknowledged with [assigned = []] without being consumed,
    journaled, or drawing RNG — mirroring the batch loop, which stops
    before the arrival that follows completion.

    @raise Invalid_argument on a closed session or a gap in the stream.
    @raise Ltc_algo.Engine.Invalid_decision if the policy misbehaves. *)

val restore :
  ?on_decision:(decision -> unit) ->
  ?journal:string ->
  ?fsync:bool ->
  ?group_commit:int ->
  path:string ->
  unit ->
  t
(** [restore ~path ()] rebuilds a session from a journal file and
    compacts it immediately.  The codec is auto-detected from the
    header; the restored session journals in binary to [journal] when
    given — then [path] is only read, and nothing beside it is touched —
    else to [path], whose compaction upgrades a text journal to binary.
    The compaction is temp file + rename, so a crash during it leaves
    the old file in place.  A v3 binary header with a checkpoint period
    of at least 1 is carried into the compacted journal byte for byte;
    any other is rewritten at the current version.  [group_commit]
    (default [1]) applies to the re-attached journal.  Replayed tail
    events do {e not} fire [on_decision] visibly different from live
    ones — the hook sees every decision the restored session makes from
    now on, and replayed decisions are verified against the journal
    instead.

    @raise Corrupt_journal as documented above.
    @raise Sys_error if [path] cannot be read. *)

val is_empty_journal : string -> bool
(** [true] iff the file exists and is zero bytes — a journal that crashed
    before its header hit the disk.  The CLI treats resuming such a file
    as starting a fresh session rather than an error. *)

val checkpoint : t -> unit
(** Force a snapshot + full compaction now (no-op without a
    journal). *)

val close : t -> unit
(** Flush and close the journal; further {!feed} calls raise.
    Idempotent. *)

(** {1 Observers} *)

val consumed : t -> int
(** Arrivals consumed so far (= index of the last processed arrival). *)

val completed : t -> bool
(** All tasks complete? *)

val latency : t -> int
(** Largest recruited arrival index so far ([0] before any recruitment). *)

val arrangement : t -> Ltc_core.Arrangement.t
(** The arrangement built so far. *)

val algorithm_name : t -> string

val degraded_total : t -> int
(** Arrivals decided by the deadline fallback in {e this} incarnation
    (restore replays do count, matching the original timeline). *)

val rng_states : t -> int64 * int64
(** [(policy, no-show)] generator states — the determinism fingerprint
    used by the kill/restore tests. *)

val feed_hdr : t -> Ltc_util.Metrics.Hdr.t
(** Always-on decide-latency quantiles for this session's live arrivals,
    measured on {!Ltc_util.Fault.Clock} — virtual seconds when the clock
    is virtualised (the load generator's mode), wall seconds otherwise.
    Replayed (restore) arrivals contribute no samples. *)

val journal_bytes : t -> int
(** Current journal file size in bytes ([0] without a journal, or after
    {!close}). *)

val peak_memory_mb : t -> float
(** Policy scratch high-water mark, as tracked for {!Ltc_algo.Engine}
    outcomes. *)

(** {1 Offline journal tools}

    Read-only inspection of journal files and record-level transcoding of
    old text journals to binary, without building a session (the
    [ltc journal] subcommand).  Both
    share {!restore}'s scanners: a torn tail is silently dropped,
    interior corruption raises {!Corrupt_journal} with the same
    diagnostics. *)

module Journal : sig
  type info = {
    version : int;  (** header version as parsed (1, 2 or 3) *)
    codec : codec;
    algorithm : string;
    seed : int;
    accept_rate : float option;
    checkpoint_every : int;
    deadline : (float * string) option;  (** budget (s), fallback name *)
    tasks : int;  (** task count of the embedded instance *)
    file_bytes : int;  (** on-disk size, torn tail included *)
    torn_bytes : int;
        (** bytes of torn tail a restore would drop ([0] when every
            record is complete) *)
    snapshots : int;  (** complete snapshot records in the file *)
    events : int;  (** complete event records in the file *)
    consumed : int;  (** arrivals a restore would recover *)
    snapshot_offsets : int list;
        (** byte offset of each snapshot record, in file order *)
  }

  val inspect : path:string -> info
  (** @raise Corrupt_journal on interior damage.
      @raise Sys_error if [path] cannot be read. *)

  val convert : src:string -> dst:string -> unit
  (** Re-encode every complete record of [src] (either codec) into [dst]
      as a v3 binary journal, preserving order and content: restoring
      [dst] lands on the same session fingerprint as restoring [src].  A
      torn tail is not carried over; the header is rendered at the
      current version.  [dst] is truncated if it exists; converting a
      journal onto itself is not supported. *)
end
