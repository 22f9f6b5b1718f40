(** Sharded multi-session serving: spatial partitioning over a
    domain-per-shard runtime.

    A shard server splits an instance's task universe into [shards]
    spatial shards and runs one journaled {!Session} per shard.  The
    task plane is cut into grid cells (side = the instance's candidate
    radius, like {!Ltc_geo.Grid_index}), and every cell is mapped to a
    shard by a deterministic rendezvous hash — so the partition is a pure
    function of the instance and the shard count, and {!restore} rebuilds
    it exactly.  Each worker arrival is routed to the shard owning its
    location's cell and fed to that shard's session with a shard-local
    arrival index; a merge layer re-emits the per-shard decisions in
    global arrival order with global task ids, a global latency watermark
    and a global completion flag.  The merge is a route log: the caller
    logs where each arrival went, each shard hands its decisions back in
    its own order through its own queue, and the caller releases routes
    from the front of the log while the shard each names has its next
    decision ready.  No merge state is shared between shard domains.

    {2 Execution modes}

    - [`Domains] (the default): each shard's session lives on its own
      OCaml 5 domain behind a bounded mailbox
      ({!Ltc_util.Pool.Workers}).  A full mailbox blocks {!feed}
      (backpressure, counted in {!stalls}) — arrivals are never silently
      dropped.  Decisions become available as their global-order
      predecessors complete; {!feed} returns whatever prefix is ready and
      {!flush} blocks for the rest.
    - [`Inline] (always, at one shard): no domains; arrivals are decided
      synchronously on the calling domain and {!feed} returns each
      decision immediately.  The decision stream is identical to
      [`Domains] — this is the mode for anything driven by
      {!Ltc_util.Fault} (kill/restore tests, virtual loadgen), whose
      plans must not be probed from concurrent domains.

    {2 One shard}

    [shards = 1] is the plain session: its one {!Session} gets the root
    [seed] and the whole instance, journals straight to [~journal] as an
    ordinary session journal (no manifest), and always runs inline.
    Unsupervised, {!feed} is {!Session.feed} itself, with no routing,
    re-indexing or merge layer; supervised, it keeps the general inline
    path and revives from that journal.  {!restore} accepts such a
    journal as a 1-shard server.

    {2 Durability}

    With [~journal:base] and [shards >= 2], shard [k] journals to
    [base.shard<k>] (group commit as configured, exactly like a single
    session) and the partition parameters + instance go into a
    manifest at [base] itself.
    Each shard owns its durability boundary independently: a crash can
    tear each shard journal at a different arrival, and {!restore}
    recovers every shard to its own last durable record (torn tails
    dropped per shard, missing/empty shard files restarted fresh).  After
    a restore, re-feeding the whole arrival stream from index 1 is
    idempotent: arrivals a shard already consumed are skipped (rebuilding
    the merge layer's latency/completion bookkeeping without re-emitting
    their decisions) and only never-durable arrivals are re-decided.

    {2 Parity}

    On workloads whose arrivals are {e shard-local} — every candidate
    task of every worker lies in the worker's own grid cell — the merged
    decision stream and final fingerprint are identical to one
    un-sharded session over the whole instance, for candidate-local
    deterministic policies (LAF, LGF-only, LRF-only, Nearest) without
    no-show noise.  Boundary-crossing candidates, RNG-drawing policies
    (Random, [accept_rate]) and globally-aggregating policies (AAM) break
    that equivalence — see DESIGN.md §14. *)

type t

type mode = Inline | Domains

val create :
  ?accept_rate:float ->
  ?deadline:Session.deadline ->
  ?journal:string ->
  ?checkpoint_every:int ->
  ?fsync:bool ->
  ?group_commit:int ->
  ?mailbox:int ->
  ?mode:mode ->
  ?supervise:Supervisor.config ->
  shards:int ->
  algorithm:Ltc_algo.Algorithm.t ->
  seed:int ->
  Ltc_core.Instance.t ->
  t
(** [create ~shards ~algorithm ~seed instance] partitions [instance]'s
    tasks and starts one session per shard (with [shards >= 2], shard
    seeds are derived from [seed] with {!Ltc_util.Rng.split_seed}; one
    shard takes [seed] itself).  Workers embedded in
    [instance] are ignored; arrivals come from {!feed}.  [mailbox]
    (default [64]) bounds each shard's queue in [`Domains] mode; the
    session options are applied to every shard session alike.

    [supervise] turns on the sharded failure model (DESIGN.md §16): a
    shard whose session raises is captured without touching its
    siblings, restored online from its own journal with
    {!Ltc_util.Fault.Retry.backoff_s} between attempts, and re-fed the
    arrivals its mailbox lost; a shard that exhausts
    [config.max_restarts] is quarantined — its arrivals it left
    undecided, and all later ones, are released as explicit unassigned
    degraded acks (what it decided before is released as decided).  With
    [overload = Shed], an arrival routed to a full mailbox is shed the
    same way instead of blocking.  Supervised shard domains probe
    {!Ltc_util.Fault} sites under the ["shard<k>"] scope, which is what
    lets {!Chaos.run_sharded} script per-shard faults deterministically
    in [`Domains] mode.  Supervision retains every routed arrival in
    memory for re-feed — the cost of online recovery.

    @raise Invalid_argument when [shards < 1], [mailbox < 1], the
    session options are invalid (see {!Session.check_options}), or
    [supervise] has [max_restarts > 0] without [~journal] or sheds
    without mailboxes (one shard, or [`Inline]).  Every check runs
    before the manifest is written, so a refused call leaves no file
    behind. *)

val feed : t -> Ltc_core.Worker.t -> Session.decision list
(** Route the next arrival (indices consecutive from 1, as in
    {!Session.feed}) and return every decision that became releasable in
    global order.  In [`Inline] mode that is exactly this arrival's
    decision — except after a restore, where an arrival its shard already
    consumed is skipped and the list is empty.  An unsupervised single
    shard skips (and counts in {!replayed}) every arrival at or below its
    session's consumed index, so a re-fed stream may start anywhere up to
    the next arrival.  In [`Domains] mode the list holds whatever
    contiguous prefix of decisions the shard domains have finished
    (possibly empty, possibly several).  Once the server is globally
    complete, further arrivals are acknowledged without routing,
    mirroring {!Session.feed}.

    @raise Invalid_argument on a closed server or a gap in the stream. *)

val flush : t -> Session.decision list
(** Wait for every routed arrival to be decided and return the remaining
    decisions in global order ([`Inline]: always []). *)

val close : t -> unit
(** {!flush} whatever is in flight, stop the shard domains, and close
    every shard session (journals flushed).  Idempotent. *)

val restore :
  ?journal:string -> ?mailbox:int -> ?mode:mode -> ?fsync:bool ->
  ?group_commit:int -> ?supervise:Supervisor.config -> path:string ->
  unit -> t
(** [restore ~path ()] rebuilds a server from what [create ~journal:path]
    wrote.  A plain session journal is a 1-shard server, its header
    standing in for a manifest; its session keeps journaling to [journal]
    when given, else to [path].  A manifest recomputes the partition from
    the embedded instance, restores every [path.shard<k>] with per-shard
    torn-tail tolerance, and restarts shards whose journal is missing or
    empty fresh.  [fsync] / [group_commit] / [mailbox] / [mode] override
    the re-attached configuration (defaults: the manifest's values, or
    {!Session.restore}'s, and [`Domains]).  Feed the arrival stream again
    from index 1: already-durable arrivals are skipped, the rest are
    re-decided.

    @raise Session.Corrupt_journal on a shard journal whose header
    differs from the manifest in algorithm, accept rate, checkpoint
    period, deadline or the seed split off for it (checked before any is
    restored), and as {!Session.restore} does.
    @raise Ltc_core.Serialize.Parse_error / [Sys_error] as
    {!read_manifest} does.
    @raise Invalid_argument on [journal] with a manifest, on
    [group_commit] or [mailbox] below 1 (before any file is read), or on
    a [supervise] that sheds without mailboxes, as {!create} does. *)

val is_manifest : string -> bool
(** [true] iff the file exists and starts with the shard-manifest magic —
    how {!restore} and [ltc journal inspect] tell a sharded journal from
    a plain one. *)

type manifest = {
  shards : int;
  mailbox : int;
  fsync : bool;
  group_commit : int;
  header : Session.header;  (** every shard's, bar the split seed *)
}
(** A shard manifest: the header lines ({!Session.emit_header}) with the
    server's own around them (and a codec line nothing reads). *)

val read_manifest : path:string -> manifest
(** Read without restoring anything, as [ltc journal inspect] does.
    @raise Ltc_core.Serialize.Parse_error naming the line on a malformed
    manifest, a value {!Session.parse_header} refuses, or a [shards],
    [mailbox] or [group_commit] below 1 (the bounds {!create} enforces).
    @raise Sys_error if [path] cannot be read. *)

val shard_journal_path : base:string -> shard:int -> string
(** The journal path of one shard under manifest [base] —
    ["<base>.shard<k>"]. *)

(** {1 Observers} *)

val shards : t -> int
val mode : t -> mode
val algorithm_name : t -> string

val consumed : t -> int
(** Arrivals consumed globally (live and, after a restore, replayed; an
    unsupervised single shard reports its session's count, restored
    prefix included). *)

val resumed_at : t -> int
(** Arrivals recovered from the shard journals by {!restore} ([0] for a
    fresh server). *)

val replayed : t -> int
(** Re-fed arrivals that were skipped because their shard had already
    consumed them (in a previous incarnation, or — single shard — at all). *)

val completed : t -> bool
(** Every shard complete? *)

val latency : t -> int
(** Largest global arrival index that answered an assignment. *)

val stalls : t -> int
(** Mailbox-full backpressure stalls ({!Ltc_util.Pool.Workers.stalls};
    [0] in [`Inline] mode). *)

val degraded_total : t -> int
(** Sum of the shard sessions' deadline-fallback decisions. *)

val supervised : t -> bool

val restarts : t -> int
(** Online shard restores performed by the supervisor ([0] when
    unsupervised). *)

val shard_restarts : t -> int array
(** Per-shard restart counts. *)

val quarantined : t -> int
(** Shards quarantined after exhausting their restart budget. *)

val shed : t -> int
(** Arrivals shed by [overload = Shed] admission control. *)

val arrangement : t -> Ltc_core.Arrangement.t
(** The merged arrangement in global task ids and global arrival order —
    byte-comparable to an un-sharded session's.  Call after {!flush} (or
    {!close}) in [`Domains] mode. *)

val shard_of_point : t -> Ltc_geo.Point.t -> int
(** The shard an arrival at this location routes to (pure). *)

val shard_consumed : t -> int array
(** Per-shard consumed counters (shard-local arrival indices). *)

val rng_states : t -> (int64 * int64) array
(** Per-shard {!Session.rng_states}: the generator states a kill/restore
    or an online restart must leave exactly as an uninterrupted run
    would. *)

val shard_task_counts : t -> int array
(** Tasks owned by each shard. *)

val journal_bytes : t -> int
(** Total bytes across all shard journals (manifest excluded). *)
