(** Restart-budget policy and health accounting for supervised shard
    servers.

    A supervisor owns the {e decisions} of the sharded failure model —
    restart or quarantine, and after what backoff — while
    {!Shard_server} owns the mechanics (lane capture, online
    {!Session.restore}, mailbox re-feed).  Keeping the policy separate
    makes the budget state machine unit-testable without domains or
    journals.

    Per shard, the first [max_restarts] crashes answer
    [`Restart backoff_s] with {!Ltc_util.Fault.Retry.backoff_s}
    exponential backoff (attempt [k] after the [k]-th crash); every
    crash beyond the budget answers [`Quarantine], permanently.  A
    quarantined shard's arrivals must be acknowledged with explicit
    unassigned decisions — never silently dropped, never allowed to hang
    the merge layer.

    Health is surfaced through the {!Ltc_util.Metrics} registry
    ([ltc_shard_restarts_total], [ltc_shard_shed_total],
    [ltc_shard_quarantined]) and through per-instance observers. *)

type overload =
  | Block  (** full mailbox blocks {!Shard_server.feed} (backpressure) *)
  | Shed
      (** full mailbox sheds the arrival: it is acknowledged immediately
          with an unassigned degraded decision and never touches the
          shard *)

type config = {
  max_restarts : int;
      (** per-shard online restores before quarantine (>= 0; [0] means
          quarantine on the first crash) *)
  overload : overload;
}

val default : config
(** 3 restarts per shard, [Block]. *)

type t

val create : shards:int -> config -> t
(** @raise Invalid_argument when [shards < 1] or
    [config.max_restarts < 0]. *)

val on_crash : t -> shard:int -> [ `Restart of float | `Quarantine ]
(** Account one crash of [shard].  [`Restart d]: the caller should back
    off [d] seconds ({!Ltc_util.Fault.sleep}) and restore the shard;
    the restart is already counted (and [ltc_shard_restarts_total]
    bumped).  [`Quarantine]: budget exhausted — the shard is marked
    quarantined (idempotently) and must not be restored.
    @raise Invalid_argument on an unknown shard. *)

val note_shed : t -> unit
(** Count one shed arrival (and bump [ltc_shard_shed_total]). *)

(** {1 Observers} *)

val config : t -> config
val shards : t -> int

val restarts : t -> int
(** Total restarts granted across all shards. *)

val shard_restarts : t -> int array
(** Per-shard restart counts (a copy). *)

val quarantined : t -> int
(** Number of quarantined shards. *)

val is_quarantined : t -> shard:int -> bool
val shed : t -> int

val scope : shard:int -> string
(** The {!Ltc_util.Fault.with_scope} scope name of a shard's domain,
    ["shard<k>"] — also the prefix plans use to target that shard
    ({!Ltc_util.Fault.scope_site}). *)
