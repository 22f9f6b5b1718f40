(** Crash-recovery verification: replay a workload under a scripted
    {!Ltc_util.Fault} plan, killing and restoring the session at every
    injected crash, and diff the surviving decision stream against a
    fault-free baseline.

    The harness runs the same arrival stream twice over the virtual
    {!Ltc_util.Fault.Clock}:

    + {b baseline} — journal-less session, armed with only the plan's
      [Delay] faults (the one class that is {e allowed} to influence
      decisions, via a deadline);
    + {b chaos} — journaled session armed with the full plan.  Every
      {!Ltc_util.Fault.Injected_crash} (and any transient error that
      outlives its retry budget) kills the session; the harness restores
      from the journal and resumes the stream from the last durable
      arrival.

    Decisions are captured through the session's [on_decision] hook, which
    fires before the journal append — so even a decision whose append
    crashed is accounted for, re-made deterministically after the restore,
    and verified to come out the same.

    Without a deadline the two streams must be byte-identical: crashes,
    torn writes, I/O errors and delays all have {e zero} effect on the
    decision stream.  With a deadline and [Delay] faults, degradation is
    part of the decision stream; identity then additionally requires that
    no crash re-decides an arrival (re-deciding shifts the
    ["session.decide"] hit counter the delays are keyed on).  [ltc chaos]
    therefore runs without a deadline unless explicitly asked. *)

type report = {
  identical : bool;
      (** surviving stream and final state match the baseline exactly *)
  divergence : string option;  (** first difference, when not identical *)
  arrivals : int;  (** workers fed (same for both runs) *)
  crashes : int;  (** session kills the harness recovered from *)
  restores : int;  (** successful {!Session.restore} calls *)
  degraded : int;  (** surviving decisions made by the deadline fallback *)
  stats : Ltc_util.Fault.stats;  (** faults that actually fired *)
  baseline : Session.decision array;  (** by arrival, fault-free *)
  survived : Session.decision array;  (** by arrival, under the plan *)
}

val run :
  ?accept_rate:float ->
  ?deadline:Session.deadline ->
  ?checkpoint_every:int ->
  ?group_commit:int ->
  ?max_restores:int ->
  plan:Ltc_util.Fault.plan ->
  algorithm:Ltc_algo.Algorithm.t ->
  seed:int ->
  journal:string ->
  Ltc_core.Instance.t ->
  report
(** [run ~plan ~algorithm ~seed ~journal instance] feeds
    [instance.workers] (which must be non-empty) through both runs and
    reports.  [journal] is the chaos run's journal path (truncated at
    start); [group_commit] configures its commit batching exactly as
    {!Session.create} does — crashes then lose the buffered group, which
    restore treats as a torn tail.  [max_restores] (default [10 + 4 ×]
    plan size) bounds the
    kill/restore loop; exceeding it raises [Failure] — a correctly
    one-shot plan cannot reach it.  Always leaves the fault plan
    disarmed and the virtual clock cleared, even on exceptions.

    @raise Invalid_argument on an empty worker array or an offline
    [algorithm]/fallback.
    @raise Session.Corrupt_journal if a restore finds real corruption —
    under injected faults alone this indicates a journal-layer bug. *)

(** {1 Sharded chaos}

    The sharded harness points the same discipline at the concurrent
    runtime: a {e supervised} [`Domains] {!Shard_server} under a
    per-shard scoped plan, killing individual shard domains mid-stream
    and letting the supervisor restore them online, against an inline,
    journal-less, unsupervised baseline of the same sharded computation.
    Without quarantines the merged stream must be byte-identical — every
    crash is absorbed by restore + re-feed with zero lost or duplicated
    decisions.  The sharded harness runs deadline-free, so [Delay]
    faults (scoped, hence invisible to the unscoped baseline) are
    decision-inert. *)

type sharded_report = {
  s_identical : bool;
  s_divergence : string option;
  s_arrivals : int;
  s_shards : int;
  s_restarts : int;  (** online shard restores across all shards *)
  s_shard_restarts : int array;
  s_quarantined : int;  (** shards that exhausted their restart budget *)
  s_shed : int;
  s_degraded : int;
      (** degraded decisions in the surviving stream (quarantine/shed
          acks included) *)
  s_stats : Ltc_util.Fault.stats;
  s_baseline : Session.decision array;
  s_survived : Session.decision array;
}

val sharded_plan :
  ?crashes:int ->
  ?io_errors:int ->
  ?torn_writes:int ->
  ?delays:int ->
  ?horizon:int ->
  ?delay_s:float ->
  seed:int ->
  shards:int ->
  unit ->
  Ltc_util.Fault.plan
(** A seeded per-shard scoped plan: shard [k] gets its own
    {!Ltc_util.Fault.plan} (fault counts are {e per shard}) over its
    ["shard<k>/..."] journal sites, with a sub-seed split from [seed].
    Defaults: 1 crash per shard, horizon 40.  ["journal.header"] is
    excluded — the initial create runs unsupervised. *)

val run_sharded :
  ?accept_rate:float ->
  ?checkpoint_every:int ->
  ?group_commit:int ->
  ?mailbox:int ->
  ?supervise:Supervisor.config ->
  plan:Ltc_util.Fault.plan ->
  shards:int ->
  algorithm:Ltc_algo.Algorithm.t ->
  seed:int ->
  journal:string ->
  Ltc_core.Instance.t ->
  sharded_report
(** [run_sharded ~plan ~shards ~algorithm ~seed ~journal instance] feeds
    [instance.workers] (non-empty) through both runs and reports.
    [journal] is the chaos run's manifest path ([journal.shard<k>] per
    shard, all truncated at start); the chaos run uses [fsync:true].
    [supervise] defaults to {!Supervisor.default} with a restart budget
    generous enough for the plan ([10 +] plan size), so a one-shot plan
    can never quarantine; pass a tighter config to exercise quarantine.
    [checkpoint_every] defaults to [64].  Always leaves the fault plan
    disarmed and the virtual clock cleared.

    @raise Invalid_argument on an empty worker array or an offline
    [algorithm]. *)
