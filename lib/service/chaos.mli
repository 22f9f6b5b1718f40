(** Crash-recovery verification: replay a workload under a scripted
    {!Ltc_util.Fault} plan, recover from every injected crash, and diff
    the surviving decision stream against a fault-free baseline.

    Two failure models, one harness.  {!run} kills the whole session at
    every crash and restores it from its journal; {!run_sharded} kills
    single shards of a supervised [`Domains] {!Shard_server}, which the
    supervisor restores online while their siblings run on.  Both feed
    the same arrival stream twice over the virtual {!Ltc_util.Fault.Clock}:

    + {b baseline} — an [`Inline] server with no journal and no
      supervisor at the run's shard count (one shard is the plain
      session), armed with only the plan's [Delay] faults, the one class
      {e allowed} to influence decisions (via a deadline);
    + {b chaos} — the journaled run, armed with the full plan.

    The report compares the two decision by decision, then by final
    state: consumed, latency, completion, arrangement and every shard's
    RNG states.  Without a deadline the two must be identical: crashes,
    torn writes, I/O errors and delays have {e zero} effect on decisions.
    With a deadline and [Delay] faults, degradation is part of the
    stream; identity then also requires that no crash re-decides an
    arrival (that shifts the ["session.decide"] hit counter the delays
    are keyed on).  [ltc chaos] therefore runs without a deadline unless
    asked, and {!run_sharded} never takes one.  A quarantined shard's
    arrivals come back as unassigned degraded acks, which diverge by
    design. *)

type recovery =
  | Kill_restore of { kills : int; restores : int }
      (** {!run}: session kills the harness recovered from, and the
          successful {!Session.restore} calls among the recoveries *)
  | Supervised of {
      restarts : int;  (** online shard restores across all shards *)
      shard_restarts : int array;
      quarantined : int;  (** shards that exhausted their restart budget *)
      shed : int;
    }  (** {!run_sharded}: the supervised server's own counters *)

type report = {
  identical : bool;
      (** surviving stream and final state match the baseline exactly *)
  divergence : string option;  (** first difference, when not identical *)
  arrivals : int;  (** workers fed (same for both runs) *)
  recovery : recovery;
  degraded : int;
      (** degraded surviving decisions (deadline fallbacks; quarantine and
          shed acks) *)
  stats : Ltc_util.Fault.stats;  (** faults that actually fired *)
  baseline : Session.decision array;  (** by arrival, fault-free *)
  survived : Session.decision array;  (** by arrival, under the plan *)
}

val plan :
  ?crashes:int ->
  ?io_errors:int ->
  ?torn_writes:int ->
  ?delays:int ->
  ?horizon:int ->
  seed:int ->
  unit ->
  Ltc_util.Fault.plan
(** A seeded {!Ltc_util.Fault.plan} over one session's journal sites
    (the header write included) and its ["session.decide"] delays.
    Defaults: 1 crash, nothing else, horizon 40.
    @raise Invalid_argument as {!Ltc_util.Fault.plan} does. *)

val sharded_plan :
  ?crashes:int ->
  ?io_errors:int ->
  ?torn_writes:int ->
  ?delays:int ->
  ?horizon:int ->
  seed:int ->
  shards:int ->
  unit ->
  Ltc_util.Fault.plan
(** Shard [k] gets its own seeded plan (fault counts are {e per shard})
    over the same sites under its ["shard<k>/"] scope, with a sub-seed
    split from [seed] and the same defaults.  The header write is left
    out: the initial create runs unsupervised. *)

val run :
  ?accept_rate:float ->
  ?deadline:Session.deadline ->
  ?checkpoint_every:int ->
  ?group_commit:int ->
  plan:Ltc_util.Fault.plan ->
  algorithm:Ltc_algo.Algorithm.t ->
  seed:int ->
  journal:string ->
  Ltc_core.Instance.t ->
  report
(** [run ~plan ~algorithm ~seed ~journal instance] feeds
    [instance.workers] (which must be non-empty) through both runs and
    reports.  [journal] is the chaos run's journal path (truncated at
    start, [fsync:true]); [group_commit] configures its commit batching
    exactly as {!Session.create} does — crashes then lose the buffered
    group, which restore treats as a torn tail.  Decisions are captured
    through the session's [on_decision] hook, before the journal append,
    so a decision whose append crashed is re-made after the restore and
    checked too.  More than [10 + 4 ×] plan size kills raise [Failure]
    — a correctly one-shot plan cannot reach it.  Always leaves the
    fault plan disarmed and the virtual clock cleared.

    @raise Invalid_argument on an empty worker array or an offline
    [algorithm]/fallback.
    @raise Session.Corrupt_journal if a restore finds real corruption —
    under injected faults alone this indicates a journal-layer bug. *)

val run_sharded :
  ?accept_rate:float ->
  ?checkpoint_every:int ->
  ?group_commit:int ->
  ?supervise:Supervisor.config ->
  plan:Ltc_util.Fault.plan ->
  shards:int ->
  algorithm:Ltc_algo.Algorithm.t ->
  seed:int ->
  journal:string ->
  Ltc_core.Instance.t ->
  report
(** [run_sharded ~plan ~shards ~algorithm ~seed ~journal instance] feeds
    [instance.workers] (non-empty) through both runs and reports; the
    chaos run is a supervised [`Domains] server of [shards] shards under
    a {!sharded_plan}, and its decisions are what the merge layer
    releases.  [journal] is its manifest path ([journal.shard<k>] per
    shard, all truncated at start; [fsync:true]).
    [supervise] defaults to {!Supervisor.default} with a restart budget
    of [10 +] plan size, so a one-shot plan can never quarantine; pass a
    tighter config to exercise quarantine.  [checkpoint_every] defaults
    to [64].

    @raise Invalid_argument on an empty worker array or an offline
    [algorithm]. *)
