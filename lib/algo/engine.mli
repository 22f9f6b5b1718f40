(** Arrival-stream execution engine.

    The engine owns everything an online LTC algorithm must not control: the
    accumulator array [S] (a {!Ltc_core.Progress.t}), the growing
    arrangement, the stopping rule ("stop once every task reached the
    threshold", Algorithms 2-3 line 11/16) and the enforcement of the
    capacity / invariable / candidate constraints.  A policy only ranks
    tasks; a buggy policy therefore raises instead of silently producing an
    invalid arrangement.

    Offline algorithms (MCF-LTC, Base-off) build their outcome themselves
    and wrap it with {!of_arrangement} so all five algorithms report through
    the same {!outcome} record. *)

open Ltc_core

type telemetry = {
  degraded : int;
      (** decisions that degraded: arrivals decided by the fallback
          because the primary blew its deadline, or — for offline MCF-LTC
          via {!of_arrangement} — batches whose anytime solver budget
          fired (0 without a [degrade] config / solver budget) *)
}
(** Per-run degradation summary.  Per-arrival decision times go to the
    [ltc_engine_decision_seconds] metric series while the
    {!Ltc_util.Metrics} registry is enabled. *)

val no_telemetry : telemetry
(** All-zero telemetry, used by {!of_arrangement} (offline algorithms have
    no per-arrival decisions). *)

type outcome = {
  name : string;
  arrangement : Arrangement.t;
  completed : bool;   (** did every task reach the threshold? *)
  latency : int;      (** the objective: max arrival index in the arrangement *)
  workers_consumed : int;
      (** arrivals processed before stopping (>= latency for online runs) *)
  peak_memory_mb : float;
      (** high-water footprint of algorithm-owned structures *)
  telemetry : telemetry;
}

type policy =
  Instance.t -> Ltc_util.Mem.Tracker.t -> Progress.t -> Worker.t -> int list
(** [policy instance tracker progress] is partially applied once per run;
    the resulting function maps each arriving worker to the task ids to
    assign (at most the worker's capacity, candidates only, open tasks
    only — see {!Progress.is_open}).  [progress] is read-only for the
    policy: the engine performs all {!Progress.record} calls. *)

val top_open :
  score:(int -> float) -> Instance.t -> Progress.t -> Worker.t -> int list
(** The worker's capacity-many open candidates with the largest [score],
    best first, ties to the lower task id: the skeleton every greedy
    policy shares. *)

exception Invalid_decision of string
(** Raised when a policy over-assigns, repeats a task or picks a
    non-candidate. *)

val check_decisions : Instance.t -> Worker.t -> int list -> unit
(** Validate one arrival's decisions against the capacity / no-repeat /
    candidate-radius constraints {!step} enforces.  @raise
    Invalid_decision on a violation. *)

type degrade = {
  budget_s : float;
      (** per-arrival decision budget in seconds (finite, > 0).  Elapsed
          time is measured with {!Ltc_util.Fault.Clock}, so tests and the
          chaos harness can virtualise it; production reads the real
          clock. *)
  fallback_name : string;  (** for telemetry, metric labels and logs *)
  fallback : policy;
      (** the cheap policy that decides an arrival whose primary decision
          arrived late (e.g. greedy LAF or Nearest from the
          {!Algorithm} registry).  It is partially applied over the same
          engine-owned progress/tracker as the primary, so a degraded
          decision equals what the fallback algorithm would have produced
          standalone given the same progress state. *)
}
(** Graceful degradation under a per-arrival solve deadline.  The primary
    policy always runs (it cannot be interrupted mid-decision); when its
    answer arrives past [budget_s], the answer is discarded, the fallback
    decides instead, and the miss is recorded in [telemetry.degraded] and
    the [ltc_engine_degraded_total] metric.  Note the primary still
    consumed its RNG draws — replay/restore paths must preserve that. *)

val check_accept_rate : string -> float -> unit
(** [check_accept_rate fn q] accepts [0 < q <= 1]; NaN fails.
    @raise Invalid_argument ["<fn>: accept_rate must be in (0, 1]"]
    otherwise.  {!run} and the streaming service share it. *)

val check_budget : string -> float -> unit
(** [check_budget fn budget_s] accepts a finite [budget_s > 0]; NaN and
    infinity fail.  @raise Invalid_argument ["<fn>: deadline budget must
    be finite and > 0"] otherwise.  {!run} and the streaming service share
    it. *)

val degraded_counter : string -> string -> Ltc_util.Metrics.Counter.t
(** [degraded_counter algo fallback] is the [ltc_engine_degraded_total]
    counter labelled for that (primary, fallback) pair — shared with the
    streaming service so batch and serve deadline misses land in one
    metric family. *)

type config = {
  accept_rate : float option;
      (** [Some q] simulates no-show noise: each assignment is actually
          answered only with probability [q].  Unanswered assignments still
          consume the worker's capacity (the question was sent) but
          contribute no score, do not enter the returned arrangement, and
          are invisible to the policy — the platform only observes answers.
          Requires [rng]; even [q = 1.0] draws once per assignment, so the
          consumed RNG stream is a function of the assignment sequence
          alone, not of [q]. *)
  rng : Ltc_util.Rng.t option;
      (** Source for the no-show draws (one bernoulli per assigned task, in
          assignment order).  Advanced in place. *)
  tracker : Ltc_util.Mem.Tracker.t option;
      (** Memory tracker to charge; the engine creates a private one when
          absent.  Either way its baseline is (re)set to the progress
          array's footprint at run start. *)
  degrade : degrade option;
      (** Per-arrival deadline with fallback; [None] (the default) never
          degrades. *)
}
(** Execution options for {!run}.  {!default_config} is the paper's model:
    every assignment answered, no injected RNG, private tracker, no
    deadline. *)

val default_config : config

val run : ?config:config -> name:string -> policy -> Instance.t -> outcome
(** Batch arrival-stream execution: {!start}, then {!step} through
    [instance]'s workers in arrival order until every task is complete or
    the stream is exhausted, with the [ltc_engine_*] metrics and
    telemetry around each step.  Under [config.degrade] each live
    decision probes the [engine.decide] fault site.  @raise
    Invalid_argument when [config.accept_rate] is outside (0, 1] (or NaN)
    or set without an [rng], or when [config.degrade] carries a budget
    that is not finite and positive. *)

(** {2 One arrival at a time}

    The step every online driver shares: {!run}, [Session.feed] and
    {!Dynamic.run} each fold it, with their own metrics, spans and timing
    around it. *)

type decision = {
  worker : int;  (** arrival index the decision answers *)
  assigned : int list;  (** tasks the policy assigned, in policy order *)
  answered : int list;  (** the subset of [assigned] that showed up *)
  completed : bool;  (** all tasks complete after this arrival *)
  latency : int;  (** current latency: largest recruited arrival index *)
  degraded : bool;  (** the deadline fallback made this decision *)
}

type state
(** One run's progress, arrangement, arrival count and policies. *)

val start :
  ?config:config ->
  ?site:string ->
  ?progress:Progress.t ->
  ?arrangement:Arrangement.t ->
  ?consumed:int ->
  name:string ->
  policy ->
  Instance.t ->
  state
(** A run resuming from [progress] (default: fresh, every task open),
    [arrangement] (default empty) and [consumed] arrivals (default 0);
    [site] is the fault site probed after each live primary decision.
    @raise Invalid_argument as {!run} does. *)

val step : ?forced:bool -> state -> Worker.t -> decision
(** Decide one arrival and apply it: the policy decides (under a
    deadline, the fallback replaces a late answer), the decision passes
    {!check_decisions}, the arrival is consumed, each assigned task draws
    its no-show, and answered tasks enter the progress and the
    arrangement.  [forced] replays a journaled arrival: the primary still
    runs for its RNG draws, the fallback decides iff [forced], and
    neither the clock nor the fault site is read.  The caller checks
    completion and arrival order first.
    @raise Invalid_decision when the decision breaks a constraint. *)

val progress : state -> Progress.t
val arrangement : state -> Arrangement.t
val consumed : state -> int

val degraded : state -> int
(** Decisions the fallback made, forced ones included. *)

val peak_memory_mb : state -> float

val finish : ?telemetry:telemetry -> state -> outcome
(** The run's outcome so far; [telemetry] defaults to {!no_telemetry}. *)

val of_arrangement :
  name:string ->
  ?workers_consumed:int ->
  ?tracker:Ltc_util.Mem.Tracker.t ->
  ?telemetry:telemetry ->
  Instance.t ->
  Arrangement.t ->
  outcome
(** Wraps an arrangement produced by an offline algorithm, recomputing
    completion and latency.  [workers_consumed] defaults to the
    arrangement's latency.  [telemetry] (default {!no_telemetry}) lets an
    offline algorithm report solver-side degradations — MCF-LTC counts
    batches whose anytime budget fired in [telemetry.degraded]. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One line with every scalar field:
    [name: latency=L assignments=A completed=B consumed=C mem=M.MMMB]. *)
