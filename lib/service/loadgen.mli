(** Open-loop load generator over a {!Shard_server} (one shard is a
    plain session).

    The generator precomputes the intended arrival schedule from a
    {!Ltc_workload.Shape} and replays it against the server, measuring
    each decision's latency from the {e intended} arrival time — not from
    when the arrival was actually fed — so a slow decision that backs up
    the queue penalises every arrival scheduled behind it
    (coordinated-omission correction).  Latencies land in a
    {!Ltc_util.Metrics.Hdr} histogram and every arrival is recorded in a
    {!Flight_recorder} ring.

    Two timing modes:

    - [Virtual] (the default, deterministic): the run executes on the
      virtual {!Ltc_util.Fault.Clock} and each arrival's service time is
      drawn from a seeded distribution and injected as a [Delay] fault at
      the ["session.decide"] site — so the sessions' deadline/degradation
      machinery reacts to the synthetic times exactly as it would to real
      ones, and the whole report is a pure function of the config.
      {!run} owns the fault plan and the clock for the duration (arming
      its own plan and clearing both on exit).
    - [Wall]: real time; the generator sleeps until each intended arrival
      and measures the policy's actual compute latency.  Not
      deterministic; no service-time injection. *)

type service =
  | Fixed of float  (** every decision takes exactly this many seconds *)
  | Exponential of float  (** i.i.d. exponential with this mean *)

type timing = Virtual | Wall

type config = {
  shape : Ltc_workload.Shape.t;
  arrivals : int;  (** arrivals to offer (capped by available workers) *)
  service : service;  (** synthetic decide time ([Virtual] only) *)
  seed : int;  (** seeds the schedule jitter and the service draws *)
  timing : timing;
  slo_s : float option;
      (** corrected-latency SLO threshold; breaches are counted and the
          first one fires [on_breach] *)
  recorder_capacity : int;  (** flight-recorder ring size *)
}

val default_config : shape:Ltc_workload.Shape.t -> config
(** [arrivals = 1000], [service = Fixed 1e-4], [seed = 0],
    [timing = Virtual], [slo_s = None], [recorder_capacity = 4096]. *)

type shard_stats = {
  s_shard : int;
  s_arrivals : int;  (** decisions attributed to this shard *)
  s_p50_s : float;
  s_p99_s : float;
}

type report = {
  r_shape : string;  (** canonical shape rendering *)
  r_timing : string;  (** ["virtual"] or ["wall"] *)
  r_algo : string;
  r_seed : int;
  r_offered : int;  (** arrivals offered to the server *)
  r_consumed : int;  (** arrivals the server consumed *)
  r_completed : bool;  (** server reached completion during the run *)
  r_degraded : int;  (** decisions made by the deadline fallback *)
  r_offered_per_s : float;  (** offered rate over the schedule span *)
  r_achieved_per_s : float;  (** consumed / makespan *)
  r_makespan_s : float;  (** clock time from start to last decision *)
  r_mean_s : float;
  r_p50_s : float;
  r_p99_s : float;
  r_p999_s : float;
  r_max_s : float;  (** exact worst corrected latency *)
  r_slo_s : float option;  (** the configured SLO threshold *)
  r_breaches : int;  (** arrivals whose corrected latency exceeded the SLO *)
  r_first_breach : int option;  (** seq of the first breach *)
  r_hdr : Ltc_util.Metrics.Hdr.t;
      (** full latency distribution: a fresh histogram built with the
          config-checked [Hdr.merge] over the per-shard histograms *)
  r_recorder : Flight_recorder.t;  (** the per-arrival black box *)
  r_shards : shard_stats array;  (** per-shard latency breakdown *)
  r_stalls : int;  (** mailbox-full backpressure stalls during the run *)
  r_restarts : int;
      (** online shard restores ({!Shard_server.restarts}; [0] when
          unsupervised) *)
  r_quarantined : int;  (** shards quarantined during the run *)
  r_shed : int;  (** arrivals shed by [Shed] admission control *)
}

val check_config :
  mode:Shard_server.mode -> supervised:bool -> config -> unit
(** The checks {!run} makes of [config] that need no server: a finite,
    non-negative fixed service time (a positive exponential mean), a
    finite positive SLO, [arrivals >= 1], [recorder_capacity >= 1], and
    [Virtual] timing only over an unsupervised [Inline] server of the
    given [mode].  Call it before creating the server, so that a refused
    run leaves no journal behind.
    @raise Invalid_argument with the message {!run} would raise. *)

val run :
  ?on_breach:(seq:int -> Flight_recorder.t -> unit) ->
  server:Shard_server.t ->
  workers:Ltc_core.Worker.t array ->
  config ->
  report
(** Drive [server] open-loop with [workers] (consecutive indices from 1,
    e.g. an instance's embedded worker array) as the arrival stream.  The
    run stops at [config.arrivals], at the end of [workers], or as soon as
    the server completes; {!Shard_server.flush} is called after the last
    feed so every offered arrival is accounted.  Corrected latency is
    measured per {e released} decision from its own arrival's intended
    time, so in [`Domains] mode a decision surfacing several feeds later
    carries the full pipeline delay; the flight recorder keeps each
    arrival's feed time.  [on_breach] fires once, at the first SLO
    breach, with the recorder as it stood at the breach.

    [Virtual] timing requires an unsupervised [`Inline]-mode server: the
    fault clock and Delay plan are process-global and single-domain, and
    a supervised server probes under shard scopes the service-time
    delays do not reach.  Latency
    quantiles are also published to the registry as
    [ltc_service_loadgen_latency_seconds{quantile=..}] gauges (visible
    when {!Ltc_util.Metrics} is enabled).

    @raise Invalid_argument when {!check_config} refuses [config] for the
    server's mode and supervision, the server is not fresh, or [workers]
    is empty. *)

val pp_report : Format.formatter -> report -> unit
(** The stable multi-line rendering the CLI prints (and the cram tests
    pin); with more than one shard it ends with one line per shard
    (arrivals, p50, p99) and the mailbox-stall / supervision counters. *)
