(** Process-global metric registry: counters, gauges and fixed-bucket
    histograms, in the Prometheus data model.

    Instruments are registered once per (name, label set) — re-registering
    returns the existing instrument, so call sites can look their series up
    at run start without coordinating.  The mutation paths ({!Counter.incr},
    {!Histogram.observe}, ...) are allocation-free: a branch on the global
    enable flag plus mutable-field updates, so leaving them compiled into
    hot loops costs nothing measurable while the registry is disabled
    (the default).

    Every operation is domain-safe: counters and gauges are atomic cells,
    histograms and the registry are mutex-guarded.  Concurrent increments
    from pool worker domains (see {!Pool}) sum exactly; snapshots render a
    coherent view of each series.

    Snapshots ({!to_json}, {!to_prometheus}) render every registered series
    in a deterministic order (name, then labels), which is what the test
    suite and the cram tests pin. *)

type labels = (string * string) list
(** Label key/value pairs; order is irrelevant (canonicalised on
    registration).  Values must not contain newlines. *)

val set_enabled : bool -> unit
(** Master switch; starts [false].  While disabled every mutation is a
    no-op, so snapshots stay at registration defaults. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Zeroes every registered series (counts, sums, gauge values) without
    dropping registrations.  Meant for tests and for per-run isolation in
    harnesses. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  (** Monotone increment; [add] with a negative amount raises
      [Invalid_argument]. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Adds the observation to the first bucket whose upper bound is [>=] the
      value (cumulative buckets are computed at snapshot time, like
      Prometheus client libraries).  Non-finite observations (NaN or an
      infinity, e.g. from a zero-duration timer division) are dropped and
      counted in [ltc_metrics_dropped_observations_total] instead of
      corrupting the bucket sums. *)

  val count : t -> int
  val sum : t -> float
end

(** HDR-style log-bucketed latency histogram with bounded relative error.

    Values are recorded into geometric buckets of ratio
    [(1 + rel_error)^2]; {!Hdr.percentile} reconstructs at the geometric
    bucket midpoint, so every quantile estimate is within [rel_error] of
    the exact rank-based percentile of the recorded finite values (the
    exact observed min/max are tracked and always returned exactly).

    Unlike {!Histogram}, an [Hdr] is a standalone, always-on instrument:
    it is not part of the registry and ignores {!set_enabled}, which lets
    the load generator depend on it unconditionally.  All operations are
    mutex-guarded and domain-safe. *)
module Hdr : sig
  type t

  val create : unit -> t
  (** [create ()] tracks values in [[1e-9, 1e5]] seconds with relative
      error {!rel_error}.  Values outside the range clamp into the edge
      buckets; the exact extremes still come back through
      {!min_observed}/{!max_observed}. *)

  val observe : t -> float -> unit
  (** Records a value.  Non-finite values are dropped (counted by
      {!dropped} and [ltc_metrics_dropped_observations_total]). *)

  val count : t -> int
  (** Finite observations recorded. *)

  val sum : t -> float
  (** Exact sum of the recorded values (not bucket-quantised). *)

  val mean : t -> float
  (** [sum / count]; NaN while empty. *)

  val dropped : t -> int
  (** Non-finite observations dropped. *)

  val min_observed : t -> float
  (** Exact smallest recorded value; [+Inf] while empty. *)

  val max_observed : t -> float
  (** Exact largest recorded value; [-Inf] while empty. *)

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [[0, 100]] is the value at rank
      [ceil (p/100 * count)] (rank 1 for [p = 0]), reconstructed to
      within [rel_error] relative error and clamped into
      [[min_observed, max_observed]].  NaN while empty.
      @raise Invalid_argument when [p] is outside [[0, 100]]. *)

  val merge : into:t -> t -> unit
  (** [merge ~into src] adds [src]'s recorded state into [into]
      (bucket-exact: equivalent to having observed the concatenation).
      [src] is unchanged.
      @raise Invalid_argument when [into == src]. *)

  val rel_error : float
  (** [0.01]: every instrument's relative error bound, 1%. *)
end

val counter : ?help:string -> ?labels:labels -> string -> Counter.t
val gauge : ?help:string -> ?labels:labels -> string -> Gauge.t

val histogram :
  ?help:string -> ?labels:labels -> ?buckets:float array -> string ->
  Histogram.t
(** [buckets] must be strictly increasing and non-empty (default:
    log-spaced seconds buckets [1e-6 .. 10.0], suitable for decision and
    solve latencies); an implicit [+Inf] bucket is always appended.

    All three registration functions raise [Invalid_argument] when [name]
    is already registered with a different instrument kind, or — for
    histograms — with different buckets. *)

val dropped_observations : unit -> int
(** Total non-finite observations dropped across all histograms (the value
    of [ltc_metrics_dropped_observations_total], which is registered on
    the first drop).  Subject to {!set_enabled} like any counter. *)

val to_prometheus : unit -> string
(** Prometheus text exposition format (version 0.0.4): [# HELP] / [# TYPE]
    per metric name, then one line per series, deterministically ordered
    (name, then sorted labels; label values escaped per the exposition
    format). *)

val to_json : unit -> string
(** JSON array of series objects:
    [{"name":..,"type":..,"help":..,"labels":{..},..}] with kind-specific
    payload ([value] for counters/gauges, [buckets]/[sum]/[count] for
    histograms).  Deterministically ordered like {!to_prometheus}. *)
