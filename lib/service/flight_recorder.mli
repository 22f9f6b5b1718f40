(** Per-arrival flight recorder: a fixed-capacity ring of structured
    arrival records, cheap enough to leave on for every load-generator
    run.  When the ring is full the oldest record is overwritten
    ({!dropped} counts the loss), so after an SLO breach the recorder
    holds the [capacity] most recent arrivals — the black box to dump
    ({!to_ndjson}, {!dump}) for post-mortem analysis, or to export as a
    Chrome trace ({!to_chrome_json}) for Perfetto. *)

type record = {
  seq : int;  (** arrival sequence number (worker index) *)
  offered_s : float;  (** intended (scheduled) arrival time *)
  actual_s : float;  (** when the arrival was actually fed *)
  done_s : float;  (** when its decision came back *)
  latency_s : float;
      (** decision latency from the {e intended} arrival time
          ([done_s - offered_s]): the coordinated-omission-corrected
          number *)
  assigned : int;  (** tasks assigned by the decision *)
  degraded : bool;  (** decided by the deadline fallback *)
  journal_bytes : int;  (** journal size after the decision ([0] in-memory) *)
}

type t

val create : capacity:int -> t
(** A recorder that keeps the [capacity] most recent records.  Its ring
    grows by doubling with what is recorded, so a large capacity costs
    nothing until it fills.  @raise Invalid_argument when
    [capacity < 1]. *)

val record : t -> record -> unit
(** Append, overwriting the oldest record once [capacity] are held. *)

val capacity : t -> int

val length : t -> int
(** Records currently held ([<= capacity]). *)

val total : t -> int
(** Records ever appended. *)

val dropped : t -> int
(** Records lost to overwrite ([total - length]). *)

val iter : (record -> unit) -> t -> unit
(** Oldest surviving record first. *)

val to_ndjson : t -> string
(** One JSON object per line, oldest first, schema
    [{"seq":..,"offered_s":..,"actual_s":..,"done_s":..,"latency_s":..,
    "assigned":..,"degraded":..,"journal_bytes":..}]. *)

val dump : t -> path:string -> unit
(** Write {!to_ndjson} to [path] (truncates). *)

val to_chrome_json : t -> string
(** Chrome trace-event JSON array: per arrival one ["X"] slice [decide]
    from [actual_s] to [done_s] (annotated with seq/assigned/degraded),
    preceded by a [queued] slice from [offered_s] to [actual_s] when the
    arrival was fed late.  Rendered by {!Ltc_util.Trace.chrome_json}:
    timestamps in microseconds, loadable in [chrome://tracing] or
    Perfetto. *)
