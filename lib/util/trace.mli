(** Lightweight nested tracing: wall-clock spans in a bounded ring buffer.

    Tracing is off by default; while disabled, {!with_span} is a single
    branch plus the traced function call — no clock reads, no allocation,
    no recorded state — so instrumentation can stay compiled into hot
    paths.  When enabled, each completed span records its name, nesting
    depth, parent, start offset and duration into a fixed-capacity ring
    buffer (oldest spans are overwritten; {!dropped} counts the loss).

    Spans use {!Unix.gettimeofday} and share {!Timer}'s caveat: wall time
    can step backwards, so durations are clamped to [>= 0].

    Tracing is domain-safe: span ids come from an atomic counter, the
    open-span stack (and thus [parent]/[depth] nesting) is per-domain, and
    the completed-span ring is mutex-guarded.  Spans recorded by different
    domains interleave in the ring; {!spans} still returns them ordered by
    start ([id]).  {!clear} and {!set_capacity} reset the calling domain's
    open-span stack only — call them with no spans open elsewhere. *)

type span = {
  id : int;          (** monotonically increasing start order *)
  parent : int;      (** [id] of the enclosing span, [-1] at top level *)
  depth : int;       (** nesting depth, [0] at top level *)
  name : string;
  start_s : float;   (** seconds since {!set_enabled}[ true] *)
  duration_s : float;
}

val set_enabled : bool -> unit
(** Enabling (re)starts the trace clock; disabling keeps recorded spans
    readable. *)

val enabled : unit -> bool

val clear : unit -> unit
(** Drops all recorded spans and resets the id counter. *)

val set_capacity : int -> unit
(** Ring-buffer capacity (default 1024).  Implies {!clear}.
    @raise Invalid_argument when not positive. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span.  The span is recorded even
    when [f] raises (the exception is re-raised).  A no-op wrapper when
    tracing is disabled. *)

val spans : unit -> span list
(** Completed spans that are still in the ring, ordered by start ([id]). *)

val dropped : unit -> int
(** Completed spans lost to ring overwrite since the last {!clear}. *)

val to_json : unit -> string
(** JSON array of span objects
    [{"id":..,"parent":..,"depth":..,"name":..,"start_s":..,"duration_s":..}]
    in {!spans} order. *)

type event = {
  ev_name : string;
  ev_start_s : float;
  ev_duration_s : float;
  ev_args : (string * string) list;
      (** keys and their values, already rendered as JSON *)
}
(** One Chrome-trace complete (["ph":"X"]) event. *)

val chrome_json : event list -> string
(** The Chrome trace-event JSON array of [events], in list order, with
    timestamps and durations in microseconds and every event on one
    pid/tid — loadable directly in [chrome://tracing] or Perfetto.  The
    one trace writer: {!to_chrome_json} and the service's flight recorder
    both render through it. *)

val to_chrome_json : unit -> string
(** {!chrome_json} of {!spans}, each annotated with its id, parent and
    depth. *)
