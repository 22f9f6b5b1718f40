(** Plain-text persistence for instances and arrangements.

    A line-oriented format so that generated workloads can be saved,
    shipped and replayed bit-for-bit (the CLI's [ltc generate] /
    [ltc run --load] flow), and arrangements can be archived next to the
    numbers they produced:

    {v
    ltc-instance v1
    epsilon 0.14
    accuracy sigmoid 30
    scoring hoeffding
    radius 30
    tasks 2
    t 0 105.5 20.5
    t 1 10 17 0.02          # trailing field = per-task epsilon
    workers 1
    w 1 3 4.5 0.86 6        # index x y accuracy capacity
    v}

    Floats are printed with round-trip precision.  [Custom] accuracy models
    embed arbitrary OCaml closures and are rejected at save time. *)

exception Parse_error of { line : int; message : string }

val parse_error : line:int -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Parse_error} at [line] with a formatted message. *)

val save_instance : path:string -> Instance.t -> unit
(** @raise Invalid_argument on a [Custom] accuracy model. *)

val load_instance : path:string -> Instance.t
(** @raise Parse_error on malformed input. *)

val save_arrangement : path:string -> Arrangement.t -> unit
val load_arrangement : path:string -> Arrangement.t

val instance_to_string : Instance.t -> string
val instance_of_string : string -> Instance.t
val arrangement_to_string : Arrangement.t -> string
val arrangement_of_string : string -> Arrangement.t

(** {2 Snapshot payloads}

    Old text journals of the streaming service ({!Ltc_service}) embed
    [Progress] snapshots (thresholds, accumulators and the raw running
    [sum_remaining]) in the same line-oriented format, which the service
    reads when it imports one; nothing writes them any more.  Floats
    round-trip exactly, so a restored session answers every aggregate
    query bit-identically. *)

val progress_of_string : string -> Progress.t

(** {2 Low-level emit/parse}

    Composable building blocks for formats that embed instances,
    arrangements or snapshot payloads inside a larger stream (the service
    journal).  A [sink] receives output chunks; a [source] yields
    significant lines (comments and blanks stripped) and tracks line
    numbers for {!Parse_error} reports. *)

type sink = string -> unit

type source

val source_of_channel : in_channel -> source
val source_of_string : string -> source

val next_line : source -> string
(** Next significant line.  @raise Parse_error at end of input. *)

val next_line_opt : source -> string option
(** Next significant line, or [None] at end of input. *)

val line_number : source -> int
(** Line number of the last line returned (for error reports). *)

val line_offset : source -> int
(** Byte offset of the first character of the last line returned ([0]
    before any read).  The service journal's corruption diagnostics name
    this offset, so operators can inspect the damage with [dd]/[xxd]. *)

val fields : string -> string list
(** Whitespace-split, empty fields dropped. *)

val float_field : source -> string -> float
val int_field : source -> string -> int
(** Parse one field; @raise Parse_error with the source's current line on
    malformed input.  [float_field] also refuses NaN and infinities: no
    float in these formats may be non-finite. *)

val emit_instance : sink -> Instance.t -> unit
val parse_instance : source -> Instance.t
val emit_arrangement : sink -> Arrangement.t -> unit
val parse_arrangement : source -> Arrangement.t
val parse_progress : source -> Progress.t

(** {2 Binary record codec}

    A compact length-prefixed binary encoding for the streaming-service
    journal's per-event records (the hot append path) and snapshots.
    Each record is framed as

    {v [u32le payload length][u32le crc32(payload)][payload] v}

    so replay is a streaming read — no line splitting — and the CRC
    separates {e interior corruption} (a complete frame whose bytes are
    wrong: {!Binary.Invalid}) from a {e torn tail} (a frame the crash cut
    short, necessarily at end of file: {!Binary.Torn}).  Floats are
    stored as IEEE-754 bit patterns, so every value round-trips exactly;
    non-negative integers use unsigned LEB128 varints. *)

module Binary : sig
  val crc32 : string -> int32
  (** IEEE 802.3 CRC32 (the gzip/PNG polynomial). *)

  (** {3 Primitives} *)

  val add_u8 : Buffer.t -> int -> unit
  val add_varint : Buffer.t -> int -> unit
  (** Unsigned LEB128.  @raise Invalid_argument on a negative value. *)

  val add_f64 : Buffer.t -> float -> unit
  (** IEEE-754 bit pattern, little-endian — exact round-trip. *)

  val add_i64 : Buffer.t -> int64 -> unit

  type cursor
  (** Read position over a decoded payload. *)

  val cursor : string -> cursor
  val at_end : cursor -> bool

  val u8 : cursor -> int
  val varint : cursor -> int
  val f64 : cursor -> float
  val i64 : cursor -> int64
  (** Decoders; @raise Parse_error (line [0]) on a short or overflowing
      payload. *)

  (** {3 Journal records} *)

  type event = {
    e_worker : Worker.t;
    e_degraded : bool;
    e_assigned : int list;
    e_answered : int list;
  }
  (** One arrival and its decision, fused into a single record (an old
      text journal's [w]/[d] line pair): a torn append can never journal
      an arrival without its decision. *)

  type snapshot = {
    s_consumed : int;
    s_policy : int64;
    s_noshow : int64;
    s_progress : Progress.t;
    s_arrangement : Arrangement.t option;
  }
  (** Session state at a checkpoint.  A full snapshot (tag ['S']) carries
      the arrangement; a partial one (tag ['P'], [s_arrangement = None])
      leaves it out, because the events journaled since the last full
      snapshot hold every assignment made since. *)

  type record = Event of event | Snapshot of snapshot

  val emit_record : Buffer.t -> record -> unit
  (** Append the (unframed) record payload. *)

  val record_of_payload : string -> record
  (** Decode one record payload (as carried by a frame).
      @raise Parse_error on an unknown tag, short payload, implausible
      count, a value {!Worker.make} or {!Progress.check_snapshot} refuses,
      or trailing bytes — on a CRC-verified frame any of these means
      corruption, not a tear. *)

  type kind = Event_record | Snapshot_record | Partial_record
  (** A record's tag: ['E'], ['S'] or ['P']. *)

  val check_payload : string -> kind
  (** The same grammar and rules as {!record_of_payload}, raising the same
      [Parse_error] on the same payloads, without building the record:
      no lists, no [Progress.t], no [Arrangement.t].  For records whose
      content will be thrown away. *)

  val scan_payload : string -> kind * record option
  (** Restore's one decode per record: an event payload is built into its
      record straight away, a snapshot's is only checked, as by
      {!check_payload}, and left for {!record_of_payload} ([None]).
      Raises what {!record_of_payload} raises on the same payload. *)

  (** {3 Framing} *)

  val add_frame : Buffer.t -> string -> unit
  (** Append one framed payload (length prefix + CRC + bytes). *)

  val add_record_frame : Buffer.t -> record -> unit
  (** [emit_record] + [add_frame] in one step. *)

  type frame =
    | Frame of string  (** complete, CRC-verified payload *)
    | Eof  (** clean end of input, on a frame boundary *)
    | Torn  (** incomplete frame at end of input — crash damage *)
    | Invalid of string  (** complete frame with wrong bytes — corruption *)

  val input_frame : in_channel -> frame
  (** Read the next frame from the channel's current position. *)

  val frame_of_string : string -> int -> frame
  (** Same, over a string starting at a byte offset. *)
end
