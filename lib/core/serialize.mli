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
    non-negative integers use unsigned LEB128 varints.

    Records are encoded in place into a {!Binary.buffer} and read in
    place out of the string that holds them: neither side copies a
    record. *)

module Binary : sig
  val crc32 : string -> int32
  (** IEEE 802.3 CRC32 (the gzip/PNG polynomial). *)

  (** {3 Frame buffer} *)

  type buffer
  (** Growable bytes that records are framed into in place.  Not safe to
      share between domains. *)

  val buffer : unit -> buffer
  (** An empty buffer. *)

  val length : buffer -> int
  val clear : buffer -> unit

  val contents : buffer -> string
  (** A copy of the bytes written so far. *)

  val output : out_channel -> buffer -> int -> unit
  (** [output oc b n] writes the first [n] bytes of [b].
      @raise Invalid_argument unless [0 <= n <= length b]. *)

  val add_string : buffer -> string -> unit
  (** Append bytes as they are, unframed (a journal's text header). *)

  (** {3 Primitives}

      Unframed; {!add_record} frames what it writes. *)

  val add_u8 : buffer -> int -> unit
  val add_varint : buffer -> int -> unit
  (** Unsigned LEB128.  @raise Invalid_argument on a negative value. *)

  val add_f64 : buffer -> float -> unit
  (** IEEE-754 bit pattern, little-endian — exact round-trip. *)

  val add_i64 : buffer -> int64 -> unit

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

  val add_record : buffer -> record -> unit
  (** Append one framed record: the frame header, then the payload
      encoded in place, then the header patched with the payload's length
      and CRC.  The progress arrays and the arrangement are read where
      they are, not copied.  A record that fails to encode leaves the
      buffer as it was.
      @raise Invalid_argument on a negative integer, or a payload over
      64 MiB. *)

  val record_of_payload : string -> pos:int -> len:int -> record
  (** Decode the record payload in bytes [\[pos, pos + len)] of a string
      (as {!frame_at} locates one).
      @raise Parse_error on an unknown tag, short payload, implausible
      count, a value {!Worker.make} or {!Progress.check_snapshot} refuses,
      or trailing bytes — on a CRC-verified frame any of these means
      corruption, not a tear.
      @raise Invalid_argument if the window is not inside the string. *)

  type kind = Event_record | Snapshot_record | Partial_record
  (** A record's tag: ['E'], ['S'] or ['P']. *)

  val check_payload : string -> pos:int -> len:int -> kind
  (** The same grammar and rules as {!record_of_payload}, raising the same
      [Parse_error] on the same payloads, without building the record:
      no lists, no [Progress.t], no [Arrangement.t] (a snapshot's pairs
      go through a fresh {!scratch}; {!scan_payload} reuses one).  For
      records whose content will be thrown away. *)

  type scratch
  (** The float arrays the decoder reads a snapshot's (threshold, score)
      pairs into before {!Progress.check_snapshot} checks them, reused
      from one snapshot to the next.  Not safe to share between
      domains. *)

  val scratch : unit -> scratch

  type scanned =
    | Built of event  (** an event record, built *)
    | Checked of { kind : kind; consumed : int }
        (** a snapshot record ([Snapshot_record] or [Partial_record]),
            checked as by {!check_payload} and not built, with the
            arrivals it says were consumed *)

  val scan_payload : scratch -> string -> pos:int -> len:int -> scanned
  (** Restore's one decode per record: an event payload is built straight
      away, a snapshot's is only checked and left for
      {!record_of_payload}.  Raises what {!record_of_payload} raises on
      the same payload. *)

  (** {3 Framing} *)

  type frame =
    | Frame of int
        (** a complete, CRC-verified frame whose payload, of this many
            bytes, follows its 8-byte header *)
    | Eof  (** clean end of input, on a frame boundary *)
    | Torn  (** incomplete frame at end of input — crash damage *)
    | Invalid of string  (** complete frame with wrong bytes — corruption *)

  val frame_at : string -> int -> frame
  (** The frame starting at a byte offset of a string, checked in place:
      nothing is copied. *)
end
