(** The serve wire format: newline-delimited flat JSON objects.

    Arrivals in (one worker per line), decisions out (one per processed
    arrival):

    {v
    {"index":1,"x":3.5,"y":4.0,"accuracy":0.86,"capacity":6}
    {"index":1,"assigned":[0,2],"answered":[0],"completed":false,"latency":1}
    v}

    Floats are printed at round-trip precision ([%.17g]).  The codec is
    deliberately minimal — flat objects of numbers, booleans and integer
    arrays; no nesting, no string escapes. *)

exception Malformed of string

exception Bad_input of { line : int; text : string; reason : string }
(** One arrival line the stream could not use, with its 1-based position
    in the input and the offending bytes (truncated to an excerpt).
    Raised by {!arrival_exn}; [ltc serve --on-bad-input] decides whether
    it kills the stream or skips the line. *)

val arrival_of_line : string -> Ltc_core.Worker.t
(** Parse one arrival event.  Requires keys [index], [x], [y], [accuracy],
    [capacity]; integer-valued fields must be whole numbers and [x], [y],
    [accuracy] finite.
    @raise Malformed on syntax or schema violations, [Invalid_argument]
    when the field values violate {!Ltc_core.Worker.make}'s contract. *)

val arrival_exn : line:int -> string -> Ltc_core.Worker.t
(** {!arrival_of_line} with structured errors: syntax, schema and
    field-contract violations all surface as {!Bad_input} carrying [line]
    and the offending bytes.  Probes the ["ndjson.parse"]
    {!Ltc_util.Fault} site first.  @raise Bad_input as described. *)

val decision_to_line :
  ?degraded:bool ->
  worker:int ->
  assigned:int list ->
  answered:int list ->
  completed:bool ->
  latency:int ->
  unit ->
  string
(** One decision line (no trailing newline).  [degraded] (default
    [false]) marks a deadline-degraded decision and is emitted only when
    true, keeping the fault-free wire format unchanged. *)
