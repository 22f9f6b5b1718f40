(** Plain-text table rendering for the benchmark harness.

    Every figure of the paper is a family of series (one per algorithm) over a
    swept parameter; we print them as aligned text tables so the harness
    output reads like the paper's plots transposed to rows. *)

type cell =
  | Str of string
  | Int of int
  | Float of float  (** rendered with {!render}'s [float_digits] *)

val render : ?float_digits:int -> header:string list -> cell list list -> string
(** [render ~header rows] produces a table with a separator line under the
    header.  A column whose every cell is an [Int] or [Float] is
    right-aligned; the others, and the header, are left-aligned.
    @raise Invalid_argument if a row's width differs from the header's. *)

val print : ?float_digits:int -> header:string list -> cell list list -> unit
