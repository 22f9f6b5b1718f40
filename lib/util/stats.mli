(** Summary statistics over float samples.

    The paper repeats every experimental setting 30 times and reports
    averages (Sec. V-A); {!summarize} feeds those panels. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
}

val mean : float array -> float
val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]]; linear interpolation between
    order statistics.  @raise Invalid_argument on an empty array. *)

val summarize : float array -> summary
(** @raise Invalid_argument on an empty array. *)
