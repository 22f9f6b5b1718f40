(** Crowd workers (Definition 2).

    A worker is the [index]-th person to check in ([index] is 1-based, the
    paper's arrival order [o_w]), at location [loc], with historical accuracy
    [accuracy] ([p_w]) and per-check-in capacity [capacity] ([K]). *)

type t = {
  index : int;     (** arrival order [o_w], 1-based *)
  loc : Ltc_geo.Point.t;
  accuracy : float;
  capacity : int;
}

val make :
  index:int -> loc:Ltc_geo.Point.t -> accuracy:float -> capacity:int -> t
(** @raise Invalid_argument when [index < 1], [capacity < 1], [accuracy]
    is outside [\[0, 1\]] (NaN included) or a coordinate of [loc] is not
    finite. *)

val pp : Format.formatter -> t -> unit
