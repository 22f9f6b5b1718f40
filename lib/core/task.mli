(** Micro tasks (Definition 1).

    A task is a binary question anchored at a POI location.  Definition 1
    gives each task its own tolerable error rate [t = <l_t, epsilon>];
    assumption (ii) of the paper then specializes to a platform-wide
    constant.  Both views are supported: [epsilon = None] (the common case)
    defers to the instance-wide rate, [Some e] overrides it for this task —
    e.g. safety-critical questions demanding a stricter guarantee. *)

type t = {
  id : int;  (** position in the instance's task array, [0]-based *)
  loc : Ltc_geo.Point.t;
  epsilon : float option;
      (** per-task tolerable error rate; [None] = the instance's rate *)
}

val make : ?epsilon:float -> id:int -> loc:Ltc_geo.Point.t -> unit -> t
(** @raise Invalid_argument when [epsilon] is outside (0, 1), then when a
    coordinate of [loc] is NaN or infinite. *)

val pp : Format.formatter -> t -> unit

type answer = Yes | No
(** The paper encodes a binary answer as +1 ("YES") / -1 ("NO"). *)

val answer_sign : answer -> float
val negate : answer -> answer
val answer_equal : answer -> answer -> bool
