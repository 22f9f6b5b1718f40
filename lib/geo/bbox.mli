(** Axis-aligned bounding boxes.

    Used to describe worlds (the synthetic 1000x1000 grid, city extents):
    the extent a {!Grid_index} covers and the one a sharded server cuts
    into cells. *)

type t = { min_x : float; min_y : float; max_x : float; max_y : float }

val make : min_x:float -> min_y:float -> max_x:float -> max_y:float -> t
(** @raise Invalid_argument when the box is inverted. *)

val square : side:float -> t
(** [\[0, side\] x \[0, side\]]. *)

val width : t -> float
val height : t -> float

val of_points : Point.t list -> t
(** Smallest box containing all points.
    @raise Invalid_argument on an empty list. *)
