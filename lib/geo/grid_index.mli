(** Uniform-grid spatial index over a fixed point set.

    The candidate-task lookup "all tasks within [dmax] of the worker's
    check-in" runs once per worker arrival, i.e. hundreds of thousands of
    times per experiment.  A uniform grid with cell side [dmax] answers the
    query by scanning at most nine cells, which is the natural fit for the
    paper's world model (task density is bounded and the radius is fixed per
    experiment).  It is the only spatial index; the tests check it against
    a brute-force filter. *)

type t

val build : world:Bbox.t -> cell:float -> Point.t array -> t
(** [build ~world ~cell points] indexes [points] (identified by their array
    index).  Points outside [world] are clamped into the boundary cells, so
    queries remain correct for slightly out-of-range data.  A grid of more
    than [max 4096 (4 * length points)] cells gets wider cells instead, so
    a tiny [cell] cannot exhaust memory; queries stay exact either way.
    @raise Invalid_argument when [cell <= 0]. *)

val length : t -> int
(** Number of indexed points. *)

val query :
  t ->
  center:Point.t ->
  radius:float ->
  sorted:bool ->
  int array ->
  float array ->
  int ->
  int
(** [query t ~center ~radius ~sorted ids d2 pos] writes every indexed
    point [i] at Euclidean distance [<= radius] from [center] into [ids]
    from [pos] on, and its squared distance [(x_i - x_c)^2 + (y_i -
    y_c)^2] into [d2] at the same slot; it returns how many it wrote.
    Under [sorted] the ids are in ascending order (each hit is inserted
    into place during the scan); otherwise they are in scan order:
    ascending within each visited cell, cells row-major.  The distance
    equals [Point.distance_sq center p_i] bit for bit (IEEE subtraction
    is exactly antisymmetric).  [radius] may exceed the build-time cell
    size; the scan widens accordingly.  [ids] and [d2] need room for
    {!length}[ t] entries from [pos]. *)

val memory_words : t -> int
(** Approximate heap footprint of the index, for the memory panels. *)
