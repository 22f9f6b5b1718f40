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

val iter_within : t -> center:Point.t -> radius:float -> (int -> unit) -> unit
(** [iter_within t ~center ~radius f] calls [f i] for every indexed point [i]
    at Euclidean distance [<= radius] from [center], in ascending index
    order within each visited cell (cells are visited row-major).  [radius]
    may exceed the build-time cell size; the scan widens accordingly. *)

val fill_within_sorted :
  t -> center:Point.t -> radius:float -> int array -> int -> int
(** [fill_within_sorted t ~center ~radius buf pos] writes the
    {!iter_within} hits into [buf] from [pos] on, in globally ascending
    point-index order (each hit is inserted into place during the scan),
    and returns how many it wrote.  [buf] needs room for {!length}[ t]
    entries from [pos]. *)

val count_within : t -> center:Point.t -> radius:float -> int

val memory_words : t -> int
(** Approximate heap footprint of the index, for the memory panels. *)
