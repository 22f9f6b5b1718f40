(** Terminal line charts.

    The paper's evaluation is 24 plot panels; tables carry the numbers, but
    trends and crossovers (e.g. AAM overtaking MCF-LTC at large [|T|]) are
    easier to see drawn.  This renders multi-series scatter/line charts in
    plain text — the bench harness attaches one to every panel when run
    with [--plot]. *)

type series = {
  name : string;
  points : (float * float) list;  (** (x, y), any order *)
}

val markers : char array
(** Marker assigned to series [i] is [markers.(i mod Array.length markers)]. *)

val render :
  ?width:int ->
  ?height:int ->
  ?title:string ->
  series list ->
  string
(** [render series] draws all series over a shared frame ([width] x
    [height] interior cells, defaults 64 x 16), with y-axis bounds printed
    on the left, x-axis bounds below, and a marker legend.  Consecutive
    points (sorted by x) are linked with line segments.  Series with fewer
    than one point, NaN or infinite values are skipped.  Returns [""] when
    nothing is drawable. *)
