(* CSR-style layout: points are bucketed by cell, bucket contents stored
   contiguously in [entries], with [starts.(c) .. starts.(c+1)-1] delimiting
   cell [c].  Two integer arrays; no per-cell allocation. *)
type t = {
  world : Bbox.t;
  cell : float;
  cols : int;
  rows : int;
  points : Point.t array;
  starts : int array;
  entries : int array;
}

(* The column and row a point falls in, clamped onto the grid.  They take
   the point, not a coordinate: a float argument would be boxed. *)
let col_of t (p : Point.t) =
  let c = int_of_float ((p.x -. t.world.Bbox.min_x) /. t.cell) in
  max 0 (min (t.cols - 1) c)

let row_of t (p : Point.t) =
  let r = int_of_float ((p.y -. t.world.Bbox.min_y) /. t.cell) in
  max 0 (min (t.rows - 1) r)

(* [Point.distance_sq p center <= r_sq], computed here: dune's dev
   profile compiles with [-opaque], so a float returned across modules is
   boxed, and the scan tests every point of up to nine cells. *)
let[@inline] within (p : Point.t) (center : Point.t) r_sq =
  let dx = p.x -. center.x and dy = p.y -. center.y in
  (dx *. dx) +. (dy *. dy) <= r_sq

(* Cells a build may allocate for [n] points.  Without a cap, a radius
   tiny against the task spread asks for one cell per radius-sized square
   (10^12 of them for radius 1e-4 over a 100-wide world).  The floor is
   above every grid the repository's workloads build (Table IV: 1 156
   cells for 3 000 tasks), so only such degenerate radii widen. *)
let cell_budget n = max 4096 (4 * n)

let build ~world ~cell points =
  if cell <= 0.0 then invalid_arg "Grid_index.build: cell must be positive";
  let side extent cell = Float.max 1.0 (Float.ceil (extent /. cell)) in
  let width = Bbox.width world and height = Bbox.height world in
  let budget = float_of_int (cell_budget (Array.length points)) in
  let cell =
    if side width cell *. side height cell <= budget then cell
    else Float.max cell (Float.max width height /. (Float.sqrt budget -. 1.0))
  in
  let cols = int_of_float (side width cell) in
  let rows = int_of_float (side height cell) in
  let t =
    {
      world;
      cell;
      cols;
      rows;
      points;
      starts = Array.make ((cols * rows) + 1) 0;
      entries = Array.make (Array.length points) 0;
    }
  in
  let counts = Array.make (cols * rows) 0 in
  let cell_id p = (row_of t p * cols) + col_of t p in
  Array.iter (fun p -> counts.(cell_id p) <- counts.(cell_id p) + 1) points;
  let acc = ref 0 in
  for c = 0 to (cols * rows) - 1 do
    t.starts.(c) <- !acc;
    acc := !acc + counts.(c)
  done;
  t.starts.(cols * rows) <- !acc;
  let cursor = Array.copy t.starts in
  Array.iteri
    (fun i p ->
      let c = cell_id p in
      t.entries.(cursor.(c)) <- i;
      cursor.(c) <- cursor.(c) + 1)
    points;
  t

let length t = Array.length t.entries

let iter_within t ~center ~radius f =
  let r_sq = radius *. radius in
  let cx = col_of t center and cy = row_of t center in
  let span = max 1 (int_of_float (Float.ceil (radius /. t.cell))) in
  let x0 = max 0 (cx - span) and x1 = min (t.cols - 1) (cx + span) in
  let y0 = max 0 (cy - span) and y1 = min (t.rows - 1) (cy + span) in
  for gy = y0 to y1 do
    for gx = x0 to x1 do
      let c = (gy * t.cols) + gx in
      for k = t.starts.(c) to t.starts.(c + 1) - 1 do
        let i = t.entries.(k) in
        if within t.points.(i) center r_sq then f i
      done
    done
  done

let fill_within_sorted t ~center ~radius buf pos =
  let r_sq = radius *. radius in
  let cx = col_of t center and cy = row_of t center in
  let span = max 1 (int_of_float (Float.ceil (radius /. t.cell))) in
  let x0 = max 0 (cx - span) and x1 = min (t.cols - 1) (cx + span) in
  let y0 = max 0 (cy - span) and y1 = min (t.rows - 1) (cy + span) in
  let stop = ref pos in
  for gy = y0 to y1 do
    for gx = x0 to x1 do
      let c = (gy * t.cols) + gx in
      for k = t.starts.(c) to t.starts.(c + 1) - 1 do
        let i = t.entries.(k) in
        if within t.points.(i) center r_sq then begin
          (* Insertion into the ascending run: each cell is already
             ascending, so a hit moves past the few larger indices that
             earlier cells left. *)
          let j = ref !stop in
          while !j > pos && buf.(!j - 1) > i do
            buf.(!j) <- buf.(!j - 1);
            decr j
          done;
          buf.(!j) <- i;
          incr stop
        end
      done
    done
  done;
  !stop - pos

let memory_words t =
  Array.length t.starts + Array.length t.entries + (3 * Array.length t.points)
