(* CSR-style layout: points are bucketed by cell, bucket contents stored
   contiguously in [entries], with [starts.(c) .. starts.(c+1)-1] delimiting
   cell [c].  The coordinates sit in [xs]/[ys] in the same entry order, so
   a scan reads them where it reads the ids, and the cells of one grid row
   are one contiguous entry range.  No per-cell or per-point allocation. *)
type t = {
  world : Bbox.t;
  cell : float;
  cols : int;
  rows : int;
  xs : float array;
  ys : float array;
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
  let n = Array.length points in
  let budget = float_of_int (cell_budget n) in
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
      xs = Array.make n 0.0;
      ys = Array.make n 0.0;
      starts = Array.make ((cols * rows) + 1) 0;
      entries = Array.make n 0;
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
    (fun i (p : Point.t) ->
      let c = cell_id p in
      let k = cursor.(c) in
      t.entries.(k) <- i;
      t.xs.(k) <- p.x;
      t.ys.(k) <- p.y;
      cursor.(c) <- k + 1)
    points;
  t

let length t = Array.length t.entries

(* The one scan: the block of [2 span + 1] rows and columns around the
   centre's cell, a row at a time — in row [gy], columns [x0 .. x1] are
   the entries [starts.(gy cols + x0) .. starts.(gy cols + x1 + 1) - 1].
   The squared distance is computed here, not through
   [Point.distance_sq]: dune's dev profile compiles with [-opaque], so a
   float returned across modules is boxed, and the scan tests every point
   of the block. *)
let query t ~(center : Point.t) ~radius ~sorted ids d2 pos =
  let r_sq = radius *. radius in
  let cx = col_of t center and cy = row_of t center in
  let span = max 1 (int_of_float (Float.ceil (radius /. t.cell))) in
  let x0 = max 0 (cx - span) and x1 = min (t.cols - 1) (cx + span) in
  let px = center.x and py = center.y in
  let xs = t.xs and ys = t.ys and entries = t.entries in
  let stop = ref pos in
  for gy = max 0 (cy - span) to min (t.rows - 1) (cy + span) do
    let row = gy * t.cols in
    for k = t.starts.(row + x0) to t.starts.(row + x1 + 1) - 1 do
      let dx = xs.(k) -. px and dy = ys.(k) -. py in
      let dd = (dx *. dx) +. (dy *. dy) in
      if dd <= r_sq then begin
        (* Sorted, a hit is inserted into the ascending run: each cell is
           already ascending, so it moves past the few larger indices
           that earlier cells left. *)
        let i = entries.(k) in
        let j = ref !stop in
        while sorted && !j > pos && ids.(!j - 1) > i do
          ids.(!j) <- ids.(!j - 1);
          d2.(!j) <- d2.(!j - 1);
          decr j
        done;
        ids.(!j) <- i;
        d2.(!j) <- dd;
        incr stop
      end
    done
  done;
  !stop - pos

(* Charged as the boxed layout was, three words a point, so the memory
   panels do not move with the layout. *)
let memory_words t =
  Array.length t.starts + Array.length t.entries + (3 * Array.length t.xs)
