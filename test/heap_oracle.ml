(* Reference indexed min-heap: the float-argument heap Ltc_flow.Node_heap
   replaced, kept as the tie-order oracle for it.  Same binary-heap shape,
   swap-based sift-up (climbs over strictly larger keys) and classic
   sift-down (smaller child, left on a tie, moves only when strictly
   smaller), so its pop sequence, ties included, is the one the
   min-cost-flow arrangement digests were recorded with.  Pops allocate. *)

type t = {
  mutable keys : float array;  (* keys.(node): current key, valid when queued *)
  mutable nodes : int array;   (* heap slots -> node id *)
  mutable pos : int array;     (* node id -> heap slot, -1 when not queued *)
  mutable size : int;
}

let create ~n =
  if n <= 0 then invalid_arg "Heap_oracle.create: n must be positive";
  {
    keys = Array.make n infinity;
    nodes = Array.make n 0;
    pos = Array.make n (-1);
    size = 0;
  }

let clear t =
  for i = 0 to t.size - 1 do
    t.pos.(t.nodes.(i)) <- -1
  done;
  t.size <- 0

let swap t i j =
  let a = t.nodes.(i) and b = t.nodes.(j) in
  t.nodes.(i) <- b;
  t.nodes.(j) <- a;
  t.pos.(b) <- i;
  t.pos.(a) <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.keys.(t.nodes.(i)) < t.keys.(t.nodes.(parent)) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest =
    if l < t.size && t.keys.(t.nodes.(l)) < t.keys.(t.nodes.(i)) then l else i
  in
  let smallest =
    if r < t.size && t.keys.(t.nodes.(r)) < t.keys.(t.nodes.(smallest)) then r
    else smallest
  in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

(* Insert [v] at [key], or lower its key if queued with a larger one;
   raising a queued key is a no-op. *)
let push_or_decrease t v key =
  if t.pos.(v) < 0 then begin
    t.keys.(v) <- key;
    t.nodes.(t.size) <- v;
    t.pos.(v) <- t.size;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)
  end
  else if key < t.keys.(v) then begin
    t.keys.(v) <- key;
    sift_up t t.pos.(v)
  end

let pop_min t =
  if t.size = 0 then None
  else begin
    let v = t.nodes.(0) in
    let key = t.keys.(v) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let last = t.nodes.(t.size) in
      t.nodes.(0) <- last;
      t.pos.(last) <- 0
    end;
    t.pos.(v) <- -1;
    if t.size > 0 then sift_down t 0;
    Some (v, key)
  end
