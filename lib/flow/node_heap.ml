type t = {
  mutable hk : float array;    (* hk.(slot): key of nodes.(slot) *)
  mutable nodes : int array;   (* heap slots -> node id *)
  mutable pos : int array;     (* node id -> heap slot, -1 when not queued *)
  mutable size : int;
}

let create ~n =
  if n <= 0 then invalid_arg "Node_heap.create: n must be positive";
  {
    hk = Array.make n infinity;
    nodes = Array.make n 0;
    pos = Array.make n (-1);
    size = 0;
  }

let capacity t = Array.length t.pos

let ensure_capacity t ~n =
  let old = Array.length t.pos in
  if n > old then begin
    let hk = Array.make n infinity in
    Array.blit t.hk 0 hk 0 old;
    t.hk <- hk;
    let nodes = Array.make n 0 in
    Array.blit t.nodes 0 nodes 0 old;
    t.nodes <- nodes;
    let pos = Array.make n (-1) in
    Array.blit t.pos 0 pos 0 old;
    t.pos <- pos
  end

let clear t =
  for i = 0 to t.size - 1 do
    t.pos.(t.nodes.(i)) <- -1
  done;
  t.size <- 0

let is_empty t = t.size = 0
let size t = t.size
let mem t v = t.pos.(v) >= 0

(* Moves the entry in slot [i] up while its key is strictly below its
   parent's: a hole walks up and the entry is written once, where it
   stops.  The key is read from [hk], never passed, so it stays unboxed. *)
let sift_up t i =
  let hk = t.hk and nodes = t.nodes and pos = t.pos in
  let k = Array.unsafe_get hk i and v = Array.unsafe_get nodes i in
  let i = ref i in
  while !i > 0 && k < Array.unsafe_get hk ((!i - 1) lsr 1) do
    let p = (!i - 1) lsr 1 in
    let u = Array.unsafe_get nodes p in
    Array.unsafe_set hk !i (Array.unsafe_get hk p);
    Array.unsafe_set nodes !i u;
    Array.unsafe_set pos u !i;
    i := p
  done;
  Array.unsafe_set hk !i k;
  Array.unsafe_set nodes !i v;
  Array.unsafe_set pos v !i

let push t ~keys v =
  if v < 0 || v >= Array.length t.pos then
    invalid_arg "Node_heap: node out of range";
  let p = Array.unsafe_get t.pos v in
  if p < 0 then begin
    let i = t.size in
    t.size <- i + 1;
    Array.unsafe_set t.hk i keys.(v);
    Array.unsafe_set t.nodes i v;
    sift_up t i
  end
  else if keys.(v) < Array.unsafe_get t.hk p then begin
    Array.unsafe_set t.hk p keys.(v);
    sift_up t p
  end

(* Floyd's bottom-up delete-min.  The hole left at the root walks to the
   bottom along the smaller child (the left one on a tie, exactly as the
   classic sift-down chooses), pulling each child up; the last entry then
   fills the hole and climbs back over the keys [>=] its own.  It lands
   where the classic sift-down would have stopped it (at the first child
   on the path that is not strictly smaller), ties included, for about
   half the comparisons.  The child choice is branch-free: the freed slot
   [size] holds an [infinity] sentinel, so a lone left child always
   wins. *)
let pop t =
  let n = t.size - 1 in
  if n < 0 then -1
  else begin
    let hk = t.hk and nodes = t.nodes and pos = t.pos in
    let top = Array.unsafe_get nodes 0 in
    Array.unsafe_set pos top (-1);
    t.size <- n;
    if n > 0 then begin
      let last = Array.unsafe_get nodes n and k = Array.unsafe_get hk n in
      Array.unsafe_set hk n infinity;
      let i = ref 0 and l = ref 1 in
      while !l < n do
        let l0 = !l in
        let c =
          l0
          + Bool.to_int
              (Array.unsafe_get hk (l0 + 1) < Array.unsafe_get hk l0)
        in
        let u = Array.unsafe_get nodes c in
        Array.unsafe_set hk !i (Array.unsafe_get hk c);
        Array.unsafe_set nodes !i u;
        Array.unsafe_set pos u !i;
        i := c;
        l := (2 * c) + 1
      done;
      while !i > 0 && Array.unsafe_get hk ((!i - 1) lsr 1) >= k do
        let p = (!i - 1) lsr 1 in
        let u = Array.unsafe_get nodes p in
        Array.unsafe_set hk !i (Array.unsafe_get hk p);
        Array.unsafe_set nodes !i u;
        Array.unsafe_set pos u !i;
        i := p
      done;
      Array.unsafe_set hk !i k;
      Array.unsafe_set nodes !i last;
      Array.unsafe_set pos last !i
    end;
    top
  end
