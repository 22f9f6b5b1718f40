(* A min-heap in three parallel arrays.  Slot [i] holds [values.(i)] at
   [scores.(i)], pushed [seqs.(i)]-th since the last [start].  Among equal
   scores the later push sits nearer the root, so it is evicted first: the
   resident wins against a tying newcomer, and [pop_all] returns ties in
   push order. *)
type t = {
  mutable k : int;
  mutable scores : float array;
  mutable seqs : int array;
  mutable values : int array;
  mutable size : int;
  mutable next_seq : int;
}

(* The arrays start small and grow with what is pushed: [k] is a worker's
   capacity, which arrives from outside and may be far larger than any
   candidate set. *)
let create () =
  {
    k = 1;
    scores = Array.make 16 0.0;
    seqs = Array.make 16 0;
    values = Array.make 16 0;
    size = 0;
    next_seq = 0;
  }

let start t ~k =
  if k <= 0 then invalid_arg "Bounded_heap.start: k must be positive";
  t.k <- k;
  t.size <- 0;
  t.next_seq <- 0

(* Slot [i] sorts before slot [j]: nearer the root. *)
let[@inline] before t i j =
  let a = t.scores.(i) and b = t.scores.(j) in
  a < b || (a = b && t.seqs.(i) > t.seqs.(j))

let swap t i j =
  let s = t.scores.(i) in
  t.scores.(i) <- t.scores.(j);
  t.scores.(j) <- s;
  let q = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- q;
  let v = t.values.(i) in
  t.values.(i) <- t.values.(j);
  t.values.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let c = if l + 1 < t.size && before t (l + 1) l then l + 1 else l in
    if before t c i then begin
      swap t i c;
      sift_down t c
    end
  end

let grow t =
  let n = 2 * Array.length t.values in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.scores <- extend t.scores 0.0;
  t.seqs <- extend t.seqs 0;
  t.values <- extend t.values 0

let[@inline] set t i ~score ~seq value =
  t.scores.(i) <- score;
  t.seqs.(i) <- seq;
  t.values.(i) <- value

let push t scores values lo hi =
  for i = lo to hi - 1 do
    let score = scores.(i) in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    if t.size < t.k then begin
      if t.size = Array.length t.values then grow t;
      set t t.size ~score ~seq values.(i);
      t.size <- t.size + 1;
      sift_up t (t.size - 1)
    end
    else if score > t.scores.(0) then begin
      (* A full heap keeps the newcomer only if it beats the root: on a
         tie the newcomer is the later push, so it is the one evicted. *)
      set t 0 ~score ~seq values.(i);
      sift_down t 0
    end
  done

(* Each pop takes the lowest entry, so consing them leaves the highest at
   the head. *)
let pop_all t =
  let acc = ref [] in
  while t.size > 0 do
    acc := t.values.(0) :: !acc;
    t.size <- t.size - 1;
    swap t 0 t.size;
    sift_down t 0
  done;
  !acc
