type arc = int

type t = {
  mutable n : int;
  mutable len : int;  (* number of arc slots in use (2 per forward arc) *)
  mutable heads : int array;  (* heads.(a): node arc [a] points to *)
  mutable caps : int array;   (* caps.(a): residual capacity of [a] *)
  mutable costs : float array;
  mutable next : int array;   (* intrusive adjacency list: next arc at tail *)
  mutable first : int array;  (* first.(v): latest arc added at node v, -1 *)
}

let create ~n =
  if n <= 0 then invalid_arg "Graph.create: n must be positive";
  {
    n;
    len = 0;
    heads = Array.make 16 0;
    caps = Array.make 16 0;
    costs = Array.make 16 0.0;
    next = Array.make 16 (-1);
    first = Array.make n (-1);
  }

let node_count t = t.n
let arc_count t = t.len / 2

(* Doubles the arc arrays, keeping the live prefix. *)
let grow t =
  let cap = 2 * Array.length t.heads in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.heads <- extend t.heads 0;
  t.caps <- extend t.caps 0;
  t.next <- extend t.next (-1);
  let costs = Array.make cap 0.0 in
  Array.blit t.costs 0 costs 0 t.len;
  t.costs <- costs

let clear t ~n =
  if n <= 0 then invalid_arg "Graph.clear: n must be positive";
  (* Only nodes < t.n can hold stale adjacency heads. *)
  Array.fill t.first 0 t.n (-1);
  if n > Array.length t.first then t.first <- Array.make n (-1);
  t.n <- n;
  t.len <- 0

let append t ~src ~dst ~cap ~cost =
  if t.len = Array.length t.heads then grow t;
  let a = t.len in
  t.len <- a + 1;
  t.heads.(a) <- dst;
  t.caps.(a) <- cap;
  t.costs.(a) <- cost;
  t.next.(a) <- t.first.(src);
  t.first.(src) <- a;
  a

let add_arc t ~src ~dst ~cap ~cost =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Graph.add_arc: node out of range";
  if cap < 0 then invalid_arg "Graph.add_arc: negative capacity";
  if not (Float.is_finite cost) then
    invalid_arg "Graph.add_arc: cost must be finite";
  let a = append t ~src ~dst ~cap ~cost in
  let (_ : arc) = append t ~src:dst ~dst:src ~cap:0 ~cost:(-.cost) in
  a

let check_arc t a =
  if a < 0 || a >= t.len then invalid_arg "Graph: arc out of range"

(* An arc's tail is the head of its reverse. *)
let src t a =
  check_arc t a;
  t.heads.(a lxor 1)

let dst t a =
  check_arc t a;
  t.heads.(a)

let cost t a =
  check_arc t a;
  t.costs.(a)

let residual t a =
  check_arc t a;
  t.caps.(a)

let flow t a =
  check_arc t a;
  if a land 1 = 1 then invalid_arg "Graph.flow: backward arc";
  (* The reverse arc starts at capacity 0; its residual equals the flow. *)
  t.caps.(a lxor 1)

let push t a x =
  check_arc t a;
  if x < 0 || x > t.caps.(a) then invalid_arg "Graph.push: exceeds residual";
  t.caps.(a) <- t.caps.(a) - x;
  t.caps.(a lxor 1) <- t.caps.(a lxor 1) + x

let iter_arcs_from t v f =
  let rec go a =
    if a <> -1 then begin
      f a;
      go t.next.(a)
    end
  in
  go t.first.(v)

let iter_forward_arcs t f =
  let rec go a =
    if a < t.len then begin
      f a;
      go (a + 2)
    end
  in
  go 0

let memory_words t =
  (* Six words a reserved arc slot plus the reserved node array ([clear]
     keeps the arena): six is what the figures' memory panels were
     recorded with.  A slot holds four (head, capacity, cost, next); the
     other two match the solver's residual lists, charged nowhere else. *)
  (6 * Array.length t.heads) + Array.length t.first

type raw = {
  r_heads : int array;
  r_caps : int array;
  r_costs : float array;
  r_next : int array;
  r_first : int array;
  r_len : int;
}

let raw t =
  {
    r_heads = t.heads;
    r_caps = t.caps;
    r_costs = t.costs;
    r_next = t.next;
    r_first = t.first;
    r_len = t.len;
  }
