(* Reference top-K keeper: the polymorphic heap and the bounded heap over
   it that Ltc_util.Bounded_heap replaced, kept as the oracle for it.  A
   push allocates an entry record and [pop_all] three lists, but which
   elements it keeps and the order it returns them in are the ones the
   online decision pins were recorded with. *)

(* Array-backed binary heap; [pop] returns the smallest element under
   [leq]. *)
module Heap = struct
  (* The backing store is an ['a option array]: [None] marks unused slots.
     This avoids manufacturing dummy values of an arbitrary ['a] (unsafe for
     [float], whose arrays are unboxed). *)
  type 'a t = {
    leq : 'a -> 'a -> bool;
    mutable data : 'a option array;
    mutable size : int;
  }

  let create ?(capacity = 16) ~leq () =
    { leq; data = Array.make (max capacity 1) None; size = 0 }

  let length t = t.size
  let is_empty t = t.size = 0

  let clear t =
    Array.fill t.data 0 t.size None;
    t.size <- 0

  let get t i =
    match t.data.(i) with
    | Some x -> x
    | None -> assert false

  let grow t =
    let data = Array.make (2 * Array.length t.data) None in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data

  let swap t i j =
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(j);
    t.data.(j) <- tmp

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if not (t.leq (get t parent) (get t i)) then begin
        swap t parent i;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest =
      if l < t.size && not (t.leq (get t i) (get t l)) then l else i
    in
    let smallest =
      if r < t.size && not (t.leq (get t smallest) (get t r)) then r
      else smallest
    in
    if smallest <> i then begin
      swap t smallest i;
      sift_down t smallest
    end

  let push t x =
    if t.size = Array.length t.data then grow t;
    t.data.(t.size) <- Some x;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let peek t = if t.size = 0 then None else t.data.(0)

  let pop t =
    if t.size = 0 then None
    else begin
      let root = t.data.(0) in
      t.size <- t.size - 1;
      t.data.(0) <- t.data.(t.size);
      t.data.(t.size) <- None;
      if t.size > 0 then sift_down t 0;
      root
    end

  let pop_exn t =
    match pop t with
    | Some x -> x
    | None -> invalid_arg "Heap.pop_exn: empty heap"

  let to_list t =
    let rec collect i acc =
      if i < 0 then acc else collect (i - 1) (get t i :: acc)
    in
    collect (t.size - 1) []

  let of_array ~leq a =
    let size = Array.length a in
    let data = Array.make (max size 1) None in
    for i = 0 to size - 1 do
      data.(i) <- Some a.(i)
    done;
    let t = { leq; data; size } in
    for i = (size / 2) - 1 downto 0 do
      sift_down t i
    done;
    t
end

(* Elements carry a push sequence number so that equal scores keep the
   earliest-pushed element: the resident element wins against a tying
   newcomer, and [pop_all] sorts ties by ascending sequence. *)
type 'a entry = { score : float; seq : int; value : 'a }

type 'a t = {
  k : int;
  heap : 'a entry Heap.t;
  mutable next_seq : int;
}

(* Min-heap by score; among equal scores the *later* push is the smaller
   element, i.e. the first evicted. *)
let entry_leq a b = a.score < b.score || (a.score = b.score && a.seq > b.seq)

let create ~k () =
  if k <= 0 then invalid_arg "Topk_oracle.create: k must be positive";
  let heap = Heap.create ~capacity:(min k 15 + 1) ~leq:entry_leq () in
  { k; heap; next_seq = 0 }

let push t ~score value =
  let e = { score; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  Heap.push t.heap e;
  if Heap.length t.heap > t.k then ignore (Heap.pop t.heap)

(* Descending score, ties by ascending push order. *)
let pop_all t =
  let rec drain acc =
    match Heap.pop t.heap with
    | None -> acc
    | Some e -> drain (e :: acc)
  in
  List.sort
    (fun a b ->
      if a.score = b.score then compare a.seq b.seq
      else compare b.score a.score)
    (drain [])
  |> List.map (fun e -> (e.score, e.value))

(* The candidate rule as a brute-force filter: [task] lies within the
   instance's radius of [w]. *)
let near (instance : Ltc_core.Instance.t) (w : Ltc_core.Worker.t) task =
  match instance.candidate_radius with
  | None -> true
  | Some r ->
    Ltc_geo.Point.distance_sq w.loc instance.tasks.(task).Ltc_core.Task.loc
    <= r *. r

(* The closure-based skeleton the greedy policies shared before the
   candidate kernel, over this reference heap: every task in ascending id
   order, kept when it is [near] and open, and offered at [score task]. *)
let top_open ~score (instance : Ltc_core.Instance.t) progress
    (w : Ltc_core.Worker.t) =
  let t = create ~k:w.capacity () in
  for task = 0 to Array.length instance.tasks - 1 do
    if near instance w task && Ltc_core.Progress.is_open progress task then
      push t ~score:(score task) task
  done;
  List.map snd (pop_all t)
