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

(* The heap starts small and grows with what is pushed: [k] is a worker's
   capacity, which arrives from outside and may be far larger than any
   candidate set. *)
let create ~k () =
  if k <= 0 then invalid_arg "Bounded_heap.create: k must be positive";
  let heap = Heap.create ~capacity:(min k 15 + 1) ~leq:entry_leq () in
  { k; heap; next_seq = 0 }

let push t ~score value =
  let e = { score; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  Heap.push t.heap e;
  if Heap.length t.heap > t.k then ignore (Heap.pop t.heap)

let pop_all t =
  let rec drain acc =
    match Heap.pop t.heap with
    | None -> acc
    | Some e -> drain (e :: acc)
  in
  let ascending = List.rev (drain []) in
  (* [drain] yields ascending score order (min-heap pops), reversed to
     descending by the accumulator; re-sort only to stabilise equal scores by
     push order. *)
  let descending =
    List.sort
      (fun a b ->
        if a.score = b.score then compare a.seq b.seq else compare b.score a.score)
      ascending
  in
  List.map (fun e -> (e.score, e.value)) descending
