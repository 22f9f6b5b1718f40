type t = {
  thresholds : float array;
  s : float array;
  version : int array;  (* bumped on every record; invalidates heap entries *)
  (* Order-preserving set of incomplete task ids: the live prefix is kept
     sorted ascending (removal shifts the tail left), which is the
     ordering guarantee [iter_incomplete] documents — MCF-LTC builds its
     batch node numbering straight off this iteration. *)
  incomplete : int array;      (* first [n_incomplete] entries are live *)
  position : int array;        (* position.(task) in [incomplete], -1 if done *)
  mutable n_incomplete : int;
  mutable sum_remaining : float;
  (* Lazy max-heap over (remaining, task, version). *)
  heap : (float * int * int) Ltc_util.Heap.t;
}

(* Max-heap order on the [remaining] field of a heap entry. *)
let heap_leq (a, _, _) (b, _, _) = (a : float) >= b

let create_per_task ~thresholds =
  let n_tasks = Array.length thresholds in
  Array.iter
    (fun threshold ->
      if threshold <= 0.0 then
        invalid_arg "Progress.create_per_task: thresholds must be positive")
    thresholds;
  let t =
    {
      thresholds = Array.copy thresholds;
      s = Array.make (max n_tasks 1) 0.0;
      version = Array.make (max n_tasks 1) 0;
      incomplete = Array.init (max n_tasks 1) (fun i -> i);
      position = Array.init (max n_tasks 1) (fun i -> i);
      n_incomplete = n_tasks;
      sum_remaining = Array.fold_left ( +. ) 0.0 thresholds;
      heap = Ltc_util.Heap.create ~capacity:(2 * max n_tasks 1) ~leq:heap_leq ();
    }
  in
  for task = 0 to n_tasks - 1 do
    Ltc_util.Heap.push t.heap (thresholds.(task), task, 0)
  done;
  t

let create ~threshold ~n_tasks =
  if threshold <= 0.0 then invalid_arg "Progress.create: threshold <= 0";
  if n_tasks < 0 then invalid_arg "Progress.create: negative n_tasks";
  create_per_task ~thresholds:(Array.make n_tasks threshold)

let threshold_of t task = t.thresholds.(task)
let n_tasks t = Array.length t.s
let accumulated t task = t.s.(task)
let remaining t task = Float.max 0.0 (t.thresholds.(task) -. t.s.(task))
let is_complete t task = t.s.(task) >= t.thresholds.(task)
let all_complete t = t.n_incomplete = 0
let incomplete_count t = t.n_incomplete
let sum_remaining t = Float.max 0.0 t.sum_remaining

let remove_incomplete t task =
  let pos = t.position.(task) in
  if pos >= 0 then begin
    let last = t.n_incomplete - 1 in
    Array.blit t.incomplete (pos + 1) t.incomplete pos (last - pos);
    for i = pos to last - 1 do
      t.position.(t.incomplete.(i)) <- i
    done;
    t.position.(task) <- -1;
    t.n_incomplete <- last
  end

let record t ~task ~score =
  if score < 0.0 then invalid_arg "Progress.record: negative score";
  if not (is_complete t task) then begin
    let before = remaining t task in
    t.s.(task) <- t.s.(task) +. score;
    let after = remaining t task in
    t.sum_remaining <- t.sum_remaining -. (before -. after);
    t.version.(task) <- t.version.(task) + 1;
    if after <= 0.0 then remove_incomplete t task
    else Ltc_util.Heap.push t.heap (after, task, t.version.(task))
  end
  else t.s.(task) <- t.s.(task) +. score

let rec max_remaining t =
  match Ltc_util.Heap.peek t.heap with
  | None -> 0.0
  | Some (r, task, version) ->
    if t.version.(task) = version && not (is_complete t task) then r
    else begin
      ignore (Ltc_util.Heap.pop t.heap);
      max_remaining t
    end

let iter_incomplete t f =
  for i = 0 to t.n_incomplete - 1 do
    f t.incomplete.(i)
  done

let fold_incomplete t ~init ~f =
  let acc = ref init in
  iter_incomplete t (fun task -> acc := f !acc task);
  !acc

let memory_words t =
  (* thresholds + s (floats) + version + incomplete + position + heap
     triples (~6 words each including the tuple block). *)
  (5 * Array.length t.s) + (6 * Ltc_util.Heap.length t.heap)

type snapshot = {
  thresholds : float array;
  scores : float array;
  sum_remaining : float;
}

let snapshot (t : t) =
  (* [t.s] is padded to [max n 1]; the thresholds array carries the true
     task count. *)
  let n = Array.length t.thresholds in
  {
    thresholds = Array.copy t.thresholds;
    scores = Array.sub t.s 0 n;
    sum_remaining = t.sum_remaining;
  }

(* One pass over every entry, then the reasons in a fixed priority, so a
   payload with several faults names the same one whichever reader checks
   it.  Negative scores and non-positive thresholds come first, so a
   payload refused for them keeps that reason; the non-finite checks
   catch what those comparisons let through, since every comparison with
   NaN is false. *)
let check_snapshot ~n ~threshold ~score ~sum_remaining =
  let negative = ref false and non_positive = ref false in
  let bad_score = ref false and bad_threshold = ref false in
  for task = 0 to n - 1 do
    let th = threshold task and s = score task in
    if s < 0.0 then negative := true;
    if th <= 0.0 then non_positive := true;
    if not (Float.is_finite s) then bad_score := true;
    if not (Float.is_finite th) then bad_threshold := true
  done;
  if !negative then invalid_arg "Progress.of_snapshot: negative score";
  if !non_positive then
    invalid_arg "Progress.create_per_task: thresholds must be positive";
  if !bad_score then invalid_arg "Progress.of_snapshot: non-finite score";
  if !bad_threshold then
    invalid_arg "Progress.of_snapshot: non-finite threshold";
  if not (Float.is_finite sum_remaining) then
    invalid_arg "Progress.of_snapshot: non-finite sum_remaining"

(* The state [create_per_task] then one [record] per task reaches (a
   qcheck property compares the two), built in one ascending pass and a
   linear heapify of the live entries. *)
let of_snapshot (snap : snapshot) =
  let n = Array.length snap.thresholds in
  if Array.length snap.scores <> n then
    invalid_arg "Progress.of_snapshot: scores/thresholds length mismatch";
  check_snapshot ~n ~threshold:(Array.get snap.thresholds)
    ~score:(Array.get snap.scores) ~sum_remaining:snap.sum_remaining;
  let size = max n 1 in
  (* [0.0 +. score] is the bit pattern [record] leaves on a zero
     accumulator (it turns -0.0 into 0.0). *)
  let s =
    Array.init size (fun task ->
        if task < n then 0.0 +. snap.scores.(task) else 0.0)
  in
  let incomplete = Array.make size 0 in
  let position = Array.make size (-1) in
  let live = ref 0 in
  for task = 0 to n - 1 do
    (* [record]'s test: complete once the remainder is no longer positive. *)
    if snap.thresholds.(task) -. s.(task) > 0.0 then begin
      incomplete.(!live) <- task;
      position.(task) <- !live;
      incr live
    end
  done;
  let entries =
    Array.init !live (fun i ->
        let task = incomplete.(i) in
        (snap.thresholds.(task) -. s.(task), task, 0))
  in
  {
    thresholds = Array.copy snap.thresholds;
    s;
    version = Array.make size 0;
    incomplete;
    position;
    n_incomplete = !live;
    (* The captured running total, not one re-derived here: the live run
       accumulated it one arrival at a time, and AAM's average is
       sensitive to that float summation order. *)
    sum_remaining = snap.sum_remaining;
    heap = Ltc_util.Heap.of_array ~leq:heap_leq entries;
  }
