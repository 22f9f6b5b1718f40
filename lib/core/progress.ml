(* The open tasks sit in one indexed max-heap keyed on [threshold - S]:
   [heap.(0 .. size - 1)] holds task ids, [pos.(task)] a task's slot, -1
   once complete or while held.  A record only lowers a key, so it sifts
   down or removes; a release inserts; [max_remaining] reads the root. *)
type t = {
  thresholds : float array;
  s : float array;
  heap : int array;
  pos : int array;
  mutable size : int;
  mutable n_held : int;
  mutable sum_remaining : float;  (* over open tasks *)
}

let threshold_of t task = t.thresholds.(task)
let n_tasks t = Array.length t.s
let accumulated t task = t.s.(task)
let remaining t task = Float.max 0.0 (t.thresholds.(task) -. t.s.(task))
let is_complete t task = t.s.(task) >= t.thresholds.(task)
let is_open t task = t.pos.(task) >= 0
let all_complete t = t.size = 0 && t.n_held = 0
let incomplete_count t = t.size
let sum_remaining t = Float.max 0.0 t.sum_remaining

(* [let[@inline]] keeps the key unboxed at every comparison. *)
let[@inline] key t task = t.thresholds.(task) -. t.s.(task)

let place t task i =
  t.heap.(i) <- task;
  t.pos.(task) <- i

(* Move [task] from hole [i] towards the root past smaller keys. *)
let sift_up t task i =
  let k = key t task in
  let i = ref i in
  while !i > 0 && key t t.heap.((!i - 1) / 2) < k do
    let parent = (!i - 1) / 2 in
    place t t.heap.(parent) !i;
    i := parent
  done;
  place t task !i

(* Move [task] from hole [i] towards the leaves past larger keys. *)
let sift_down t task i =
  let k = key t task in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    let c =
      if l + 1 < t.size && key t t.heap.(l) < key t t.heap.(l + 1) then l + 1
      else l
    in
    if c < t.size && k < key t t.heap.(c) then begin
      place t t.heap.(c) !i;
      i := c
    end
    else moving := false
  done;
  place t task !i

let remove t task =
  let i = t.pos.(task) in
  t.pos.(task) <- -1;
  t.size <- t.size - 1;
  if i < t.size then begin
    let last = t.heap.(t.size) in
    if i > 0 && key t t.heap.((i - 1) / 2) < key t last then sift_up t last i
    else sift_down t last i
  end

let release t task =
  if t.pos.(task) < 0 && not (is_complete t task) then begin
    t.size <- t.size + 1;
    sift_up t task (t.size - 1);
    t.n_held <- t.n_held - 1;
    t.sum_remaining <- t.sum_remaining +. remaining t task
  end

(* The threshold checks in [check_snapshot]'s order: NaN passes
   [threshold <= 0.0], so the finiteness test follows it. *)
let create_per_task ?(held = fun _ -> false) ~thresholds () =
  let n_tasks = Array.length thresholds in
  if Array.exists (fun threshold -> threshold <= 0.0) thresholds then
    invalid_arg "Progress.create_per_task: thresholds must be positive";
  if not (Array.for_all Float.is_finite thresholds) then
    invalid_arg "Progress.create_per_task: non-finite threshold";
  let t =
    {
      thresholds = Array.copy thresholds;
      s = Array.make n_tasks 0.0;
      heap = Array.make n_tasks 0;
      pos = Array.make n_tasks (-1);
      size = 0;
      n_held = n_tasks;
      sum_remaining = 0.0;
    }
  in
  (* Every task starts held; releasing the rest in ascending id order adds
     their thresholds to [sum_remaining] in that order. *)
  for task = 0 to n_tasks - 1 do
    if not (held task) then release t task
  done;
  t

let create ~threshold ~n_tasks =
  if threshold <= 0.0 then invalid_arg "Progress.create: threshold <= 0";
  if not (Float.is_finite threshold) then
    invalid_arg "Progress.create: non-finite threshold";
  if n_tasks < 0 then invalid_arg "Progress.create: negative n_tasks";
  create_per_task ~thresholds:(Array.make n_tasks threshold) ()

(* The reasons in [check_snapshot]'s order: every comparison with NaN is
   false, so the finiteness test catches what [score < 0.0] lets through,
   and a NaN key would silently break the heap's order. *)
let record t ~task ~score =
  if score < 0.0 then invalid_arg "Progress.record: negative score";
  if not (Float.is_finite score) then
    invalid_arg "Progress.record: non-finite score";
  if is_open t task then begin
    let before = remaining t task in
    t.s.(task) <- t.s.(task) +. score;
    let after = remaining t task in
    t.sum_remaining <- t.sum_remaining -. (before -. after);
    if after <= 0.0 then remove t task else sift_down t task t.pos.(task)
  end
  else if is_complete t task then t.s.(task) <- t.s.(task) +. score
  else invalid_arg "Progress.record: task is held"

let max_remaining t = if t.size = 0 then 0.0 else key t t.heap.(0)

let iter_incomplete t f =
  for task = 0 to Array.length t.pos - 1 do
    if t.pos.(task) >= 0 then f task
  done

(* Charged as the lazily pruned heap this replaced was at creation (five
   words a task, six an open task), so the memory panels stay comparable
   across versions; it is read only when a run starts. *)
let memory_words t = (5 * Array.length t.s) + (6 * t.size)

type snapshot = {
  thresholds : float array;
  scores : float array;
  sum_remaining : float;
}

let borrow_snapshot (t : t) =
  if t.n_held > 0 then invalid_arg "Progress.snapshot: tasks are held";
  { thresholds = t.thresholds; scores = t.s; sum_remaining = t.sum_remaining }

let snapshot t =
  let b = borrow_snapshot t in
  { b with thresholds = Array.copy b.thresholds; scores = Array.copy b.scores }

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
   bottom-up heapify of the open tasks. *)
let of_snapshot (snap : snapshot) =
  let n = Array.length snap.thresholds in
  if Array.length snap.scores <> n then
    invalid_arg "Progress.of_snapshot: scores/thresholds length mismatch";
  check_snapshot ~n ~threshold:(Array.get snap.thresholds)
    ~score:(Array.get snap.scores) ~sum_remaining:snap.sum_remaining;
  let t =
    {
      thresholds = Array.copy snap.thresholds;
      (* [0.0 +. score] is the bit pattern [record] leaves on a zero
         accumulator (it turns -0.0 into 0.0). *)
      s = Array.map (fun score -> 0.0 +. score) snap.scores;
      heap = Array.make n 0;
      pos = Array.make n (-1);
      size = 0;
      n_held = 0;
      (* The captured running total, not one re-derived here: the live run
         accumulated it one arrival at a time, and AAM's average is
         sensitive to that float summation order. *)
      sum_remaining = snap.sum_remaining;
    }
  in
  for task = 0 to n - 1 do
    (* [record]'s test: complete once the remainder is no longer positive. *)
    if key t task > 0.0 then begin
      place t task t.size;
      t.size <- t.size + 1
    end
  done;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t t.heap.(i) i
  done;
  t
