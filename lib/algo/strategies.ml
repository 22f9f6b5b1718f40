(* Each policy applied to a run owns one reusable top-K heap. *)
let greedy key instance _tracker progress =
  let heap = Ltc_util.Bounded_heap.create () in
  fun w -> Engine.top_open heap ~key instance progress w

let lgf_policy = greedy Engine.Gain
let lrf_policy = greedy Engine.Remaining
let nearest_policy = greedy Engine.Nearest
