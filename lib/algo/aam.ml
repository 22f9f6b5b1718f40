open Ltc_core

let name = "AAM"

let policy instance tracker progress =
  let heap = Ltc_util.Bounded_heap.create () in
  fun (w : Worker.t) ->
    (* Lines 4-5: both aggregates are maintained incrementally by
       [Progress], so the per-arrival cost is O(candidates * log K). *)
    let avg = Progress.sum_remaining progress /. float_of_int w.capacity in
    let use_lgf = avg >= Progress.max_remaining progress in
    let heap_words = 4 * w.capacity in
    Ltc_util.Mem.Tracker.add_words tracker heap_words;
    let key = if use_lgf then Engine.Gain else Engine.Remaining in
    let chosen = Engine.top_open heap ~key instance progress w in
    Ltc_util.Mem.Tracker.remove_words tracker heap_words;
    chosen

let run instance = Engine.run ~name policy instance
