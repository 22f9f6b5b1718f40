open Ltc_core

let name = "AAM"

let policy instance tracker progress (w : Worker.t) =
  (* Lines 4-5: both aggregates are maintained incrementally by
     [Progress], so the per-arrival cost is O(candidates * log K). *)
  let avg = Progress.sum_remaining progress /. float_of_int w.capacity in
  let use_lgf = avg >= Progress.max_remaining progress in
  let heap_words = 4 * w.capacity in
  Ltc_util.Mem.Tracker.add_words tracker heap_words;
  let chosen =
    Engine.top_open instance progress w ~score:(fun task ->
        if use_lgf then
          Float.min
            (Instance.score instance w task)
            (Progress.remaining progress task)
        else Progress.remaining progress task)
  in
  Ltc_util.Mem.Tracker.remove_words tracker heap_words;
  chosen

let run instance = Engine.run ~name policy instance
