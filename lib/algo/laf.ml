open Ltc_core

let name = "LAF"

let policy instance tracker progress (w : Worker.t) =
  (* The only structure LAF owns is the K-bounded heap (paper: Q). *)
  let heap_words = 4 * w.capacity in
  Ltc_util.Mem.Tracker.add_words tracker heap_words;
  let chosen =
    Engine.top_open instance progress w ~score:(fun task ->
        Instance.score instance w task)
  in
  Ltc_util.Mem.Tracker.remove_words tracker heap_words;
  chosen

let run instance = Engine.run ~name policy instance
