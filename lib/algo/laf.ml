open Ltc_core

let name = "LAF"

let policy instance tracker progress =
  (* The only structure LAF owns is the K-bounded heap (paper: Q). *)
  let heap = Ltc_util.Bounded_heap.create () in
  fun (w : Worker.t) ->
    let heap_words = 4 * w.capacity in
    Ltc_util.Mem.Tracker.add_words tracker heap_words;
    let chosen = Engine.top_open heap ~key:Engine.Score instance progress w in
    Ltc_util.Mem.Tracker.remove_words tracker heap_words;
    chosen

let run instance = Engine.run ~name policy instance
