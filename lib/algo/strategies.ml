open Ltc_core

let lgf_policy instance _tracker progress (w : Worker.t) =
  Engine.top_open instance progress w ~score:(fun task ->
      Float.min (Instance.score instance w task) (Progress.remaining progress task))

let lrf_policy instance _tracker progress w =
  Engine.top_open instance progress w ~score:(fun task ->
      Progress.remaining progress task)

let nearest_policy (instance : Instance.t) _tracker progress (w : Worker.t) =
  (* The heap keeps the largest scores; negate so nearest wins. *)
  Engine.top_open instance progress w ~score:(fun task ->
      -.Ltc_geo.Point.distance w.loc instance.Instance.tasks.(task).Task.loc)
