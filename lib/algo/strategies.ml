open Ltc_core

(* Each policy applied to a run owns one reusable top-K heap. *)
let greedy score instance _tracker progress =
  let heap = Ltc_util.Bounded_heap.create () in
  fun w ->
    Engine.top_open heap instance progress w ~score:(score instance progress w)

let lgf_policy =
  greedy (fun instance progress w task ->
      Float.min (Instance.score instance w task) (Progress.remaining progress task))

let lrf_policy =
  greedy (fun _ progress _ task -> Progress.remaining progress task)

(* The heap keeps the largest scores; negate so nearest wins. *)
let nearest_policy =
  greedy (fun (instance : Instance.t) _ (w : Worker.t) task ->
      -.Ltc_geo.Point.distance w.loc instance.Instance.tasks.(task).Task.loc)
