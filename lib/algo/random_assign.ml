open Ltc_core

let name = "Random"

let policy_with_rng rng instance _tracker progress =
  (* Refilled per arrival with the open candidates in ascending id order. *)
  let pool = Array.make (max 1 (Instance.task_count instance)) 0 in
  fun (w : Worker.t) ->
    let n = ref 0 in
    Instance.iter_candidates_sorted instance w (fun task ->
        if Progress.is_open progress task then begin
          pool.(!n) <- task;
          incr n
        end);
    let n = !n in
    let k = min w.capacity n in
    (* Partial Fisher-Yates: the first [k] slots become the sample. *)
    for i = 0 to k - 1 do
      let j = i + Ltc_util.Rng.int rng (n - i) in
      let tmp = pool.(i) in
      pool.(i) <- pool.(j);
      pool.(j) <- tmp
    done;
    List.init k (fun i -> pool.(i))

(* The generator is created at full application, once per run, so a
   partially-applied [policy ~seed] yields identical runs every time. *)
let policy ~seed instance tracker progress =
  policy_with_rng (Ltc_util.Rng.create ~seed) instance tracker progress
let run ~seed instance = Engine.run ~name (policy ~seed) instance
