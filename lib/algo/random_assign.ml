open Ltc_core

let name = "Random"

let policy_with_rng rng instance _tracker progress (w : Worker.t) =
  (* The open candidates, ascending, shuffled where the kernel left them. *)
  let c = Instance.candidates () in
  let base = Instance.push_open instance c progress w ~scores:false in
  let n = c.top - base in
  let k = min w.capacity n in
  (* Partial Fisher-Yates: the first [k] slots become the sample. *)
  for i = base to base + k - 1 do
    let j = i + Ltc_util.Rng.int rng (base + n - i) in
    let tmp = c.ids.(i) in
    c.ids.(i) <- c.ids.(j);
    c.ids.(j) <- tmp
  done;
  let sample = List.init k (fun i -> c.ids.(base + i)) in
  Instance.pop_candidates c base;
  sample

(* The generator is created at full application, once per run, so a
   partially-applied [policy ~seed] yields identical runs every time. *)
let policy ~seed instance tracker progress =
  policy_with_rng (Ltc_util.Rng.create ~seed) instance tracker progress
let run ~seed instance = Engine.run ~name (policy ~seed) instance
