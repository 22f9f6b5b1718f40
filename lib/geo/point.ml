type t = { x : float; y : float }

let make ~x ~y = { x; y }

(* Inlined into [distance], whose only float to box is its result. *)
let[@inline] distance_sq a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  (dx *. dx) +. (dy *. dy)

let distance a b = sqrt (distance_sq a b)

let equal a b = a.x = b.x && a.y = b.y

let pp fmt p = Format.fprintf fmt "(%g, %g)" p.x p.y

let to_string p = Format.asprintf "%a" pp p
