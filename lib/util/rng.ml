type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let state t = t.state
let of_state state = { state }

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let split_seed t = Int64.to_int (bits64 t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the top bits to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec draw () =
    let bits = Int64.shift_right_logical (bits64 t) 1 in
    let value = Int64.rem bits n64 in
    if Int64.sub bits value > Int64.sub (Int64.sub Int64.max_int n64) 1L
    then draw ()
    else Int64.to_int value
  in
  draw ()

let float t x =
  (* 53 uniform mantissa bits. *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p
