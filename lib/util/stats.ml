type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let sq = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (sq /. float_of_int (n - 1))
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty array";
  {
    n;
    mean = mean xs;
    stddev = stddev xs;
    min = Array.fold_left Float.min xs.(0) xs;
    max = Array.fold_left Float.max xs.(0) xs;
  }
