(* Theorem 2 assumes at least one task and a positive capacity; below
   that the bounds divide by zero or turn negative. *)
let check fn ~n_tasks ~k =
  if n_tasks < 1 then invalid_arg (fn ^ ": n_tasks must be >= 1");
  if k < 1 then invalid_arg (fn ^ ": k must be >= 1")

let lower ~n_tasks ~delta ~k =
  check "Bounds.lower" ~n_tasks ~k;
  float_of_int n_tasks *. delta /. float_of_int k

let upper ~n_tasks ~delta ~k =
  check "Bounds.upper" ~n_tasks ~k;
  (10.0 *. float_of_int n_tasks *. delta /. float_of_int k)
  +. (float_of_int n_tasks /. float_of_int k)
  +. 1.0

let mcnaughton ~n_tasks ~delta ~k ~r =
  check "Bounds.mcnaughton" ~n_tasks ~k;
  if r <= 0.0 then invalid_arg "Bounds.mcnaughton: r must be positive";
  let per_task = int_of_float (Float.ceil (delta /. r)) in
  let spread =
    int_of_float
      (Float.ceil (float_of_int (n_tasks * per_task) /. float_of_int k))
  in
  max spread per_task

let of_instance instance =
  let open Ltc_core in
  let n_tasks = Instance.task_count instance in
  let delta = Instance.threshold instance in
  let k =
    if Instance.worker_count instance = 0 then 1
    else instance.Instance.workers.(0).Worker.capacity
  in
  (lower ~n_tasks ~delta ~k, upper ~n_tasks ~delta ~k)
