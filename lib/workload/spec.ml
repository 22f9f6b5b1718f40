type accuracy_model =
  | Normal_acc of float
  | Uniform_acc of float

type synthetic = {
  n_tasks : int;
  n_workers : int;
  capacity : int;
  epsilon : float;
  accuracy : accuracy_model;
  world_side : float;
  dmax : float;
}

let default_synthetic =
  {
    n_tasks = 3000;
    n_workers = 40000;
    capacity = 6;
    epsilon = 0.14;
    accuracy = Normal_acc 0.86;
    world_side = 1000.0;
    dmax = 30.0;
  }

let n_tasks_sweep = [ 1000; 2000; 3000; 4000; 5000 ]
let capacity_sweep = [ 4; 5; 6; 7; 8 ]
let normal_mu_sweep = [ 0.82; 0.84; 0.86; 0.88; 0.90 ]
let uniform_mean_sweep = [ 0.82; 0.84; 0.86; 0.88; 0.90 ]
let epsilon_sweep = [ 0.06; 0.10; 0.14; 0.18; 0.22 ]

let scalability_sweep =
  List.map
    (fun n_tasks -> (n_tasks, 400_000))
    [ 10_000; 20_000; 30_000; 40_000; 50_000; 100_000 ]

type city = {
  city_name : string;
  c_n_tasks : int;
  c_n_workers : int;
  c_capacity : int;
  c_epsilon : float;
  c_mu : float;
  c_side : float;
  c_clusters : int;
  c_cluster_sigma : float;
  c_background : float;
  c_dmax : float;
}

(* Cluster counts and extents approximate the check-in geography of the
   Foursquare dumps of [17]: New York's activity concentrates in fewer,
   denser neighbourhoods than Tokyo's, whose metropolitan area is larger. *)
let new_york =
  {
    city_name = "New York";
    c_n_tasks = 3717;
    c_n_workers = 227_428;
    c_capacity = 6;
    c_epsilon = 0.14;
    c_mu = 0.86;
    c_side = 2500.0;
    c_clusters = 60;
    c_cluster_sigma = 60.0;
    c_background = 0.10;
    c_dmax = 30.0;
  }

let tokyo =
  {
    city_name = "Tokyo";
    c_n_tasks = 9317;
    c_n_workers = 573_703;
    c_capacity = 6;
    c_epsilon = 0.14;
    c_mu = 0.86;
    c_side = 4000.0;
    c_clusters = 120;
    c_cluster_sigma = 60.0;
    c_background = 0.10;
    c_dmax = 30.0;
  }

let scale_count factor n = max 1 (int_of_float (Float.round (factor *. float_of_int n)))

(* NaN fails both comparisons, so it is refused with the infinities. *)
let check_factor fn factor =
  if not (factor > 0.0 && factor < infinity) then
    invalid_arg (fn ^ ": factor must be finite and > 0")

(* A count below 1 would otherwise be clamped to one task or worker. *)
let check_count fn field n =
  if n < 1 then
    invalid_arg (Printf.sprintf "%s: %s must be >= 1 (got %d)" fn field n)

let scale_synthetic factor spec =
  check_factor "Spec.scale_synthetic" factor;
  check_count "Spec.scale_synthetic" "n_tasks" spec.n_tasks;
  check_count "Spec.scale_synthetic" "n_workers" spec.n_workers;
  {
    spec with
    n_tasks = scale_count factor spec.n_tasks;
    n_workers = scale_count factor spec.n_workers;
    world_side = spec.world_side *. sqrt factor;
  }

let scale_city factor spec =
  check_factor "Spec.scale_city" factor;
  check_count "Spec.scale_city" "c_n_tasks" spec.c_n_tasks;
  check_count "Spec.scale_city" "c_n_workers" spec.c_n_workers;
  {
    spec with
    c_n_tasks = scale_count factor spec.c_n_tasks;
    c_n_workers = scale_count factor spec.c_n_workers;
    c_side = spec.c_side *. sqrt factor;
    c_clusters = scale_count factor spec.c_clusters;
  }

let pp_city fmt c =
  Format.fprintf fmt
    "city{%s, |T|=%d, |W|=%d, K=%d, eps=%.2f, mu=%.2f, side=%g, clusters=%d}"
    c.city_name c.c_n_tasks c.c_n_workers c.c_capacity c.c_epsilon c.c_mu
    c.c_side c.c_clusters
