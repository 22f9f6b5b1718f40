(** Workload specifications: Tables IV and V of the paper, as data.

    The defaults are the bold entries of Table IV: [|T| = 3000],
    [|W| = 40000], [K = 6], Normal(0.86, 0.05) accuracy, [epsilon = 0.14],
    over a 1000x1000 grid of 10 m cells with [dmax = 30] (300 m).  Sweep
    lists carry the exact x-axes of Figs. 3-4. *)

type accuracy_model =
  | Normal_acc of float   (** mu; sigma fixed at 0.05 as in Table IV *)
  | Uniform_acc of float  (** mean *)

type synthetic = {
  n_tasks : int;
  n_workers : int;
  capacity : int;
  epsilon : float;
  accuracy : accuracy_model;
  world_side : float;  (** grid side length, in 10 m units *)
  dmax : float;
}

val default_synthetic : synthetic

(** Sweeps of Table IV (x-axes of Fig. 3 and Fig. 4a-b). *)

val n_tasks_sweep : int list
(** 1000 .. 5000 *)

val capacity_sweep : int list
(** 4 .. 8 *)

val normal_mu_sweep : float list
(** 0.82 .. 0.90 *)

val uniform_mean_sweep : float list
(** 0.82 .. 0.90 *)

val epsilon_sweep : float list
(** 0.06 .. 0.22 *)

val scalability_sweep : (int * int) list
(** [(|T|, |W|)] pairs: 10k..100k tasks with 400k workers. *)

type city = {
  city_name : string;
  c_n_tasks : int;
  c_n_workers : int;
  c_capacity : int;
  c_epsilon : float;
  c_mu : float;           (** Normal(mu, 0.05) accuracy, as in Table V *)
  c_side : float;         (** city extent in 10 m grid units *)
  c_clusters : int;       (** POI hot-spot count of the mixture model *)
  c_cluster_sigma : float;(** spatial spread of a hot spot *)
  c_background : float;   (** fraction of check-ins placed uniformly *)
  c_dmax : float;
}

val new_york : city
(** Table V row 1: [|T| = 3717], [|W| = 227428]. *)

val tokyo : city
(** Table V row 2: [|T| = 9317], [|W| = 573703]. *)

val scale_synthetic : float -> synthetic -> synthetic
(** Shrink (or grow) a synthetic spec by a factor while preserving task and
    worker {e densities}: cardinalities scale linearly, the world side by
    [sqrt factor].  Identity at factor 1.  A scaled count is rounded and
    kept at least 1.
    @raise Invalid_argument unless [factor] is finite and > 0, or when
    [n_tasks] or [n_workers] is below 1. *)

val scale_city : float -> city -> city
(** Same density-preserving scaling for city specs (cluster count scales
    linearly too).
    @raise Invalid_argument unless [factor] is finite and > 0, or when
    [c_n_tasks] or [c_n_workers] is below 1. *)

val pp_city : Format.formatter -> city -> unit
