(** Predicted accuracy models (Definition 3).

    The paper's default is the distance-damped sigmoid of Eq. (1):

    {[ Acc(w,t) = p_w / (1 + exp(-(dmax - ||l_w - l_t||))) ]}

    where [dmax] is the largest distance at which workers still answer with
    high accuracy (30 grid units = 300 m in the evaluation).  "Other accuracy
    functions can also apply" — hence the model is a first-class value; the
    [Historical] model (distance-independent [p_w]) reproduces the paper's
    running example, whose Table I lists raw historical accuracies. *)

type t =
  | Sigmoid of { dmax : float }
      (** Eq. (1).  @see <https://doi.org/10.1109/ICDE.2018.00027> Sec. II-A *)
  | Historical
      (** [Acc(w,t) = p_w]: the worker is assumed familiar with every
          candidate POI (running example, Tables I-II). *)
  | Custom of { name : string; f : Worker.t -> Task.t -> float }

val acc : t -> Worker.t -> Task.t -> float
(** Predicted accuracy, clamped into [\[0, 1\]]. *)

val acc_star : t -> Worker.t -> Task.t -> float
(** The Hoeffding weight [Acc* = (2 Acc - 1)^2] used by every algorithm in
    the paper. *)

val fill_weights :
  t ->
  star:bool ->
  Worker.t ->
  Task.t array ->
  ids:int array ->
  d2:float array ->
  float array ->
  int ->
  int ->
  unit
(** [fill_weights t ~star w tasks ~ids ~d2 weights lo hi] sets each
    [weights.(k)], [lo <= k < hi], to [acc_star] (under [star]) or [acc]
    of [w] on [tasks.(ids.(k))], read from the squared distance [d2.(k)]
    instead of computing it: bit for bit the scalar result when [d2.(k)]
    is [Ltc_geo.Point.distance_sq w.loc task.loc].  It boxes no float but
    a [Custom] model's result. *)

val default_dmax : float
(** 30 grid units (300 m), the evaluation's setting. *)

val pp : Format.formatter -> t -> unit
