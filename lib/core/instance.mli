(** A full LTC problem instance (Definitions 6-7).

    Bundles the task set, the worker arrival sequence, the tolerable error
    rate, the accuracy model, the scoring rule and the candidate rule.  The
    same value describes both scenarios: offline algorithms may read
    [workers] in full, online ones must consume it in order (enforced by
    {!Ltc_algo.Engine}, not here).

    {b Candidate rule.}  When [candidate_radius] is set (the default
    workloads use [dmax]), a worker may only be assigned tasks within that
    Euclidean distance of their check-in — the paper's "questions about the
    nearby POIs".  Beyond [dmax] the sigmoid model predicts [Acc < p_w/2 <=
    0.5], i.e. a worse-than-coin-flip answer whose Hoeffding weight would be
    spurious.  Candidate lookup is served by a {!Ltc_geo.Grid_index} built
    once per instance. *)

type t = private {
  tasks : Task.t array;
  workers : Worker.t array;  (** in arrival order; [workers.(i).index = i+1] *)
  epsilon : float;
  accuracy : Accuracy.t;
  scoring : Quality.scoring;
  candidate_radius : float option;
  task_index : Ltc_geo.Grid_index.t option;
}

val create :
  ?accuracy:Accuracy.t ->
  ?scoring:Quality.scoring ->
  ?candidate_radius:float option ->
  tasks:Task.t array ->
  workers:Worker.t array ->
  epsilon:float ->
  unit ->
  t
(** Defaults: [accuracy = Sigmoid {dmax = 30.}], [scoring = Hoeffding],
    [candidate_radius = Some dmax] (where [dmax] is taken from the accuracy
    model when it is a sigmoid, otherwise no radius).

    @raise Invalid_argument when [epsilon] is outside (0,1), a
    [Sum_accuracy] threshold is not finite and positive, a task id does
    not match its position, or workers are not in 1-based contiguous
    arrival order. *)

val task_count : t -> int
val worker_count : t -> int

val threshold : t -> float
(** The instance-wide completion threshold ([delta epsilon] under Hoeffding
    scoring) — what tasks without a per-task override must accumulate. *)

val threshold_of : t -> int -> float
(** [threshold_of t task_id]: the task's own threshold, honouring its
    [Task.epsilon] override under Hoeffding scoring (fixed-threshold
    scorings ignore per-task rates). *)

val thresholds : t -> float array
(** All per-task thresholds, indexed by task id (fresh array). *)

val score : t -> Worker.t -> int -> float
(** [score t w task_id]: contribution of assigning task [task_id] to [w]. *)

val acc : t -> Worker.t -> int -> float
(** Predicted accuracy [Acc(w, task_id)]. *)

val iter_candidates : t -> Worker.t -> (int -> unit) -> unit
(** The task ids assignable to [w] (all tasks when no radius); ascending
    order is NOT guaranteed here (grid cells are visited row-major).  The
    flow network numbers its arcs in this order. *)

val iter_candidates_sorted : t -> Worker.t -> (int -> unit) -> unit
(** The same ids in {e ascending} order: the grid scan inserts each hit
    into place in a per-domain scratch buffer, then the callback runs over
    it.  This is the per-arrival path of the online policies — their
    documented prefer-the-lower-task-index tie-break falls out of the
    iteration order.  The callback may query again. *)

val count_candidates : t -> Worker.t -> int

val memory_words : t -> int
(** Approximate footprint of the instance data (tasks, workers, index); the
    workload-side baseline shared by every algorithm. *)

val pp : Format.formatter -> t -> unit
(** One-line summary (cardinalities and parameters). *)
