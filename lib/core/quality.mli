(** Quality model: completion thresholds and result aggregation
    (Definition 4 and the Hoeffding argument below it).

    A task assigned to workers [W_t] is decided by weighted majority voting
    with weights [2 Acc(w,t) - 1].  By Hoeffding's inequality, when the
    accumulated [Acc* = (2 Acc - 1)^2] over [W_t] reaches
    [delta = 2 ln(1/epsilon)], the voting error probability is below
    [epsilon].  The {!scoring} value makes the per-assignment score and the
    completion threshold pluggable, which lets the test-suite reproduce the
    paper's Example 1 (raw accuracy sum vs. threshold 2.92) alongside the
    default Hoeffding model. *)

type scoring =
  | Hoeffding
      (** score [Acc*(w,t)]; threshold [delta epsilon]. *)
  | Sum_accuracy of { threshold : float }
      (** score [Acc(w,t)]; fixed threshold (Example 1 uses 2.92). *)

val delta : epsilon:float -> float
(** [2 ln(1/epsilon)].  @raise Invalid_argument unless [0 < epsilon < 1]. *)

val threshold : scoring -> epsilon:float -> float
(** Accumulated score a task must reach to count as completed. *)

val star : scoring -> bool
(** Whether an assignment scores its [Acc*] ([Hoeffding]) or its [Acc]. *)

val score : scoring -> Accuracy.t -> Worker.t -> Task.t -> float
(** Contribution of one assignment towards the task's threshold. *)

val majority :
  (float * Task.answer) list -> Task.answer option
(** [majority votes] is the weighted majority decision over
    [(weight, answer)] pairs; [None] on an empty list or an exact tie.
    {!Truth_sim.run} decides every simulated trial with it. *)

val hoeffding_error_bound : acc_star_sum:float -> float
(** The Hoeffding bound [exp(-acc_star_sum / 2)] on the voting error
    probability; [<= epsilon] exactly when [acc_star_sum >= delta]. *)

val pp_scoring : Format.formatter -> scoring -> unit
