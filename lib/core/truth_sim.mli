(** Monte-Carlo validation of the quality model (Definition 4).

    The paper's guarantee is statistical: when the accumulated
    [Acc* = (2 Acc - 1)^2] of a task reaches [delta = 2 ln(1/epsilon)],
    weighted majority voting errs with probability at most [epsilon]
    (Hoeffding).  This simulator draws a ground truth per task, samples each
    assigned worker's answer (correct with probability [Acc(w,t)]), decides
    with Definition 4's weighted vote ({!Quality.majority}) and reports
    empirical error rates —
    used by the [hoeffding] bench and the property tests to check that the
    engine's completion rule really delivers the promised accuracy. *)

type task_report = {
  task : int;
  votes : int;            (** number of workers assigned to the task *)
  acc_star_sum : float;   (** accumulated Hoeffding weight *)
  error_rate : float;     (** empirical voting error over all trials *)
}

type report = {
  trials : int;
  epsilon : float;        (** the bound the instance promises *)
  tasks : task_report array;
  mean_error : float;
  max_error : float;
}

val run :
  ?trials:int ->
  ?actual_accuracy:(Worker.t -> Task.t -> float) ->
  Ltc_util.Rng.t ->
  Instance.t ->
  Arrangement.t ->
  report
(** [run rng instance arrangement] simulates [trials] (default 1000)
    independent question/answer rounds.  Ties in the vote count as errors
    (conservative).  Tasks with no assigned workers have error rate 1.

    [actual_accuracy] decouples reality from belief: answers are sampled
    with this probability of correctness while vote weights still use the
    instance's (believed) accuracy model.  Defaults to the instance model
    (belief = reality, the paper's setting).  Use it to measure what
    happens when the platform's [p_w] estimates are wrong — see the
    [ext-inference] bench. *)

val pp : Format.formatter -> report -> unit
