(** Dynamic task arrival — relaxing the paper's assumption (i).

    The paper fixes the task set up front ("tasks are known in advance to
    the platform").  Real platforms add questions continuously; this module
    runs the online scenario when task [t] only becomes assignable after
    the [release.(t)]-th worker has arrived (release 0 = known upfront).
    Unreleased tasks are invisible to the strategy and receive no
    assignments.

    Latency (max recruited index) keeps its meaning; additionally each
    task's {e response time} — completion index minus release index — is
    reported, which is the latency a late-posted question actually
    experiences.

    The strategies are the registry's LAF, AAM and Random policies, folded
    through {!Engine.step} over a {!Ltc_core.Progress.t} that holds each
    task until its release (so AAM's [avg]/[maxRemain] aggregates range
    over released, unfinished tasks only).  With every release at 0 a run
    is the static algorithm's, by construction. *)

type strategy =
  | Laf_d
  | Aam_d
  | Random_d of int  (** seed *)

type outcome = {
  engine : Engine.outcome;
  mean_response : float;
      (** average (completion index - release index) over completed tasks *)
  max_response : int;
  completed_tasks : int;
}

val run :
  strategy:strategy -> release:int array -> Ltc_core.Instance.t -> outcome
(** [release] must have one entry per task, each [>= 0].
    @raise Invalid_argument on shape mismatch or negative releases. *)

val uniform_releases :
  Ltc_util.Rng.t ->
  n_tasks:int ->
  horizon:int ->
  upfront_fraction:float ->
  int array
(** Helper: a [ceil (upfront_fraction * n_tasks)]-sized prefix released at
    0, the rest uniformly over [\[1, horizon\]]. *)
