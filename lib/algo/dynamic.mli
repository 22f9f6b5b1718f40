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

    Any online entry of the {!Algorithm} registry runs here: its policy is
    folded through {!Engine.step} over a {!Ltc_core.Progress.t} that holds
    each task until its release (so AAM's [avg]/[maxRemain] aggregates
    range over released, unfinished tasks only).  With every release at 0
    a run is the static algorithm's, by construction. *)

type outcome = {
  engine : Engine.outcome;
  mean_response : float;
      (** average (completion index - release index) over completed tasks *)
  max_response : int;
  completed_tasks : int;
}

val run :
  algorithm:Algorithm.t ->
  seed:int ->
  release:int array ->
  Ltc_core.Instance.t ->
  outcome
(** [run ~algorithm ~seed ~release instance] runs [algorithm]'s policy
    over a generator created from [seed] (the stream its registry [run]
    draws from; only Random draws), under the name ["<algorithm>-dyn"].
    [release] must have one entry per task, each [>= 0].
    @raise Invalid_argument on an offline algorithm, a shape mismatch or
    negative releases. *)

val uniform_releases :
  Ltc_util.Rng.t ->
  n_tasks:int ->
  horizon:int ->
  upfront_fraction:float ->
  int array
(** Helper: a [ceil (upfront_fraction * n_tasks)]-sized prefix released at
    0, the rest uniformly over [\[1, horizon\]]. *)
