(** The two halves of AAM as standalone online policies.

    AAM (Algorithm 3) switches between Largest Gain First and Largest
    Remaining First based on its [avg] vs [maxRemain] test.  Running each
    strategy {e alone} isolates what the hybrid buys: LGF alone wastes the
    endgame on nearly-finished tasks, LRF alone wastes accurate workers on
    easy tasks early.  The [ablation-strategy] bench compares LGF-only,
    LRF-only, AAM and LAF on the default workload. *)

val lgf_policy : Engine.policy
(** Largest Gain First only: rank unfinished candidates by
    [min (Acc*(w,t), remaining t)]. *)

val lrf_policy : Engine.policy
(** Largest Remaining First only: rank unfinished candidates by
    [remaining t]. *)

val nearest_policy : Engine.policy
(** Nearest First: assign the [K] spatially closest unfinished candidate
    tasks.  Not from the paper — a natural spatial-crowdsourcing heuristic
    (distance is the dominant accuracy factor under Eq. 1) included as an
    extra baseline; under the sigmoid model it behaves like LAF with ties
    broken by distance instead of historical accuracy. *)

(** Their registry entries, with one-shot runs, live in {!Algorithm}. *)
