(** Latency bounds from Theorem 2 and McNaughton's rule.

    With [|T| >= K], the optimal maximum latency lies in
    [\[ |T| delta / K,  10 |T| delta / K + |T| / K + 1 \]]; both ends follow
    from McNaughton's rule applied with the extreme per-assignment scores
    ([Acc* = 1] and [Acc* > 0.1], the floor implied by the 0.66 trust
    threshold).  MCF-LTC sizes its batches with the lower bound; the
    [ablation-approx] bench reports measured latencies against both. *)

val lower : n_tasks:int -> delta:float -> k:int -> float
(** [|T| delta / K].
    @raise Invalid_argument when [n_tasks < 1] or [k < 1]. *)

val upper : n_tasks:int -> delta:float -> k:int -> float
(** [10 |T| delta / K + |T| / K + 1].
    @raise Invalid_argument when [n_tasks < 1] or [k < 1]. *)

val mcnaughton : n_tasks:int -> delta:float -> k:int -> r:float -> int
(** Optimal latency when every assignment scores exactly [r]:
    [max (ceil (|T| * ceil(delta/r) / K)) (ceil (delta/r))].
    @raise Invalid_argument when [n_tasks < 1], [k < 1] or [r <= 0]. *)

val of_instance : Ltc_core.Instance.t -> float * float
(** [(lower, upper)] for an instance (uses the first worker's capacity, the
    paper's uniform [K]).
    @raise Invalid_argument when the instance has no task. *)
