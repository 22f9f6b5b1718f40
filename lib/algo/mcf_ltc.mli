(** MCF-LTC — Algorithm 1 (offline, 7.5-approximation).

    Processes the known arrival sequence in batches sized by the Theorem-2
    lower bound [m = |T| * ceil(delta) / K] (first batch [1.5 m]).  Each
    batch is reduced to a min-cost max-flow instance

    {v st -[cap K, cost 0]-> w -[cap 1, cost -Acc(w,t)^star]-> t
                                 -[cap ceil(delta - S[t]), cost 0]-> ed v}

    solved by SSPA ({!Ltc_flow.Mcmf}); leftover worker capacity is then
    spent greedily on the highest-[Acc*] unfinished tasks (Algorithm 1
    lines 8-15).  A tie-break perturbation
    of [5e-8 * index / |W|] on the [w->t] arc costs prefers earlier
    workers among equally accurate ones — it can only lower the latency
    objective and pins down Example 2's answer (6).

    {b Hot path.}  All per-batch state lives in one per-run scratch: the
    flow graph is an arena ({!Ltc_flow.Graph.clear}ed, never reallocated),
    the solver reuses one {!Ltc_flow.Mcmf.workspace} and task-id-indexed
    int arrays replace the old per-batch hashtables.  After the first batch
    the loop is allocation-free up to the per-worker assignment lists.  See
    DESIGN.md §9.

    The batch factors are exposed for the [ablation-batch] bench, which
    reproduces the paper's observation that large batches can make MCF-LTC
    lose to AAM (Sec. V-B1). *)

val name : string

type config = {
  first_batch_factor : float;  (** paper: 1.5 *)
  batch_factor : float;        (** paper: 1.0 *)
  budget : Ltc_flow.Mcmf.budget option;
      (** Anytime cutoff handed to every batch solve.  [None] (default)
          solves each batch exactly.  When the budget fires, the partial
          flow is kept — it is an optimal routing of the units it did
          route — and the greedy leftover pass (Algorithm 1 lines 8-15)
          completes the batch into a feasible assignment; the batch is
          counted in the outcome's [degraded] and the
          [ltc_engine_degraded_total{fallback="solver-anytime"}] metric,
          separate from the engine's fallback-policy degradations. *)
}

val default_config : config

val tie_cost : n_workers:int -> Ltc_core.Worker.t -> float
(** The deterministic tie-break perturbation added to worker [w]'s arc
    costs: [5e-8 * w.index / max 1 n_workers].

    Interplay with the solver tolerance ({!Ltc_flow.Mcmf}'s
    [epsilon = 1e-9]): for the perturbation to steer the solver, the cost
    gap between two workers must exceed the reduced-cost tolerance, i.e.
    [5e-8 * (i - j) / |W| > 1e-9], which holds between {e adjacent} workers
    only while [|W| < 50].  Above that the preference still orders distant
    workers ([i - j > |W| / 50]) and keeps the objective deterministic for
    a fixed arc layout, but adjacent ties fall below epsilon and are
    resolved by path-search order instead.  The scale 5e-8 is deliberately
    tiny so that summed over a worker's capacity it can never outweigh a
    genuine accuracy difference (scores are O(1)); tests pin both bounds
    ([test_algo]'s tie-cost suite). *)

val run : ?config:config -> Ltc_core.Instance.t -> Engine.outcome
(** @raise Invalid_argument when a batch factor is not positive. *)

val run_buffered : buffer:int -> Ltc_core.Instance.t -> Engine.outcome
(** Buffered-online relaxation: Definition 7 only requires a decision "a
    short time after" each arrival, so a platform may hold a small buffer
    of [buffer] workers and solve the same min-cost-flow sub-problem per
    buffer.  [buffer = 1] is a per-worker flow greedy (close to LAF);
    [buffer >= |T| ceil(delta) / K] recovers MCF-LTC's batch regime.  The
    [ext-buffer] bench sweeps the buffer size to price the value of
    waiting.  @raise Invalid_argument when [buffer < 1]. *)
