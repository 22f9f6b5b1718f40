(** Exact optimum by branch-and-bound — for micro instances only.

    Offline LTC is NP-hard (Theorem 1), so this solver is exponential; it
    exists to anchor the tests (Example 1's optimum of 5) and the
    [ablation-approx] bench, which measures MCF-LTC's empirical
    approximation ratio and the online algorithms' empirical competitive
    ratios against the true optimum on small random instances.

    Search: binary search on the latency [L] over a monotone feasibility
    test.  Feasibility of [L] is decided by depth-first search over workers
    [1..L]; since scores are non-negative, assigning {e more} tasks never
    hurts feasibility, so only maximal candidate subsets are enumerated.
    Infeasible prefixes are pruned with per-task suffix bounds (the best
    score every future worker could still contribute). *)

exception Budget_exceeded
(** Raised when one feasibility test visits more than 5 000 000 DFS
    nodes; shrink the instance. *)

val feasible_with : Ltc_core.Instance.t -> int -> Ltc_core.Arrangement.t option
(** [feasible_with instance l] completes all tasks using only workers
    [1..l], or returns [None]. *)

val solve : Ltc_core.Instance.t ->
  (int * Ltc_core.Arrangement.t) option
(** Minimum latency and a witnessing arrangement; [None] when even the full
    worker set cannot complete the tasks. *)
