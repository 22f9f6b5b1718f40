(** Truth inference: estimating historical accuracies from raw answers.

    The LTC model assumes every worker arrives with a known historical
    accuracy [p_w] (Definition 2).  On a real platform that number must be
    {e inferred} from the worker's past answers, without ground truth —
    the "Truth Inference" line of work the paper cites in Sec. VI-A.  This
    module implements the classic one-coin Dawid–Skene EM for binary tasks:

    - E-step: posterior [q_t = P(truth_t = Yes | answers, p)] from the
      current accuracy estimates;
    - M-step: [p_w] = expected fraction of [w]'s answers that agree with
      the posterior truths.

    Accuracies are clamped into [\[0.51, 0.99\]]: the one-coin likelihood is
    symmetric under flipping all labels and all accuracies below ½; anchoring
    workers as better-than-coin selects the intended mode (platforms drop
    sub-coin workers anyway — the paper's 0.66 spam rule).

    The [ext-inference] bench closes the loop: estimate accuracies from [h]
    historical answers per worker, hand the {e estimates} to the LTC
    algorithms, and measure how much task quality and latency degrade
    compared to running with the true [p_w]. *)

type observation = {
  worker : int;  (** 1-based worker index *)
  task : int;    (** 0-based task id *)
  answer : Task.answer;
}

type result = {
  accuracies : float array;
      (** estimated [p_w], indexed by [worker - 1]; workers with no
          observations keep the prior *)
  posteriors : float array;
      (** [P(truth_t = Yes)] per task; 0.5 for unobserved tasks *)
  labels : Task.answer option array;
      (** posterior argmax; [None] for unobserved tasks or exact ties *)
  iterations : int;
  converged : bool;
}

val run : n_workers:int -> n_tasks:int -> observation list -> result
(** At most 100 EM iterations, converged once no accuracy moves by 1e-6
    or more; every worker starts at accuracy 0.75.  @raise
    Invalid_argument on out-of-range observations or non-positive
    dimensions with observations present. *)

val majority_baseline :
  n_workers:int -> n_tasks:int -> observation list -> result
(** Unweighted majority voting with accuracies scored against the majority
    labels — the baseline EM should beat; same result shape
    ([iterations = 0]). *)

(** {2 Two-coin model}

    The full Dawid–Skene binary model: a worker has separate {e
    sensitivity} [alpha = P(says Yes | truth Yes)] and {e specificity}
    [beta = P(says No | truth No)].  Captures asymmetric answerers ("says
    Yes to everything") that the one-coin model averages away; LTC's [p_w]
    corresponds to the balanced accuracy [(alpha + beta) / 2]. *)

type two_coin_result = {
  sensitivities : float array;  (** alpha per worker *)
  specificities : float array;  (** beta per worker *)
  tc_accuracies : float array;  (** balanced accuracy, the LTC [p_w] *)
  tc_posteriors : float array;
  tc_labels : Task.answer option array;
  tc_iterations : int;
  tc_converged : bool;
  prevalence : float;  (** estimated P(truth = Yes) *)
}

val run_two_coin :
  n_workers:int -> n_tasks:int -> observation list -> two_coin_result
(** Same contract as {!run}; parameters are clamped into [\[0.51, 0.99\]]
    (the identifiability anchor — flipping all labels swaps
    [alpha <-> 1 - beta]). *)
