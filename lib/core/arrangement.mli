(** Task-worker arrangements [M] and their validation.

    An arrangement is the output of every LTC algorithm: the ordered list of
    irrevocable [(worker, task)] assignments.  {!latency} is the paper's
    objective [MinMax(M) = max_t max_{w in W_t} o_w] — the arrival index of
    the last recruited worker. *)

type assignment = { worker : int; task : int }
(** [worker] is the 1-based arrival index, [task] the 0-based task id. *)

type t

val empty : t

val add : t -> worker:int -> task:int -> t
(** Appends an assignment (persistent; O(1)). *)

val size : t -> int
(** Total number of assignments. *)

val latency : t -> int
(** Max worker arrival index over all assignments; [0] when empty. *)

val to_list : t -> assignment list
(** Assignments in insertion order. *)

val to_rev_list : t -> assignment list
(** Assignments newest first: the arrangement's own list, in O(1). *)

val tasks_of_worker : t -> int -> int list
(** Ascending task ids assigned to a worker. O(size). *)

val workers_of_task : t -> int -> int list
(** Ascending worker indexes assigned to a task. O(size). *)

type violation =
  | Worker_out_of_range of assignment
  | Task_out_of_range of assignment
  | Duplicate_assignment of assignment
  | Capacity_exceeded of { worker : int; assigned : int; capacity : int }
  | Not_a_candidate of assignment
      (** the task is outside the worker's candidate radius *)
  | Task_incomplete of { task : int; accumulated : float; threshold : float }

val validate : Instance.t -> t -> (unit, violation list) result
(** Checks every constraint of Definition 6: well-formedness, the capacity
    constraint, the candidate rule and the error-rate (completion)
    constraint.  An arrangement returned by any algorithm in {!Ltc_algo}
    must validate whenever enough workers were supplied. *)

val pp_violation : Format.formatter -> violation -> unit
val pp : Format.formatter -> t -> unit
