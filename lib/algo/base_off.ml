open Ltc_core

let name = "Base-off"

(* Precomputed per task: ascending arrival indexes of its nearby workers,
   with a cursor marking how many have already arrived.  [remaining] is then
   an O(1) pointer difference (amortising the cursor advance over the run). *)
type future = {
  arrivals : int array array;  (* arrivals.(task): sorted worker indexes *)
  cursor : int array;
}

let build_future instance =
  let n_tasks = Instance.task_count instance in
  let buckets = Array.make (max n_tasks 1) [] in
  Array.iter
    (fun (w : Worker.t) ->
      Instance.iter_candidates instance w (fun task ->
          buckets.(task) <- w.index :: buckets.(task)))
    instance.Instance.workers;
  {
    (* Workers were scanned in arrival order, so reversing each bucket
       yields ascending indexes without sorting. *)
    arrivals = Array.map (fun b -> Array.of_list (List.rev b)) buckets;
    cursor = Array.make (max n_tasks 1) 0;
  }

let remaining_nearby future ~task ~arrived_index =
  let arr = future.arrivals.(task) in
  let len = Array.length arr in
  while future.cursor.(task) < len && arr.(future.cursor.(task)) <= arrived_index do
    future.cursor.(task) <- future.cursor.(task) + 1
  done;
  len - future.cursor.(task)

let future_words future =
  Array.fold_left
    (fun acc arr -> acc + Array.length arr + 1)
    (Array.length future.cursor)
    future.arrivals

let policy instance tracker progress =
  let future = build_future instance in
  Ltc_util.Mem.Tracker.add_words tracker (future_words future);
  fun (w : Worker.t) ->
    (* Scarcest-first: fewer future helpers = higher priority. *)
    Engine.top_open instance progress w ~score:(fun task ->
        -.float_of_int (remaining_nearby future ~task ~arrived_index:w.index))

let run instance = Engine.run ~name policy instance
