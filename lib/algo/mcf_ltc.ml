open Ltc_core

let name = "MCF-LTC"

type config = {
  first_batch_factor : float;
  batch_factor : float;
  budget : Ltc_flow.Mcmf.budget option;
}

let default_config =
  { first_batch_factor = 1.5; batch_factor = 1.0; budget = None }

let m_batches =
  Ltc_util.Metrics.counter ~help:"MCF-LTC batches solved"
    "ltc_mcf_batches_total"

let m_batch_workers =
  Ltc_util.Metrics.histogram ~help:"workers per MCF-LTC batch"
    ~buckets:[| 1.0; 4.0; 16.0; 64.0; 256.0; 1024.0; 4096.0; 16384.0 |]
    "ltc_mcf_batch_workers"

let m_batch_seconds =
  Ltc_util.Metrics.histogram ~help:"wall time per MCF-LTC batch solve (s)"
    "ltc_mcf_batch_seconds"

(* Deterministic preference for earlier workers among cost ties; see .mli. *)
let tie_cost ~n_workers (w : Worker.t) =
  5e-8 *. float_of_int w.index /. float_of_int (max 1 n_workers)

(* Per-run scratch shared by every batch of one [run_batches] call: the
   flow arena ([Graph.clear]ed per batch), one reused solver workspace and
   the task-indexed maps that replace the per-batch hashtables.
   Everything here is allocated once (or grows monotonically); after the
   first batch the hot path allocates only the per-worker assignment
   lists. *)
type scratch = {
  graph : Ltc_flow.Graph.t;
  workspace : Ltc_flow.Mcmf.workspace;
  node_of : int array;             (* task -> flow node, valid iff stamped *)
  node_stamp : int array;
  mark : int array;                (* task -> epoch of per-worker marks *)
  task_ids : int array;            (* prefix [0, n_inc): incomplete ids *)
  (* Worker->task arcs as parallel growable arrays (was a cons list). *)
  mutable wt_arc : int array;
  mutable wt_bi : int array;
  mutable wt_task : int array;
  mutable wt_score : float array;
  mutable wt_len : int;
  topk : Ltc_util.Bounded_heap.t;  (* the leftover pass's top-K *)
  mutable epoch : int;             (* stamp source for node_stamp / mark *)
  mutable accounted : int;         (* arena words currently charged *)
  (* Anytime accounting: batches whose solver budget fired. *)
  m_degraded : Ltc_util.Metrics.Counter.t;
  mutable degraded_batches : int;
}

let create_scratch ~name ~n_tasks =
  let n = max n_tasks 1 in
  {
    graph = Ltc_flow.Graph.create ~n:1;
    workspace = Ltc_flow.Mcmf.create_workspace ~hint:(n + 2) ();
    node_of = Array.make n (-1);
    node_stamp = Array.make n 0;
    mark = Array.make n 0;
    task_ids = Array.make n 0;
    wt_arc = Array.make 16 0;
    wt_bi = Array.make 16 0;
    wt_task = Array.make 16 0;
    wt_score = Array.make 16 0.0;
    wt_len = 0;
    topk = Ltc_util.Bounded_heap.create ();
    epoch = 0;
    accounted = 0;
    m_degraded = Engine.degraded_counter name "solver-anytime";
    degraded_batches = 0;
  }

let push_wt scratch ~arc ~bi ~task ~score =
  let len = scratch.wt_len in
  if len = Array.length scratch.wt_arc then begin
    let cap = 2 * len in
    let grow_i a = let b = Array.make cap 0 in Array.blit a 0 b 0 len; b in
    scratch.wt_arc <- grow_i scratch.wt_arc;
    scratch.wt_bi <- grow_i scratch.wt_bi;
    scratch.wt_task <- grow_i scratch.wt_task;
    let b = Array.make cap 0.0 in
    Array.blit scratch.wt_score 0 b 0 len;
    scratch.wt_score <- b
  end;
  scratch.wt_arc.(len) <- arc;
  scratch.wt_bi.(len) <- bi;
  scratch.wt_task.(len) <- task;
  scratch.wt_score.(len) <- score;
  scratch.wt_len <- len + 1

(* Solve one batch: build the flow network over incomplete tasks in the
   reused arena, solve it — optionally under an anytime budget — record the
   resulting assignments, then greedily spend leftover capacity.  When the
   budget fires mid-solve the partial flow is extracted as-is and the
   leftover pass below doubles as the greedy completion: every un-routed
   unit of worker capacity is spent on the most reliable unfinished tasks,
   so the batch always yields a feasible assignment.  Returns the updated
   arrangement. *)
let solve_batch instance tracker progress arrangement ~budget scratch batch =
  Ltc_util.Trace.with_span "mcf-ltc.batch" @@ fun () ->
  let t_batch = Ltc_util.Timer.start () in
  let n_workers = Instance.worker_count instance in
  let n_batch = Array.length batch in
  (* Incomplete tasks get contiguous node ids after the worker nodes.
     [Progress.iter_incomplete] enumerates ascending task ids, so the
     numbering — and with it the arc layout and solver tie-breaking — is
     deterministic. *)
  let task_ids = scratch.task_ids in
  let n_inc = Progress.incomplete_count progress in
  let fill = ref 0 in
  Progress.iter_incomplete progress (fun task ->
      task_ids.(!fill) <- task;
      incr fill);
  assert (!fill = n_inc);
  scratch.epoch <- scratch.epoch + 1;
  let batch_ep = scratch.epoch in
  for i = 0 to n_inc - 1 do
    let task = task_ids.(i) in
    scratch.node_of.(task) <- 1 + n_batch + i;
    scratch.node_stamp.(task) <- batch_ep
  done;
  let g = scratch.graph in
  let source = 0 in
  let sink = 1 + n_batch + n_inc in
  Ltc_flow.Graph.clear g ~n:(sink + 1);
  Array.iteri
    (fun bi (w : Worker.t) ->
      ignore
        (Ltc_flow.Graph.add_arc g ~src:source ~dst:(1 + bi) ~cap:w.capacity
           ~cost:0.0))
    batch;
  (* Worker->task arcs; each entry remembers (batch slot, task, score) per
     arc so the extraction below never recomputes Instance.score — each
     (worker, task) score is evaluated exactly once per batch. *)
  scratch.wt_len <- 0;
  Array.iteri
    (fun bi (w : Worker.t) ->
      Instance.iter_candidates instance w (fun task ->
          if scratch.node_stamp.(task) = batch_ep then begin
            let node = scratch.node_of.(task) in
            let score = Instance.score instance w task in
            let cost = -.score +. tie_cost ~n_workers w in
            let arc =
              Ltc_flow.Graph.add_arc g ~src:(1 + bi) ~dst:node ~cap:1 ~cost
            in
            push_wt scratch ~arc ~bi ~task ~score
          end))
    batch;
  for i = 0 to n_inc - 1 do
    let task = task_ids.(i) in
    let cap = int_of_float (Float.ceil (Progress.remaining progress task)) in
    ignore
      (Ltc_flow.Graph.add_arc g ~src:(1 + n_batch + i) ~dst:sink
         ~cap:(max cap 1) ~cost:0.0)
  done;
  (* Charge the tracker for arena growth only: the high-water mark counts
     the reservation once per run, not once per batch. *)
  let now =
    Ltc_flow.Graph.memory_words g + (8 * Ltc_flow.Graph.node_count g)
  in
  if now > scratch.accounted then begin
    Ltc_util.Mem.Tracker.add_words tracker (now - scratch.accounted);
    scratch.accounted <- now
  end;
  let flow_result =
    Ltc_util.Trace.with_span "mcmf.solve" (fun () ->
        Ltc_flow.Mcmf.run g ~workspace:scratch.workspace ?budget ~source
          ~sink)
  in
  (* A fired anytime budget is a degradation *inside* the solver: the
     partial flow is kept and the greedy pass below completes the batch.
     Counted per batch, separately from the engine's fallback-policy
     degradations (same metric family, distinct fallback label). *)
  if flow_result.Ltc_flow.Mcmf.exhausted then begin
    scratch.degraded_batches <- scratch.degraded_batches + 1;
    Ltc_util.Metrics.Counter.incr scratch.m_degraded;
    Logs.debug ~src:Ltc_util.Log.algo (fun m ->
        m "MCF-LTC batch: solver budget exhausted after %d rounds; greedy \
           completion takes over"
          flow_result.Ltc_flow.Mcmf.rounds)
  end;
  Logs.debug ~src:Ltc_util.Log.algo (fun m ->
      m "MCF-LTC batch: %d workers, %d open tasks, %d links -> flow %d, cost %.3f (%d rounds)"
        n_batch n_inc scratch.wt_len
        flow_result.Ltc_flow.Mcmf.flow flow_result.Ltc_flow.Mcmf.cost
        flow_result.Ltc_flow.Mcmf.rounds);
  (* Extract the arrangement M' of this batch, per worker. *)
  let assigned = Array.make n_batch 0 in
  let per_worker = Array.make n_batch [] in
  for k = 0 to scratch.wt_len - 1 do
    if Ltc_flow.Graph.flow g scratch.wt_arc.(k) = 1 then begin
      let bi = scratch.wt_bi.(k) in
      per_worker.(bi) <-
        (scratch.wt_task.(k), scratch.wt_score.(k)) :: per_worker.(bi);
      assigned.(bi) <- assigned.(bi) + 1
    end
  done;
  let arrangement = ref arrangement in
  Array.iteri
    (fun bi (w : Worker.t) ->
      List.iter
        (fun (task, score) ->
          Progress.record progress ~task ~score;
          arrangement := Arrangement.add !arrangement ~worker:w.index ~task)
        (List.sort compare per_worker.(bi)))
    batch;
  (* Lines 8-15: leftover capacity goes to the most reliable unfinished
     tasks this worker has not performed in this batch. *)
  Array.iteri
    (fun bi (w : Worker.t) ->
      let leftover = w.capacity - assigned.(bi) in
      if leftover > 0 && not (Progress.all_complete progress) then begin
        scratch.epoch <- scratch.epoch + 1;
        let ep = scratch.epoch in
        List.iter (fun (task, _) -> scratch.mark.(task) <- ep) per_worker.(bi);
        let heap = scratch.topk in
        Ltc_util.Bounded_heap.start heap ~k:leftover;
        (* No task is held here, so the open candidates are the
           incomplete ones. *)
        let c = Instance.candidates () in
        let base = Instance.push_open instance c progress w ~scores:true in
        let n = ref base in
        for k = base to c.top - 1 do
          if scratch.mark.(c.ids.(k)) <> ep then begin
            c.ids.(!n) <- c.ids.(k);
            c.scores.(!n) <- c.scores.(k);
            incr n
          end
        done;
        Ltc_util.Bounded_heap.push heap c.scores c.ids base !n;
        Instance.pop_candidates c base;
        List.iter
          (fun task ->
            Progress.record progress ~task
              ~score:(Instance.score instance w task);
            arrangement := Arrangement.add !arrangement ~worker:w.index ~task)
          (Ltc_util.Bounded_heap.pop_all heap)
      end)
    batch;
  Ltc_util.Metrics.Counter.incr m_batches;
  Ltc_util.Metrics.Histogram.observe m_batch_workers (float_of_int n_batch);
  Ltc_util.Metrics.Histogram.observe m_batch_seconds
    (Ltc_util.Timer.elapsed_s t_batch);
  !arrangement

(* Shared batch loop: [batch_size ~first] gives each batch's width. *)
let run_batches ~name ~batch_size ?budget instance =
  Ltc_util.Trace.with_span ("engine:" ^ name) @@ fun () ->
  let n_tasks = Instance.task_count instance in
  let workers = instance.Instance.workers in
  let n_workers = Array.length workers in
  let tracker = Ltc_util.Mem.Tracker.create () in
  if n_tasks = 0 || n_workers = 0 then
    Engine.of_arrangement ~name ~workers_consumed:0 ~tracker instance
      Arrangement.empty
  else begin
    let progress =
      Progress.create_per_task ~thresholds:(Instance.thresholds instance) ()
    in
    Ltc_util.Mem.Tracker.set_baseline_words tracker
      (Progress.memory_words progress);
    let scratch = create_scratch ~name ~n_tasks in
    let arrangement = ref Arrangement.empty in
    let cursor = ref 0 in
    let first = ref true in
    while (not (Progress.all_complete progress)) && !cursor < n_workers do
      let size = min (batch_size ~first:!first) (n_workers - !cursor) in
      first := false;
      let batch = Array.sub workers !cursor size in
      cursor := !cursor + size;
      arrangement :=
        solve_batch instance tracker progress !arrangement ~budget scratch
          batch
    done;
    Ltc_util.Mem.Tracker.remove_words tracker scratch.accounted;
    {
      (Engine.of_arrangement ~name ~workers_consumed:!cursor ~tracker instance
         !arrangement)
      with
      Engine.degraded = scratch.degraded_batches;
    }
  end

(* Theorem-2 batch width m = |T| ceil(delta) / K, using the strictest
   per-task threshold (conservative: larger batches only add choice). *)
let theorem2_m instance =
  let n_tasks = Instance.task_count instance in
  let workers = instance.Instance.workers in
  let k = if Array.length workers = 0 then 1 else workers.(0).Worker.capacity in
  let delta =
    Array.fold_left Float.max (Instance.threshold instance)
      (Instance.thresholds instance)
  in
  float_of_int n_tasks *. Float.ceil delta /. float_of_int k

let run ?(config = default_config) instance =
  if config.first_batch_factor <= 0.0 || config.batch_factor <= 0.0 then
    invalid_arg "Mcf_ltc.run: batch factors must be positive";
  let m = theorem2_m instance in
  let batch_size ~first =
    let factor =
      if first then config.first_batch_factor else config.batch_factor
    in
    max 1 (int_of_float (factor *. m))
  in
  run_batches ~name ~batch_size ?budget:config.budget instance

let run_buffered ~buffer instance =
  if buffer < 1 then invalid_arg "Mcf_ltc.run_buffered: buffer must be >= 1";
  run_batches
    ~name:(Printf.sprintf "Buffered(%d)" buffer)
    ~batch_size:(fun ~first:_ -> buffer)
    instance
