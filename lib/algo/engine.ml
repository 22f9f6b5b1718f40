open Ltc_core

type telemetry = {
  decisions : int;
  decision_seconds_total : float;
  decision_seconds_max : float;
  degraded : int;
}

let no_telemetry =
  {
    decisions = 0;
    decision_seconds_total = 0.0;
    decision_seconds_max = 0.0;
    degraded = 0;
  }

type outcome = {
  name : string;
  arrangement : Arrangement.t;
  completed : bool;
  latency : int;
  workers_consumed : int;
  peak_memory_mb : float;
  telemetry : telemetry;
}

type policy =
  Instance.t -> Ltc_util.Mem.Tracker.t -> Progress.t -> Worker.t -> int list

exception Invalid_decision of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_decision s)) fmt

let check_decisions instance (w : Worker.t) tasks =
  let n_tasks = Instance.task_count instance in
  if List.length tasks > w.capacity then
    invalid "worker %d given %d tasks, capacity %d" w.index
      (List.length tasks) w.capacity;
  let seen = Hashtbl.create 8 in
  List.iter
    (fun task ->
      if task < 0 || task >= n_tasks then
        invalid "worker %d given out-of-range task %d" w.index task;
      if Hashtbl.mem seen task then
        invalid "worker %d given task %d twice" w.index task;
      Hashtbl.add seen task ();
      match instance.Instance.candidate_radius with
      | None -> ()
      | Some radius ->
        let d =
          Ltc_geo.Point.distance w.loc instance.Instance.tasks.(task).Task.loc
        in
        if d > radius +. 1e-9 then
          invalid "worker %d given non-candidate task %d (distance %.3f > %g)"
            w.index task d radius)
    tasks

(* Per-algorithm engine metrics; registration is a hashtable lookup, done
   once per run, and every mutation below is a no-op while disabled. *)
let engine_metrics name =
  let labels = [ ("algo", name) ] in
  ( Ltc_util.Metrics.counter ~help:"worker arrivals processed" ~labels
      "ltc_engine_arrivals_total",
    Ltc_util.Metrics.counter ~help:"assignments recorded" ~labels
      "ltc_engine_assignments_total",
    Ltc_util.Metrics.histogram ~help:"per-arrival decision latency (s)"
      ~labels "ltc_engine_decision_seconds",
    Ltc_util.Metrics.histogram ~help:"tasks assigned per arriving worker"
      ~buckets:[| 0.0; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 |]
      ~labels "ltc_engine_assignments_per_arrival" )

let stop_counter name reason =
  Ltc_util.Metrics.counter ~help:"engine stop-rule firings by reason"
    ~labels:[ ("algo", name); ("reason", reason) ]
    "ltc_engine_stops_total"

type degrade = {
  budget_s : float;
  fallback_name : string;
  fallback : policy;
}

(* Written so that NaN fails them: a NaN rate or a NaN/infinite budget
   would otherwise run, and be written into a journal header no restore
   can read back. *)
let check_accept_rate fn q =
  if not (q > 0.0 && q <= 1.0) then
    invalid_arg (fn ^ ": accept_rate must be in (0, 1]")

let check_budget fn budget_s =
  if not (budget_s > 0.0 && budget_s < infinity) then
    invalid_arg (fn ^ ": deadline budget must be finite and > 0")

let degraded_counter name fallback_name =
  Ltc_util.Metrics.counter
    ~help:"arrivals decided by the fallback after a deadline miss"
    ~labels:[ ("algo", name); ("fallback", fallback_name) ]
    "ltc_engine_degraded_total"

(* Shared driver: [answered w task] decides whether an assignment actually
   produces an answer (always true in the paper's model). *)
let drive ~name ~answered ?tracker ?degrade policy instance =
  Ltc_util.Trace.with_span ("engine:" ^ name) @@ fun () ->
  let m_arrivals, m_assignments, m_decision, m_per_arrival =
    engine_metrics name
  in
  let progress =
    Progress.create_per_task ~thresholds:(Instance.thresholds instance)
  in
  let tracker =
    match tracker with
    | Some tracker -> tracker
    | None -> Ltc_util.Mem.Tracker.create ()
  in
  Ltc_util.Mem.Tracker.set_baseline_words tracker (Progress.memory_words progress);
  let decide = policy instance tracker progress in
  (* The deadline machinery is instantiated once per run: the fallback
     policy shares the engine-owned progress/tracker, so a degraded
     arrival sees exactly the state the fallback algorithm would see had
     it been running standalone up to the same progress. *)
  let degrade =
    Option.map
      (fun d ->
        check_budget "Engine.run" d.budget_s;
        (d, d.fallback instance tracker progress,
         degraded_counter name d.fallback_name))
      degrade
  in
  let arrangement = ref Arrangement.empty in
  let consumed = ref 0 in
  let workers = instance.Instance.workers in
  let n = Array.length workers in
  (* Clock reads are gated on the registry switch: two gettimeofday calls
     per arrival would be measurable against sub-microsecond decisions.
     A configured deadline needs the clock unconditionally — but then the
     caller opted into per-arrival measurement anyway.  Deadline reads go
     through Fault.Clock so tests and the chaos harness can virtualise
     time (and inject solver slowdowns) deterministically. *)
  let timing = Ltc_util.Metrics.enabled () in
  let decisions = ref 0 in
  let dt_total = ref 0.0 in
  let dt_max = ref 0.0 in
  let n_degraded = ref 0 in
  let observe dt =
    if timing then begin
      dt_total := !dt_total +. dt;
      if dt > !dt_max then dt_max := dt;
      Ltc_util.Metrics.Histogram.observe m_decision dt
    end
  in
  let i = ref 0 in
  while (not (Progress.all_complete progress)) && !i < n do
    let w = workers.(!i) in
    incr i;
    incr consumed;
    incr decisions;
    let tasks =
      match degrade with
      | None ->
        if not timing then decide w
        else begin
          let t0 = Ltc_util.Timer.start () in
          let tasks = decide w in
          observe (Ltc_util.Timer.elapsed_s t0);
          tasks
        end
      | Some (d, fallback_decide, m_degraded) ->
        let t0 = Ltc_util.Fault.Clock.now_s () in
        let tasks = decide w in
        Ltc_util.Fault.check "engine.decide";
        let dt = Float.max 0.0 (Ltc_util.Fault.Clock.now_s () -. t0) in
        observe dt;
        if dt > d.budget_s then begin
          (* The primary's answer arrived past the budget: an online
             platform has already moved on, so the cheap fallback decides
             this arrival and the stream keeps flowing. *)
          incr n_degraded;
          Ltc_util.Metrics.Counter.incr m_degraded;
          Logs.debug ~src:Ltc_util.Log.algo (fun m ->
              m "%s: arrival %d blew the %.6fs budget (%.6fs); %s decides"
                name w.Worker.index d.budget_s dt d.fallback_name);
          fallback_decide w
        end
        else tasks
    in
    Ltc_util.Metrics.Counter.incr m_arrivals;
    check_decisions instance w tasks;
    let assigned = ref 0 in
    List.iter
      (fun task ->
        if answered w task then begin
          let score = Instance.score instance w task in
          Progress.record progress ~task ~score;
          arrangement := Arrangement.add !arrangement ~worker:w.index ~task;
          incr assigned
        end)
      tasks;
    Ltc_util.Metrics.Counter.add m_assignments !assigned;
    Ltc_util.Metrics.Histogram.observe m_per_arrival (float_of_int !assigned)
  done;
  let completed = Progress.all_complete progress in
  Ltc_util.Metrics.Counter.incr
    (stop_counter name (if completed then "completed" else "exhausted"));
  Logs.debug ~src:Ltc_util.Log.algo (fun m ->
      m "%s: %s after %d arrivals (latency %d, %d assignments)" name
        (if completed then "completed" else "ran out of workers")
        !consumed
        (Arrangement.latency !arrangement)
        (Arrangement.size !arrangement));
  Logs.debug ~src:Ltc_util.Log.obs (fun m ->
      m "%s: %d decisions, %.6f s total, %.6f s max" name !decisions !dt_total
        !dt_max);
  {
    name;
    arrangement = !arrangement;
    completed;
    latency = Arrangement.latency !arrangement;
    workers_consumed = !consumed;
    peak_memory_mb = Ltc_util.Mem.Tracker.high_water_mb tracker;
    telemetry =
      {
        decisions = !decisions;
        decision_seconds_total = !dt_total;
        decision_seconds_max = !dt_max;
        degraded = !n_degraded;
      };
  }

type config = {
  accept_rate : float option;
  rng : Ltc_util.Rng.t option;
  tracker : Ltc_util.Mem.Tracker.t option;
  degrade : degrade option;
}

let default_config =
  { accept_rate = None; rng = None; tracker = None; degrade = None }

(* Shared with the streaming service (Ltc_service.Session), which applies
   the same answer-gating per fed arrival: one bernoulli draw per assigned
   task, in assignment order. *)
let answered_of ~accept_rate ~rng =
  match accept_rate with
  | None -> fun _ _ -> true
  | Some q ->
    check_accept_rate "Engine.run" q;
    (match rng with
    | None -> invalid_arg "Engine.run: accept_rate requires an rng"
    | Some rng -> fun _ _ -> Ltc_util.Rng.bernoulli rng q)

let run ?(config = default_config) ~name policy instance =
  drive ~name
    ~answered:(answered_of ~accept_rate:config.accept_rate ~rng:config.rng)
    ?tracker:config.tracker ?degrade:config.degrade policy instance

let of_arrangement ~name ?workers_consumed ?tracker
    ?(telemetry = no_telemetry) instance arrangement =
  let progress =
    Progress.create_per_task ~thresholds:(Instance.thresholds instance)
  in
  List.iter
    (fun (a : Arrangement.assignment) ->
      let w = instance.Instance.workers.(a.worker - 1) in
      Progress.record progress ~task:a.task
        ~score:(Instance.score instance w a.task))
    (Arrangement.to_list arrangement);
  let latency = Arrangement.latency arrangement in
  {
    name;
    arrangement;
    completed = Progress.all_complete progress;
    latency;
    workers_consumed = Option.value workers_consumed ~default:latency;
    peak_memory_mb =
      (match tracker with
      | None -> 0.0
      | Some tr -> Ltc_util.Mem.Tracker.high_water_mb tr);
    telemetry;
  }

let pp_outcome fmt o =
  Format.fprintf fmt
    "%s: latency=%d assignments=%d completed=%b consumed=%d mem=%.2fMB" o.name
    o.latency
    (Arrangement.size o.arrangement)
    o.completed o.workers_consumed o.peak_memory_mb;
  (* Only shown when something actually degraded, so the common-case line
     stays stable for scripts and cram pins. *)
  if o.telemetry.degraded > 0 then
    Format.fprintf fmt " degraded=%d" o.telemetry.degraded
