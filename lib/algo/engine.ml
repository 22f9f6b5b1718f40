open Ltc_core

type telemetry = { degraded : int }

let no_telemetry = { degraded = 0 }

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

type config = {
  accept_rate : float option;
  rng : Ltc_util.Rng.t option;
  tracker : Ltc_util.Mem.Tracker.t option;
  degrade : degrade option;
}

let default_config =
  { accept_rate = None; rng = None; tracker = None; degrade = None }

type decision = {
  worker : int;
  assigned : int list;
  answered : int list;
  completed : bool;
  latency : int;
  degraded : bool;
}

type state = {
  instance : Instance.t;
  name : string;
  progress : Progress.t;
  tracker : Ltc_util.Mem.Tracker.t;
  decide : Worker.t -> int list;
  fallback :
    (degrade * (Worker.t -> int list) * Ltc_util.Metrics.Counter.t) option;
  site : string option;
  noshow : (Ltc_util.Rng.t * float) option;  (* generator, accept rate *)
  mutable arrangement : Arrangement.t;
  mutable consumed : int;
  mutable degraded : int;
}

let start ?(config = default_config) ?site ?progress
    ?(arrangement = Arrangement.empty) ?(consumed = 0) ~name policy instance
    =
  let noshow =
    Option.map
      (fun q ->
        check_accept_rate "Engine.run" q;
        match config.rng with
        | Some rng -> (rng, q)
        | None -> invalid_arg "Engine.run: accept_rate requires an rng")
      config.accept_rate
  in
  let progress =
    match progress with
    | Some progress -> progress
    | None ->
      Progress.create_per_task ~thresholds:(Instance.thresholds instance) ()
  in
  let tracker =
    match config.tracker with
    | Some tracker -> tracker
    | None -> Ltc_util.Mem.Tracker.create ()
  in
  Ltc_util.Mem.Tracker.set_baseline_words tracker (Progress.memory_words progress);
  let decide = policy instance tracker progress in
  (* The fallback shares the engine-owned progress/tracker, so a degraded
     arrival sees exactly the state the fallback algorithm would see had
     it been running standalone up to the same progress. *)
  let fallback =
    Option.map
      (fun d ->
        check_budget "Engine.run" d.budget_s;
        ( d,
          d.fallback instance tracker progress,
          degraded_counter name d.fallback_name ))
      config.degrade
  in
  {
    instance;
    name;
    progress;
    tracker;
    decide;
    fallback;
    site;
    noshow;
    arrangement;
    consumed;
    degraded = 0;
  }

let step ?forced st (w : Worker.t) =
  let probe () = Option.iter Ltc_util.Fault.check st.site in
  let assigned, degraded =
    match (st.fallback, forced) with
    | None, _ ->
      let tasks = st.decide w in
      if forced = None then probe ();
      (tasks, false)
    | Some (_, fallback, _), Some forced ->
      (* The primary still runs: it consumed its RNG draws in the
         original timeline. *)
      let primary = st.decide w in
      if forced then (fallback w, true) else (primary, false)
    | Some (d, fallback, _), None ->
      (* Deadline reads go through Fault.Clock so tests and the chaos
         harness can virtualise time (and inject solver slowdowns at the
         probe) deterministically. *)
      let c0 = Ltc_util.Fault.Clock.now_s () in
      let primary = st.decide w in
      probe ();
      let dt = Float.max 0.0 (Ltc_util.Fault.Clock.now_s () -. c0) in
      if dt > d.budget_s then begin
        (* The primary's answer arrived past the budget: an online
           platform has already moved on, so the cheap fallback decides
           this arrival and the stream keeps flowing. *)
        Logs.debug ~src:Ltc_util.Log.algo (fun m ->
            m "%s: arrival %d blew the %.6fs budget (%.6fs); %s decides"
              st.name w.index d.budget_s dt d.fallback_name);
        (fallback w, true)
      end
      else (primary, false)
  in
  if degraded then begin
    st.degraded <- st.degraded + 1;
    Option.iter
      (fun (_, _, m) -> Ltc_util.Metrics.Counter.incr m)
      st.fallback
  end;
  check_decisions st.instance w assigned;
  st.consumed <- st.consumed + 1;
  let answered_rev = ref [] in
  List.iter
    (fun task ->
      (* One bernoulli draw per assigned task, in assignment order; the
         paper's model answers every assignment. *)
      let answered =
        match st.noshow with
        | None -> true
        | Some (rng, q) -> Ltc_util.Rng.bernoulli rng q
      in
      if answered then begin
        Progress.record st.progress ~task
          ~score:(Instance.score st.instance w task);
        st.arrangement <- Arrangement.add st.arrangement ~worker:w.index ~task;
        answered_rev := task :: !answered_rev
      end)
    assigned;
  {
    worker = w.index;
    assigned;
    answered = List.rev !answered_rev;
    completed = Progress.all_complete st.progress;
    latency = Arrangement.latency st.arrangement;
    degraded;
  }

let top_open ~score instance progress (w : Worker.t) =
  let heap = Ltc_util.Bounded_heap.create ~k:w.capacity () in
  (* Ascending candidates and the heap's stable ties: the lower id wins. *)
  Instance.iter_candidates_sorted instance w (fun task ->
      if Progress.is_open progress task then
        Ltc_util.Bounded_heap.push heap ~score:(score task) task);
  List.map snd (Ltc_util.Bounded_heap.pop_all heap)

let progress st = st.progress
let arrangement st = st.arrangement
let consumed st = st.consumed
let degraded st = st.degraded
let peak_memory_mb st = Ltc_util.Mem.Tracker.high_water_mb st.tracker

let finish ?(telemetry = no_telemetry) st =
  {
    name = st.name;
    arrangement = st.arrangement;
    completed = Progress.all_complete st.progress;
    latency = Arrangement.latency st.arrangement;
    workers_consumed = st.consumed;
    peak_memory_mb = peak_memory_mb st;
    telemetry;
  }

let run ?(config = default_config) ~name policy instance =
  Ltc_util.Trace.with_span ("engine:" ^ name) @@ fun () ->
  let m_arrivals, m_assignments, m_decision, m_per_arrival =
    engine_metrics name
  in
  let site = Option.map (fun _ -> "engine.decide") config.degrade in
  let st = start ~config ?site ~name policy instance in
  let workers = instance.Instance.workers in
  let n = Array.length workers in
  (* Clock reads are gated on the registry switch: two gettimeofday calls
     per arrival would be measurable against sub-microsecond decisions. *)
  let timing = Ltc_util.Metrics.enabled () in
  while (not (Progress.all_complete st.progress)) && st.consumed < n do
    let w = workers.(st.consumed) in
    let d =
      if not timing then step st w
      else begin
        let t0 = Ltc_util.Timer.start () in
        let d = step st w in
        Ltc_util.Metrics.Histogram.observe m_decision
          (Ltc_util.Timer.elapsed_s t0);
        d
      end
    in
    Ltc_util.Metrics.Counter.incr m_arrivals;
    let assigned = List.length d.answered in
    Ltc_util.Metrics.Counter.add m_assignments assigned;
    Ltc_util.Metrics.Histogram.observe m_per_arrival (float_of_int assigned)
  done;
  let completed = Progress.all_complete st.progress in
  Ltc_util.Metrics.Counter.incr
    (stop_counter name (if completed then "completed" else "exhausted"));
  Logs.debug ~src:Ltc_util.Log.algo (fun m ->
      m "%s: %s after %d arrivals (latency %d, %d assignments)" name
        (if completed then "completed" else "ran out of workers")
        st.consumed
        (Arrangement.latency st.arrangement)
        (Arrangement.size st.arrangement));
  finish st ~telemetry:{ degraded = st.degraded }

let of_arrangement ~name ?workers_consumed ?tracker
    ?(telemetry = no_telemetry) instance arrangement =
  let progress =
    Progress.create_per_task ~thresholds:(Instance.thresholds instance) ()
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

let pp_outcome fmt (o : outcome) =
  Format.fprintf fmt
    "%s: latency=%d assignments=%d completed=%b consumed=%d mem=%.2fMB" o.name
    o.latency
    (Arrangement.size o.arrangement)
    o.completed o.workers_consumed o.peak_memory_mb;
  (* Only shown when something actually degraded, so the common-case line
     stays stable for scripts and cram pins. *)
  if o.telemetry.degraded > 0 then
    Format.fprintf fmt " degraded=%d" o.telemetry.degraded
