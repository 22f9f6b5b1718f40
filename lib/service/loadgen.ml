module Fault = Ltc_util.Fault
module Metrics = Ltc_util.Metrics
module Shape = Ltc_workload.Shape

type service = Fixed of float | Exponential of float
type timing = Virtual | Wall

type config = {
  shape : Shape.t;
  arrivals : int;
  service : service;
  seed : int;
  timing : timing;
  slo_s : float option;
  recorder_capacity : int;
}

let default_config ~shape =
  {
    shape;
    arrivals = 1000;
    service = Fixed 1e-4;
    seed = 0;
    timing = Virtual;
    slo_s = None;
    recorder_capacity = 4096;
  }

type shard_stats = {
  s_shard : int;
  s_arrivals : int;
  s_p50_s : float;
  s_p99_s : float;
}

type report = {
  r_shape : string;
  r_timing : string;
  r_algo : string;
  r_seed : int;
  r_offered : int;
  r_consumed : int;
  r_completed : bool;
  r_degraded : int;
  r_offered_per_s : float;
  r_achieved_per_s : float;
  r_makespan_s : float;
  r_mean_s : float;
  r_p50_s : float;
  r_p99_s : float;
  r_p999_s : float;
  r_max_s : float;
  r_slo_s : float option;
  r_breaches : int;
  r_first_breach : int option;
  r_hdr : Metrics.Hdr.t;
  r_recorder : Flight_recorder.t;
  r_shards : shard_stats array;
  r_stalls : int;
  r_restarts : int;
  r_quarantined : int;
  r_shed : int;
}

let exp_draw rng = -.log (1.0 -. Ltc_util.Rng.float rng 1.0)

let validate config ~workers ~server =
  (match config.service with
  | Fixed s ->
    if not (Float.is_finite s) || s < 0.0 then
      invalid_arg "Loadgen.run: fixed service time must be finite and >= 0"
  | Exponential m ->
    if not (Float.is_finite m) || m <= 0.0 then
      invalid_arg "Loadgen.run: exponential service mean must be > 0");
  (match config.slo_s with
  | Some s when (not (Float.is_finite s)) || s <= 0.0 ->
    invalid_arg "Loadgen.run: slo_s must be finite and > 0"
  | _ -> ());
  if config.arrivals < 1 then invalid_arg "Loadgen.run: arrivals must be >= 1";
  if Array.length workers = 0 then
    invalid_arg "Loadgen.run: no workers to offer";
  if Shard_server.consumed server <> 0 || Shard_server.resumed_at server <> 0
  then invalid_arg "Loadgen.run: server must be fresh (consumed = 0)";
  (* The virtual clock and the Delay plan are process-global and single
     domain; shard domains probing them concurrently would race.  A
     supervised server probes under each shard's fault scope, where the
     unscoped service-time delays never fire. *)
  if
    config.timing = Virtual
    && (Shard_server.mode server <> Shard_server.Inline
       || Shard_server.supervised server)
  then
    invalid_arg
      "Loadgen.run: virtual timing requires an unsupervised Inline-mode \
       server"

let publish_latency_gauges ~algo report =
  List.iter
    (fun (q, v) ->
      Metrics.Gauge.set
        (Metrics.gauge
           ~help:"loadgen corrected decision latency quantiles (s)"
           ~labels:[ ("algo", algo); ("quantile", q) ]
           "ltc_service_loadgen_latency_seconds")
        v)
    [
      ("0.5", report.r_p50_s);
      ("0.99", report.r_p99_s);
      ("0.999", report.r_p999_s);
      ("max", report.r_max_s);
    ]

let run ?on_breach ~server ~workers config =
  validate config ~workers ~server;
  let n = min config.arrivals (Array.length workers) in
  let intended = Shape.times config.shape ~seed:config.seed ~n in
  (* Service draws fork off the schedule seed so switching the service
     distribution never perturbs the arrival schedule. *)
  let service_s =
    let rng = Ltc_util.Rng.split (Ltc_util.Rng.create ~seed:config.seed) in
    Array.init n (fun _ ->
        match config.service with
        | Fixed s -> s
        | Exponential mean -> mean *. exp_draw rng)
  in
  let virtual_mode = config.timing = Virtual in
  (* The sessions probe "session.decide" exactly once per consuming
     arrival, so hit [i+1] injects the [i+1]-th consuming arrival's
     service time — through the same machinery the deadline measures,
     which is what makes synthetic degradation honest.  With several
     shards the hits follow global feed order, which drifts from arrival
     numbering once a shard completes early. *)
  if virtual_mode then begin
    Fault.Clock.set_virtual 0.0;
    Fault.arm
      (List.init n (fun i ->
           {
             Fault.site = "session.decide";
             hit = i + 1;
             action = Fault.Delay service_s.(i);
           }))
  end;
  let epoch = if virtual_mode then 0.0 else Unix.gettimeofday () in
  let now () =
    if virtual_mode then Fault.Clock.now_s ()
    else Unix.gettimeofday () -. epoch
  in
  let hdrs =
    Array.init (Shard_server.shards server) (fun _ -> Metrics.Hdr.create ())
  in
  let recorder = Flight_recorder.create ~capacity:config.recorder_capacity in
  let degraded0 = Shard_server.degraded_total server in
  let fed_at = Array.make n 0.0 in
  let fed = ref 0 in
  let completed = ref false in
  let last_done = ref 0.0 in
  let breaches = ref 0 in
  let first_breach = ref None in
  (* Corrected latency of a released decision is measured from ITS
     arrival's intended time — in [`Domains] mode a decision can surface
     several feeds later and carries the full pipeline delay. *)
  let handle done_t (d : Session.decision) =
    let g = d.Session.worker in
    let latency = Float.max 0.0 (done_t -. intended.(g - 1)) in
    let k =
      Shard_server.shard_of_point server workers.(g - 1).Ltc_core.Worker.loc
    in
    Metrics.Hdr.observe hdrs.(k) latency;
    Flight_recorder.record recorder
      {
        Flight_recorder.seq = g;
        offered_s = intended.(g - 1);
        actual_s = fed_at.(g - 1);
        done_s = done_t;
        latency_s = latency;
        assigned = List.length d.Session.assigned;
        degraded = d.Session.degraded;
        journal_bytes = Shard_server.journal_bytes server;
      };
    last_done := done_t;
    (match config.slo_s with
    | Some slo when latency > slo ->
      incr breaches;
      if !first_breach = None then begin
        first_breach := Some g;
        match on_breach with Some f -> f ~seq:g recorder | None -> ()
      end
    | _ -> ());
    if d.Session.completed then completed := true
  in
  Fun.protect
    ~finally:(fun () ->
      if virtual_mode then begin
        Fault.disarm ();
        Fault.Clock.clear ()
      end)
  @@ fun () ->
  while (not !completed) && !fed < n do
    let i = !fed in
    let t_intended = intended.(i) in
    let t_now = now () in
    (* Open loop: never feed ahead of schedule.  When the system is
       behind (t_now > t_intended) the arrival is fed immediately and its
       latency carries the queueing delay. *)
    if t_now < t_intended then
      if virtual_mode then Fault.Clock.advance (t_intended -. t_now)
      else Unix.sleepf (t_intended -. t_now);
    fed_at.(i) <- now ();
    let ds = Shard_server.feed server workers.(i) in
    incr fed;
    let done_t = now () in
    List.iter (handle done_t) ds
  done;
  let rest = Shard_server.flush server in
  let done_t = now () in
  List.iter (handle done_t) rest;
  let offered = !fed in
  let consumed = Shard_server.consumed server in
  let makespan = !last_done in
  let offered_span = if offered > 0 then intended.(offered - 1) else 0.0 in
  let per span count = if span > 0.0 then float_of_int count /. span else 0.0 in
  (* One fresh histogram over every shard's samples: the config-checked
     Hdr merge is the production aggregation path, exercised here. *)
  let merged = Metrics.Hdr.create () in
  Array.iter (fun h -> Metrics.Hdr.merge ~into:merged h) hdrs;
  let p q = Metrics.Hdr.percentile merged q in
  let report =
    {
      r_shape = Shape.to_string config.shape;
      r_timing = (if virtual_mode then "virtual" else "wall");
      r_algo = Shard_server.algorithm_name server;
      r_seed = config.seed;
      r_offered = offered;
      r_consumed = consumed;
      r_completed = !completed;
      r_degraded = Shard_server.degraded_total server - degraded0;
      r_offered_per_s = per offered_span offered;
      r_achieved_per_s = per makespan consumed;
      r_makespan_s = makespan;
      r_mean_s = Metrics.Hdr.mean merged;
      r_p50_s = p 50.0;
      r_p99_s = p 99.0;
      r_p999_s = p 99.9;
      r_max_s = Metrics.Hdr.max_observed merged;
      r_slo_s = config.slo_s;
      r_breaches = !breaches;
      r_first_breach = !first_breach;
      r_hdr = merged;
      r_recorder = recorder;
      r_shards =
        Array.mapi
          (fun k h ->
            {
              s_shard = k;
              s_arrivals = Metrics.Hdr.count h;
              s_p50_s = Metrics.Hdr.percentile h 50.0;
              s_p99_s = Metrics.Hdr.percentile h 99.0;
            })
          hdrs;
      r_stalls = Shard_server.stalls server;
      r_restarts = Shard_server.restarts server;
      r_quarantined = Shard_server.quarantined server;
      r_shed = Shard_server.shed server;
    }
  in
  publish_latency_gauges ~algo:report.r_algo report;
  report

let pp_report fmt r =
  Format.fprintf fmt "loadgen: shape=%s timing=%s algo=%s seed=%d@." r.r_shape
    r.r_timing r.r_algo r.r_seed;
  Format.fprintf fmt "  arrivals: offered=%d consumed=%d completed=%b degraded=%d@."
    r.r_offered r.r_consumed r.r_completed r.r_degraded;
  Format.fprintf fmt
    "  throughput: offered=%.6g/s achieved=%.6g/s makespan=%.6gs@."
    r.r_offered_per_s r.r_achieved_per_s r.r_makespan_s;
  Format.fprintf fmt
    "  latency: mean=%.6gs p50=%.6gs p99=%.6gs p999=%.6gs max=%.6gs@."
    r.r_mean_s r.r_p50_s r.r_p99_s r.r_p999_s r.r_max_s;
  (match r.r_slo_s with
  | None -> ()
  | Some slo ->
    Format.fprintf fmt "  slo: threshold=%.6gs breaches=%d%s@." slo
      r.r_breaches
      (match r.r_first_breach with
      | None -> ""
      | Some seq -> Printf.sprintf " first=%d" seq));
  Format.fprintf fmt "  flight recorder: %d records (capacity %d, dropped %d)@."
    (Flight_recorder.length r.r_recorder)
    (Flight_recorder.capacity r.r_recorder)
    (Flight_recorder.dropped r.r_recorder);
  if Array.length r.r_shards > 1 then begin
    Format.fprintf fmt
      "  shards: %d mailbox_stalls=%d restarts=%d quarantined=%d shed=%d@."
      (Array.length r.r_shards) r.r_stalls r.r_restarts r.r_quarantined
      r.r_shed;
    Array.iter
      (fun s ->
        Format.fprintf fmt "    shard %d: arrivals=%d p50=%.6gs p99=%.6gs@."
          s.s_shard s.s_arrivals s.s_p50_s s.s_p99_s)
      r.r_shards
  end
