(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. V) plus the ablations of DESIGN.md §4.

     dune exec bench/main.exe                 # everything, default scales
     dune exec bench/main.exe -- --list       # experiment catalogue
     dune exec bench/main.exe -- fig3-T fig4-eps --scale 1 --reps 30
     dune exec bench/main.exe -- micro        # bechamel micro benches

   Scales shrink workloads density-preservingly (1.0 = the paper's exact
   cardinalities); shapes are preserved, absolute numbers are not. *)

open Ltc_experiments

(* Per-figure wall time and throughput, reported by --json. *)
type figure_stat = {
  j_id : string;
  j_scale : float;
  j_reps : int;
  j_jobs : int;
  j_seed : int;
  j_wall_s : float;
  j_runs : int;  (** algorithm executions (Runner.runs_executed delta) *)
}

(* --json entries: (key, rendered JSON object body) pairs, so figure stats
   and standalone benches (flow-batch-reuse) share one writer. *)
let render_figure_stat s =
  let rps =
    if s.j_wall_s > 0.0 then float_of_int s.j_runs /. s.j_wall_s else 0.0
  in
  ( Printf.sprintf "BENCH_%s" s.j_id,
    Printf.sprintf
      "{\"id\": %S, \"scale\": %g, \"reps\": %d, \"jobs\": %d, \"seed\": %d, \
       \"wall_s\": %.6f, \"runs\": %d, \"runs_per_sec\": %.3f}"
      s.j_id s.j_scale s.j_reps s.j_jobs s.j_seed s.j_wall_s s.j_runs rps )

let write_json ~path entries =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  List.iteri
    (fun i (key, body) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (Printf.sprintf "  %S: %s" key body))
    entries;
  Buffer.add_string b "\n}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc b)

let run_figure ~jobs ~scale ~reps ~seed ~csv ~plot (e : Figures.t) =
  let scale = Option.value scale ~default:e.Figures.default_scale in
  Printf.printf "### %s — %s\n" e.Figures.id e.Figures.panels;
  Printf.printf "    %s\n" e.Figures.description;
  Printf.printf "    scale=%g reps=%d seed=%d jobs=%d\n\n%!" scale reps seed
    jobs;
  let runs_before = Runner.runs_executed () in
  let outputs, dt =
    Ltc_util.Timer.time (fun () -> e.Figures.run ~jobs ~scale ~reps ~seed)
  in
  let runs = Runner.runs_executed () - runs_before in
  List.iter
    (fun o ->
      Runner.print o;
      if plot then
        Option.iter (fun p -> print_newline (); print_string p) (Runner.to_plot o);
      (match csv with
      | None -> ()
      | Some dir ->
        let path = Runner.write_csv ~dir o in
        Printf.printf "(csv: %s)\n" path);
      print_newline ())
    outputs;
  Printf.printf "(%s finished in %.1f s)\n\n%!" e.Figures.id dt;
  {
    j_id = e.Figures.id;
    j_scale = scale;
    j_reps = reps;
    j_jobs = jobs;
    j_seed = seed;
    j_wall_s = dt;
    j_runs = runs;
  }

(* ------------------------------------------------- flow batch-reuse bench *)

(* Contrast the {!Ltc_flow} hot-path regimes on one identical batch
   sequence (the buffered-MCF shape: arriving workers against thousands of
   open tasks):

     cold         fresh graph + fresh workspace + Bellman-Ford per batch
                  (the pre-arena behaviour)
     reuse        one arena + one workspace, Bellman-Ford per batch (what
                  MCF-LTC's default backend does)
     incremental  one {!Ltc_flow.Solver} session: the task plane, its
                  residuals and potentials stay alive across batches; each
                  batch stacks its workers and links on top, resolves with
                  kept potentials and retracts — consumed task units are
                  re-armed through [set_unit], so every variant faces the
                  identical problem sequence

   Two shapes: the PR-5 trickle (8 workers/batch, where per-batch setup
   dominates the tiny flow) and a ~100x batch (800 workers/batch, where
   the solve dominates).  All variants solve problem-identical networks;
   the checksum asserts they agree (exactly for reuse, within float
   tolerance for the incremental session, whose different node layout may
   resolve sub-epsilon ties differently). *)
let flow_batch_id = "flow-batch-reuse"

type flow_shape_stat = {
  fb_batches : int;
  fb_nodes : int;
  fb_arcs : int;
  fb_flow : int;
  fb_cold_s : float;
  fb_reuse_s : float;
  fb_inc_s : float;
  fb_checksum_ok : bool;
}

let flow_batch_shape ~label ~n_tasks ~batch_workers ~degree ~batches ~reps =
  let capacity = 1 in
  let source = 0 in
  let first_task = 1 + batch_workers in
  let sink = first_task + n_tasks in
  let nodes = sink + 1 in
  let arcs = batch_workers + (batch_workers * degree) + n_tasks in
  (* Every variant rebuilds the identical arc sequence for batch [b]. *)
  let build g b =
    let rng = Ltc_util.Rng.create ~seed:(1000 + b) in
    for w = 0 to batch_workers - 1 do
      ignore
        (Ltc_flow.Graph.add_arc g ~src:source ~dst:(1 + w) ~cap:capacity
           ~cost:0.0)
    done;
    for w = 0 to batch_workers - 1 do
      for _ = 1 to degree do
        let t = Ltc_util.Rng.int rng n_tasks in
        ignore
          (Ltc_flow.Graph.add_arc g ~src:(1 + w) ~dst:(first_task + t) ~cap:1
             ~cost:(-.Ltc_util.Rng.float rng 1.0))
      done
    done;
    for t = 0 to n_tasks - 1 do
      ignore
        (Ltc_flow.Graph.add_arc g ~src:(first_task + t) ~dst:sink ~cap:1
           ~cost:0.0)
    done
  in
  let cold () =
    let flow = ref 0 and cost = ref 0.0 in
    for b = 0 to batches - 1 do
      let g = Ltc_flow.Graph.create ~n:nodes in
      build g b;
      let r = Ltc_flow.Mcmf.run g ~source ~sink in
      flow := !flow + r.Ltc_flow.Mcmf.flow;
      cost := !cost +. r.Ltc_flow.Mcmf.cost
    done;
    (!flow, !cost)
  in
  let reuse () =
    let g = Ltc_flow.Graph.create ~n:1 in
    let ws = Ltc_flow.Mcmf.create_workspace () in
    let flow = ref 0 and cost = ref 0.0 in
    for b = 0 to batches - 1 do
      Ltc_flow.Graph.clear g ~n:nodes;
      build g b;
      let r = Ltc_flow.Mcmf.run g ~workspace:ws ~source ~sink in
      flow := !flow + r.Ltc_flow.Mcmf.flow;
      cost := !cost +. r.Ltc_flow.Mcmf.cost
    done;
    (!flow, !cost)
  in
  let incremental () =
    let sol = Ltc_flow.Solver.create ~hint:(n_tasks + 2) () in
    for t = 0 to n_tasks - 1 do
      Ltc_flow.Solver.set_unit sol ~unit_id:t ~cap:1
    done;
    let touched = Array.make n_tasks false in
    let max_links = batch_workers * degree in
    let links = Array.make max_links 0 in
    let ltask = Array.make max_links 0 in
    let flow = ref 0 and cost = ref 0.0 in
    for b = 0 to batches - 1 do
      (* Same RNG stream as [build]: identical link targets and costs. *)
      let rng = Ltc_util.Rng.create ~seed:(1000 + b) in
      Ltc_flow.Solver.begin_batch sol;
      for _ = 1 to batch_workers do
        ignore (Ltc_flow.Solver.add_worker sol ~cap:capacity : int)
      done;
      let nl = ref 0 in
      for w = 0 to batch_workers - 1 do
        for _ = 1 to degree do
          let t = Ltc_util.Rng.int rng n_tasks in
          let c = -.Ltc_util.Rng.float rng 1.0 in
          links.(!nl) <-
            Ltc_flow.Solver.add_link sol ~worker:w ~unit_id:t ~cost:c;
          ltask.(!nl) <- t;
          incr nl
        done
      done;
      let r = Ltc_flow.Solver.resolve sol () in
      flow := !flow + r.Ltc_flow.Mcmf.flow;
      cost := !cost +. r.Ltc_flow.Mcmf.cost;
      for k = 0 to !nl - 1 do
        if Ltc_flow.Solver.link_flow sol links.(k) = 1 then
          touched.(ltask.(k)) <- true
      done;
      Ltc_flow.Solver.end_batch sol;
      (* Re-arm consumed units so every batch faces the same cap-1 plane
         the scratch variants rebuild from scratch. *)
      for t = 0 to n_tasks - 1 do
        if touched.(t) then begin
          touched.(t) <- false;
          Ltc_flow.Solver.set_unit sol ~unit_id:t ~cap:1
        end
      done
    done;
    (!flow, !cost)
  in
  let time_variant f =
    ignore (f ());
    (* warmup: page faults, arena growth *)
    let result = ref (0, 0.0) in
    let (), dt =
      Ltc_util.Timer.time (fun () ->
          for _ = 1 to reps do
            result := f ()
          done)
    in
    (!result, dt /. float_of_int reps)
  in
  let (cold_flow, cold_cost), cold_s = time_variant cold in
  let (reuse_flow, reuse_cost), reuse_s = time_variant reuse in
  let (inc_flow, inc_cost), inc_s = time_variant incremental in
  let checksum_ok =
    reuse_flow = cold_flow
    && reuse_cost = cold_cost (* a reused workspace changes no arithmetic *)
    && inc_flow = cold_flow
    && Float.abs (inc_cost -. cold_cost) < 1e-6
  in
  let speedup t = if t > 0.0 then cold_s /. t else 0.0 in
  let row name t =
    [
      Ltc_util.Table.Str name;
      Ltc_util.Table.Float (1000.0 *. t);
      Ltc_util.Table.Float (speedup t);
    ]
  in
  Printf.printf
    "%s: %d batches/pass x %d workers, %d nodes, %d arcs each; flow %d, \
     cost %.3f\n"
    label batches batch_workers nodes arcs cold_flow cold_cost;
  Printf.printf "checksum: %s\n\n"
    (if checksum_ok then "all variants agree" else "VARIANTS DISAGREE");
  Ltc_util.Table.print ~float_digits:2
    ~header:[ "variant"; "time/pass (ms)"; "speedup vs cold" ]
    [ row "cold (fresh + Bellman-Ford)" cold_s;
      row "reused arena + workspace" reuse_s;
      row "incremental session" inc_s ];
  print_newline ();
  {
    fb_batches = batches;
    fb_nodes = nodes;
    fb_arcs = arcs;
    fb_flow = cold_flow;
    fb_cold_s = cold_s;
    fb_reuse_s = reuse_s;
    fb_inc_s = inc_s;
    fb_checksum_ok = checksum_ok;
  }

let run_flow_batch ~scale () =
  print_endline
    "### flow-batch-reuse — arena, workspace and residual reuse on the MCF \
     hot path\n";
  let sc x = max 1 (int_of_float (Float.round (scale *. float_of_int x))) in
  let n_tasks = sc 6000 in
  let degree = min 64 n_tasks in
  let small =
    flow_batch_shape ~label:"trickle" ~n_tasks ~batch_workers:8 ~degree
      ~batches:48 ~reps:3
  in
  (* ~100x the trickle's batch width: the solve dominates, so the win is
     the kept potentials, not the skipped rebuild. *)
  let big =
    flow_batch_shape ~label:"100x" ~n_tasks ~batch_workers:(sc 800) ~degree
      ~batches:6 ~reps:1
  in
  let speedup cold t = if t > 0.0 then cold /. t else 0.0 in
  ( "BENCH_flow_batch",
    Printf.sprintf
      "{\"batches\": %d, \"nodes\": %d, \"arcs\": %d, \"flow_units\": %d, \
       \"cold_bf_s\": %.6f, \"reuse_s\": %.6f, \"incremental_s\": \
       %.6f, \"speedup_reuse\": %.3f, \"speedup_incremental\": %.3f, \
       \"checksum_ok\": %d, \
       \"x100_batches\": %d, \"x100_nodes\": %d, \"x100_arcs\": %d, \
       \"x100_flow_units\": %d, \"x100_cold_bf_s\": %.6f, \
       \"x100_reuse_s\": %.6f, \"x100_incremental_s\": %.6f, \
       \"x100_speedup_reuse\": %.3f, \"x100_speedup_incremental\": %.3f, \
       \"x100_checksum_ok\": %d}"
      small.fb_batches small.fb_nodes small.fb_arcs small.fb_flow
      small.fb_cold_s small.fb_reuse_s small.fb_inc_s
      (speedup small.fb_cold_s small.fb_reuse_s)
      (speedup small.fb_cold_s small.fb_inc_s)
      (if small.fb_checksum_ok then 1 else 0)
      big.fb_batches big.fb_nodes big.fb_arcs big.fb_flow big.fb_cold_s
      big.fb_reuse_s big.fb_inc_s
      (speedup big.fb_cold_s big.fb_reuse_s)
      (speedup big.fb_cold_s big.fb_inc_s)
      (if big.fb_checksum_ok then 1 else 0) )

(* --------------------------------------------------- serve-replay micro *)

(* Streaming-service costs: plain feed, journaled feed (CRC-framed
   records with group commit) and checkpoint/restore — snapshot load plus
   policy replay of the journal tail.  The identical flag asserts that
   the journaled run and a session restored from a mid-stream kill both
   finish with exactly the plain run's arrangement, latency and RNG
   states, and that the restore recovers exactly the last committed group
   boundary (the buffered suffix behaves like a torn tail). *)
let serve_replay_id = "serve-replay"

let copy_file ~src ~dst =
  let body = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc body)

let run_serve_replay () =
  print_endline
    "### serve-replay — journaled feed and checkpoint/restore costs\n";
  let spec =
    {
      Ltc_workload.Spec.default_synthetic with
      Ltc_workload.Spec.n_tasks = 2000;
      n_workers = 3000;
      capacity = 2;
    }
  in
  let instance =
    Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed:11) spec
  in
  let ws = Array.to_list instance.Ltc_core.Instance.workers in
  let n_events = List.length ws in
  let algorithm = Ltc_algo.Algorithm.laf in
  let seed = 42 in
  let checkpoint_every = 256 in
  let group_commit = 64 in
  let kill_at = (2 * checkpoint_every) - 1 in
  (* Events buffered past the last committed group die with the kill;
     restore recovers exactly the committed boundary. *)
  let durable_at =
    kill_at - (kill_at mod checkpoint_every mod group_commit)
  in
  let tail_events = durable_at mod checkpoint_every in
  let feed_all s =
    List.iter (fun w -> ignore (Ltc_service.Session.feed s w)) ws
  in
  let fingerprint s =
    ( Ltc_core.Arrangement.to_list (Ltc_service.Session.arrangement s),
      Ltc_service.Session.latency s,
      Ltc_service.Session.consumed s,
      Ltc_service.Session.rng_states s )
  in
  (* Each pass is deterministic, so inter-pass spread is pure measurement
     noise (shared-host I/O stalls hit single passes with multi-ms
     hiccups).  Best-of-N is the low-noise estimator for that regime —
     a mean would charge one stalled pass to every variant unevenly. *)
  let time_variant f =
    ignore (f ());
    (* warmup *)
    let reps = 7 in
    let result = ref (f ()) in
    let best = ref infinity in
    for _ = 1 to reps do
      let r, dt = Ltc_util.Timer.time f in
      result := r;
      if dt < !best then best := dt
    done;
    (!result, !best)
  in
  let journal = Filename.temp_file "ltc_bench_serve" ".journal" in
  let pristine = Filename.temp_file "ltc_bench_serve" ".pristine" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ journal; pristine ])
  @@ fun () ->
  let plain () =
    let s = Ltc_service.Session.create ~algorithm ~seed instance in
    feed_all s;
    fingerprint s
  in
  let journaled () =
    let s =
      Ltc_service.Session.create ~journal ~checkpoint_every ~group_commit
        ~algorithm ~seed instance
    in
    feed_all s;
    Ltc_service.Session.close s;
    fingerprint s
  in
  (* Crash fixture: kill_at events journaled, session abandoned unclosed
     — the last partial group stays buffered and dies with the kill. *)
  (let s =
     Ltc_service.Session.create ~journal:pristine ~checkpoint_every
       ~group_commit ~algorithm ~seed instance
   in
   List.iteri
     (fun j w -> if j < kill_at then ignore (Ltc_service.Session.feed s w))
     ws);
  let restore_once () =
    copy_file ~src:pristine ~dst:journal;
    let s = Ltc_service.Session.restore ~path:journal () in
    Ltc_service.Session.close s;
    Ltc_service.Session.consumed s
  in
  (* Finish one restored session and compare against the plain run. *)
  let resume () =
    copy_file ~src:pristine ~dst:journal;
    let s = Ltc_service.Session.restore ~path:journal () in
    let start = Ltc_service.Session.consumed s in
    List.iteri
      (fun j w -> if j >= start then ignore (Ltc_service.Session.feed s w))
      ws;
    Ltc_service.Session.close s;
    fingerprint s
  in
  let plain_fp, plain_s = time_variant plain in
  let journal_fp, journal_s = time_variant journaled in
  let restored, restore_s = time_variant restore_once in
  let identical =
    journal_fp = plain_fp && resume () = plain_fp && restored = durable_at
  in
  let per_s events t = if t > 0.0 then float_of_int events /. t else 0.0 in
  Printf.printf
    "%d arrivals, checkpoint every %d, group commit %d, killed at %d; \
     restored consumed %d (%d-event tail)\n"
    n_events checkpoint_every group_commit kill_at restored tail_events;
  Printf.printf "checksum: %s\n\n"
    (if identical then "journaled and restored runs match the plain run"
     else "RUNS DISAGREE");
  let row name events t =
    [
      Ltc_util.Table.Str name;
      Ltc_util.Table.Float (1000.0 *. t);
      Ltc_util.Table.Float (per_s events t);
    ]
  in
  Ltc_util.Table.print ~float_digits:2
    ~header:[ "variant"; "time/pass (ms)"; "events/s" ]
    [
      row "feed (no journal)" n_events plain_s;
      row
        (Printf.sprintf "feed + journal (group %d)" group_commit)
        n_events journal_s;
      row "restore (snapshot + replay)" tail_events restore_s;
    ];
  print_newline ();
  ( "BENCH_serve_replay",
    Printf.sprintf
      "{\"events\": %d, \"tail_events\": %d, \"checkpoint_every\": %d, \
       \"group_commit\": %d, \"feed_s\": %.6f, \"feed_journal_s\": %.6f, \
       \"restore_s\": %.6f, \"feed_per_s\": %.1f, \
       \"feed_journal_per_s\": %.1f, \"replay_per_s\": %.1f, \
       \"identical\": %d}"
      n_events tail_events checkpoint_every group_commit plain_s journal_s
      restore_s (per_s n_events plain_s) (per_s n_events journal_s)
      (per_s tail_events restore_s)
      (if identical then 1 else 0) )

(* --------------------------------------------------- chaos-replay micro *)

(* Fault-tolerance overhead: one full Chaos.run pass — baseline, then the
   same stream under a scripted fault plan with kill/restore at every
   injected crash — timed end to end.  The identical flag asserts the
   surviving stream matched the baseline; a 0 here is a correctness
   regression, not a performance one.

   A second scenario runs the same instance through Chaos.run_sharded: a
   supervised domain-per-shard server under per-shard scoped fault plans,
   where every crash is an online shard restore (siblings keep serving)
   rather than a whole-process kill.  sharded_identical pins the same
   survival guarantee for the supervised path. *)
let chaos_replay_id = "chaos-replay"

let run_chaos_replay () =
  print_endline "### chaos-replay — kill/restore survival cost\n";
  let spec =
    {
      Ltc_workload.Spec.default_synthetic with
      Ltc_workload.Spec.n_tasks = 500;
      n_workers = 1500;
      capacity = 2;
    }
  in
  let instance =
    Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed:11) spec
  in
  let n_events = Array.length instance.Ltc_core.Instance.workers in
  let algorithm = Ltc_algo.Algorithm.laf in
  let seed = 42 in
  let checkpoint_every = 64 in
  let plan =
    Ltc_util.Fault.plan ~crashes:6 ~io_errors:4 ~torn_writes:4 ~delays:4
      ~horizon:300 ~seed:29
      ~sites:
        [
          "journal.header"; "journal.append.fsync";
          "journal.checkpoint.fsync"; "journal.checkpoint.rename";
          "journal.checkpoint.dir";
        ]
      ~write_sites:[ "journal.append"; "journal.checkpoint.write" ]
      ~delay_sites:[ "session.decide" ] ()
  in
  let journal = Filename.temp_file "ltc_bench_chaos" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
  @@ fun () ->
  let pass () =
    Ltc_service.Chaos.run ~checkpoint_every ~plan ~algorithm ~seed ~journal
      instance
  in
  ignore (pass ());
  (* warmup *)
  let reps = 3 in
  let report = ref (pass ()) in
  let (), dt =
    Ltc_util.Timer.time (fun () ->
        for _ = 1 to reps do
          report := pass ()
        done)
  in
  let chaos_s = dt /. float_of_int reps in
  let r = !report in
  let per_s = if chaos_s > 0.0 then float_of_int n_events /. chaos_s else 0.0 in
  Printf.printf
    "%d arrivals, checkpoint every %d, %d scripted faults; kills %d, \
     restores %d\n"
    n_events checkpoint_every (List.length plan) r.Ltc_service.Chaos.crashes
    r.Ltc_service.Chaos.restores;
  Printf.printf "checksum: %s\n\n"
    (if r.Ltc_service.Chaos.identical then
       "surviving stream identical to fault-free baseline"
     else "STREAMS DIVERGED");
  let shards = 4 in
  let s_plan =
    Ltc_service.Chaos.sharded_plan ~crashes:2 ~io_errors:2 ~torn_writes:2
      ~horizon:120 ~seed:29 ~shards ()
  in
  let sharded_base = Filename.temp_file "ltc_bench_chaos_shard" ".journal" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (sharded_base
        :: List.init shards (fun k ->
               Ltc_service.Shard_server.shard_journal_path ~base:sharded_base
                 ~shard:k)))
  @@ fun () ->
  let sharded_pass () =
    Ltc_service.Chaos.run_sharded ~checkpoint_every ~plan:s_plan ~shards
      ~algorithm ~seed ~journal:sharded_base instance
  in
  ignore (sharded_pass ());
  (* warmup *)
  let sreport = ref (sharded_pass ()) in
  let (), sdt =
    Ltc_util.Timer.time (fun () ->
        for _ = 1 to reps do
          sreport := sharded_pass ()
        done)
  in
  let sharded_s = sdt /. float_of_int reps in
  let sr = !sreport in
  let sharded_per_s =
    if sharded_s > 0.0 then float_of_int n_events /. sharded_s else 0.0
  in
  Printf.printf
    "sharded: %d shards, %d scripted faults; shard restarts %d (%s), \
     quarantined %d\n"
    shards (List.length s_plan) sr.Ltc_service.Chaos.s_restarts
    (String.concat ","
       (Array.to_list
          (Array.map string_of_int sr.Ltc_service.Chaos.s_shard_restarts)))
    sr.Ltc_service.Chaos.s_quarantined;
  Printf.printf "sharded checksum: %s\n\n"
    (if sr.Ltc_service.Chaos.s_identical then
       "merged stream identical to fault-free baseline"
     else "STREAMS DIVERGED");
  Ltc_util.Table.print ~float_digits:2
    ~header:[ "variant"; "time/pass (ms)"; "arrivals/s" ]
    [
      [
        Ltc_util.Table.Str "chaos (baseline + faulted + restores)";
        Ltc_util.Table.Float (1000.0 *. chaos_s);
        Ltc_util.Table.Float per_s;
      ];
      [
        Ltc_util.Table.Str
          (Printf.sprintf "sharded chaos (%d shards, online restores)"
             shards);
        Ltc_util.Table.Float (1000.0 *. sharded_s);
        Ltc_util.Table.Float sharded_per_s;
      ];
    ];
  print_newline ();
  ( "BENCH_chaos_replay",
    Printf.sprintf
      "{\"arrivals\": %d, \"checkpoint_every\": %d, \"plan_faults\": %d, \
       \"kills\": %d, \"restores\": %d, \"degraded\": %d, \"chaos_s\": \
       %.6f, \"arrivals_per_s\": %.1f, \"identical\": %d, \"shards\": %d, \
       \"sharded_plan_faults\": %d, \"shard_restarts\": %d, \
       \"shard_quarantined\": %d, \"shard_shed\": %d, \"sharded_chaos_s\": \
       %.6f, \"sharded_arrivals_per_s\": %.1f, \"sharded_identical\": %d}"
      n_events checkpoint_every (List.length plan)
      r.Ltc_service.Chaos.crashes r.Ltc_service.Chaos.restores
      r.Ltc_service.Chaos.degraded chaos_s per_s
      (if r.Ltc_service.Chaos.identical then 1 else 0)
      shards (List.length s_plan) sr.Ltc_service.Chaos.s_restarts
      sr.Ltc_service.Chaos.s_quarantined sr.Ltc_service.Chaos.s_shed
      sharded_s sharded_per_s
      (if sr.Ltc_service.Chaos.s_identical then 1 else 0) )

(* ------------------------------------------------------ loadgen micro *)

(* Open-loop SLO measurement cost and output: one Loadgen pass — flash
   crowd over a deadline session with exponential service times — timed
   end to end.  The latency stats run on the virtual clock, so every pass
   reproduces them exactly; the identical flag asserts that (a 0 is a
   determinism regression).  Only loadgen_s/arrivals_per_s are
   machine-dependent. *)
let loadgen_id = "loadgen"

let run_loadgen () =
  print_endline "### loadgen — open-loop SLO latency under a flash crowd\n";
  let spec =
    {
      Ltc_workload.Spec.default_synthetic with
      Ltc_workload.Spec.n_tasks = 500;
      n_workers = 1500;
      capacity = 2;
    }
  in
  let instance =
    Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed:11) spec
  in
  let workers = instance.Ltc_core.Instance.workers in
  let algorithm = Ltc_algo.Algorithm.laf in
  let fallback =
    match Ltc_algo.Algorithm.find_opt "Nearest" with
    | Some a -> a
    | None -> assert false
  in
  let seed = 42 in
  let shape =
    Ltc_workload.Shape.make ~rate:2000.0
      (Ltc_workload.Shape.Burst { factor = 8.0; at_s = 0.25; dur_s = 0.25 })
  in
  let config =
    {
      (Ltc_service.Loadgen.default_config ~shape) with
      Ltc_service.Loadgen.arrivals = Array.length workers;
      service = Ltc_service.Loadgen.Exponential 4e-4;
      seed;
      slo_s = Some 0.002;
    }
  in
  let pass () =
    let server =
      Ltc_service.Shard_server.create
        ~deadline:{ Ltc_service.Session.budget_s = 0.002; fallback }
        ~shards:1 ~algorithm ~seed instance
    in
    let report = Ltc_service.Loadgen.run ~server ~workers config in
    Ltc_service.Shard_server.close server;
    report
  in
  ignore (pass ());
  (* warmup *)
  let reps = 3 in
  let report = ref (pass ()) in
  let (), dt =
    Ltc_util.Timer.time (fun () ->
        for _ = 1 to reps do
          report := pass ()
        done)
  in
  let loadgen_s = dt /. float_of_int reps in
  let r = !report in
  let open Ltc_service.Loadgen in
  let fingerprint (r : report) =
    ( r.r_offered, r.r_consumed, r.r_degraded, r.r_breaches, r.r_makespan_s,
      r.r_p50_s, r.r_p99_s, r.r_p999_s, r.r_max_s )
  in
  let identical = fingerprint (pass ()) = fingerprint r in
  let per_s = if loadgen_s > 0.0 then float_of_int r.r_offered /. loadgen_s else 0.0 in
  Format.printf "%a" pp_report r;
  Printf.printf "checksum: %s\n\n"
    (if identical then "virtual-clock stats identical across passes"
     else "PASSES DISAGREE");
  Ltc_util.Table.print ~float_digits:2
    ~header:[ "variant"; "time/pass (ms)"; "arrivals/s" ]
    [
      [
        Ltc_util.Table.Str "loadgen (flash crowd, exp service)";
        Ltc_util.Table.Float (1000.0 *. loadgen_s);
        Ltc_util.Table.Float per_s;
      ];
    ];
  print_newline ();
  ( "BENCH_loadgen",
    Printf.sprintf
      "{\"arrivals\": %d, \"consumed\": %d, \"degraded\": %d, \"breaches\": \
       %d, \"offered_per_s\": %.1f, \"achieved_per_s\": %.1f, \"p50_s\": \
       %.6f, \"p99_s\": %.6f, \"p999_s\": %.6f, \"max_s\": %.6f, \
       \"loadgen_s\": %.6f, \"arrivals_per_s\": %.1f, \"identical\": %d}"
      r.r_offered r.r_consumed r.r_degraded r.r_breaches r.r_offered_per_s
      r.r_achieved_per_s r.r_p50_s r.r_p99_s r.r_p999_s r.r_max_s loadgen_s
      per_s
      (if identical then 1 else 0) )

(* --------------------------------------------------- serve-shard micro *)

(* Sharded serving throughput: the same clustered, shard-local arrival
   stream fed to a single session and to a Shard_server at 1/2/4/8
   shards in [`Domains] mode (one shard always runs inline: it is the
   plain session behind the server's feed).  The identical flag asserts every sharded
   run's merged fingerprint matched the single session byte for byte —
   a 0 here is a correctness regression.  Speedup expectations are
   scaled by the core count so a single-core container records an
   honest baseline instead of a vacuous failure. *)
let serve_shard_id = "serve-shard"

let run_serve_shard () =
  print_endline
    "### serve-shard — spatially sharded serving vs a single session\n";
  let clusters = 32 and tasks_per = 48 and n_arrivals = 8000 in
  let capacity = 2 in
  (* Shard-local clustered workload (the parity regime of DESIGN.md
     S14): cluster [i] centred at x = 90i + 15, tasks within +-10 of
     the centre, workers jittered +-8, all at y = 10 with candidate
     radius 30 — every candidate lies in its worker's own grid cell, so
     the sharded decision stream must match the single session's. *)
  let rng = Ltc_util.Rng.create ~seed:11 in
  let center i = (90.0 *. float_of_int i) +. 15.0 in
  let tasks =
    Array.init (clusters * tasks_per) (fun id ->
        let c = id / tasks_per and j = id mod tasks_per in
        let dx =
          -10.0
          +. (20.0 *. float_of_int j /. float_of_int (max 1 (tasks_per - 1)))
        in
        Ltc_core.Task.make ~id
          ~loc:(Ltc_geo.Point.make ~x:(center c +. dx) ~y:10.0)
          ())
  in
  let workers =
    Array.init n_arrivals (fun i ->
        let c = i mod clusters in
        let dx = Ltc_util.Rng.float rng 16.0 -. 8.0 in
        Ltc_core.Worker.make ~index:(i + 1)
          ~loc:(Ltc_geo.Point.make ~x:(center c +. dx) ~y:10.0)
          ~accuracy:(0.7 +. Ltc_util.Rng.float rng 0.25)
          ~capacity)
  in
  let instance = Ltc_core.Instance.create ~tasks ~workers ~epsilon:0.25 () in
  let n_tasks = Array.length tasks in
  let algorithm = Ltc_algo.Algorithm.laf in
  let seed = 42 in
  (* Best-of-N, as in serve-replay: each pass is deterministic, so
     inter-pass spread is scheduler/host noise. *)
  let time_variant f =
    ignore (f ());
    (* warmup *)
    let reps = 5 in
    let result = ref (f ()) in
    let best = ref infinity in
    for _ = 1 to reps do
      let r, dt = Ltc_util.Timer.time f in
      result := r;
      if dt < !best then best := dt
    done;
    (!result, !best)
  in
  let single () =
    let s = Ltc_service.Session.create ~algorithm ~seed instance in
    Array.iter (fun w -> ignore (Ltc_service.Session.feed s w)) workers;
    ( Ltc_core.Arrangement.to_list (Ltc_service.Session.arrangement s),
      Ltc_service.Session.latency s,
      Ltc_service.Session.consumed s,
      Ltc_service.Session.completed s )
  in
  let sharded shards () =
    let srv =
      Ltc_service.Shard_server.create ~mailbox:256
        ~mode:Ltc_service.Shard_server.Domains ~shards ~algorithm ~seed
        instance
    in
    Array.iter
      (fun w -> ignore (Ltc_service.Shard_server.feed srv w))
      workers;
    ignore (Ltc_service.Shard_server.flush srv);
    let fp =
      ( Ltc_core.Arrangement.to_list
          (Ltc_service.Shard_server.arrangement srv),
        Ltc_service.Shard_server.latency srv,
        Ltc_service.Shard_server.consumed srv,
        Ltc_service.Shard_server.completed srv )
    in
    Ltc_service.Shard_server.close srv;
    fp
  in
  let single_fp, single_s = time_variant single in
  let fp1, shard1_s = time_variant (sharded 1) in
  let fp2, shard2_s = time_variant (sharded 2) in
  let fp4, shard4_s = time_variant (sharded 4) in
  let fp8, shard8_s = time_variant (sharded 8) in
  let identical =
    fp1 = single_fp && fp2 = single_fp && fp4 = single_fp
    && fp8 = single_fp
  in
  let cores = Ltc_util.Pool.default_jobs () in
  let speedup t = if t > 0.0 then single_s /. t else 0.0 in
  let speedup4 = speedup shard4_s in
  (* The 1.7x-at-4-shards target assumes 4 cores; on smaller hosts the
     router thread serialises everything, so scale the bar by the cores
     actually available (1 core -> 0.425x just asks sharding not to
     more-than-halve throughput). *)
  let expected4 = 1.7 *. float_of_int (min cores 4) /. 4.0 in
  let scaling_ok = speedup4 >= expected4 in
  let per_s t = if t > 0.0 then float_of_int n_arrivals /. t else 0.0 in
  Printf.printf
    "%d arrivals over %d tasks in %d clusters; %d core(s) — expecting \
     >=%.2fx at 4 shards\n"
    n_arrivals n_tasks clusters cores expected4;
  Printf.printf "checksum: %s\n\n"
    (if identical then "all sharded runs match the single session"
     else "RUNS DISAGREE");
  let row name t =
    [
      Ltc_util.Table.Str name;
      Ltc_util.Table.Float (1000.0 *. t);
      Ltc_util.Table.Float (per_s t);
      Ltc_util.Table.Float (speedup t);
    ]
  in
  Ltc_util.Table.print ~float_digits:2
    ~header:[ "variant"; "time/pass (ms)"; "arrivals/s"; "speedup" ]
    [
      row "feed single session" single_s;
      row "feed 1 shard (inline)" shard1_s;
      row "feed 2 shards (domains)" shard2_s;
      row "feed 4 shards (domains)" shard4_s;
      row "feed 8 shards (domains)" shard8_s;
    ];
  print_newline ();
  ( "BENCH_serve_shard",
    Printf.sprintf
      "{\"arrivals\": %d, \"tasks\": %d, \"clusters\": %d, \"cores\": %d, \
       \"feed_single_s\": %.6f, \"feed_shard1_s\": %.6f, \"feed_shard2_s\": \
       %.6f, \"feed_shard4_s\": %.6f, \"feed_shard8_s\": %.6f, \
       \"single_per_s\": %.1f, \"shard4_per_s\": %.1f, \"speedup_shard4\": \
       %.3f, \"speedup_shard8\": %.3f, \"expected_speedup_shard4\": %.3f, \
       \"scaling_ok\": %d, \"identical\": %d}"
      n_arrivals n_tasks clusters cores single_s shard1_s shard2_s shard4_s
      shard8_s (per_s single_s) (per_s shard4_s) speedup4 (speedup shard8_s)
      expected4
      (if scaling_ok then 1 else 0)
      (if identical then 1 else 0) )

(* ------------------------------------------------------- micro benchmarks *)

let micro_tests () =
  let open Bechamel in
  let spec =
    Ltc_workload.Spec.scale_synthetic 0.1 Ltc_workload.Spec.default_synthetic
  in
  let instance =
    Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed:1) spec
  in
  let progress =
    Ltc_core.Progress.create_per_task
      ~thresholds:(Ltc_core.Instance.thresholds instance) ()
  in
  let tracker = Ltc_util.Mem.Tracker.create () in
  let worker = instance.Ltc_core.Instance.workers.(17) in
  let laf_decide = Ltc_algo.Laf.policy instance tracker progress in
  let aam_decide = Ltc_algo.Aam.policy instance tracker progress in
  let random_decide =
    Ltc_algo.Random_assign.policy ~seed:7 instance tracker progress
  in
  (* A representative single-batch LTC network: 60 workers x 40 tasks. *)
  let fill_mcmf_input g =
    let rng = Ltc_util.Rng.create ~seed:3 in
    for w = 1 to 60 do
      ignore (Ltc_flow.Graph.add_arc g ~src:0 ~dst:w ~cap:6 ~cost:0.0);
      for t = 61 to 100 do
        if Ltc_util.Rng.bernoulli rng 0.2 then
          ignore
            (Ltc_flow.Graph.add_arc g ~src:w ~dst:t ~cap:1
               ~cost:(-.Ltc_util.Rng.float rng 1.0))
      done
    done;
    for t = 61 to 100 do
      ignore (Ltc_flow.Graph.add_arc g ~src:t ~dst:101 ~cap:4 ~cost:0.0)
    done
  in
  let mcmf_input () =
    let g = Ltc_flow.Graph.create ~n:102 in
    fill_mcmf_input g;
    g
  in
  let reuse_g = Ltc_flow.Graph.create ~n:1 in
  let reuse_ws = Ltc_flow.Mcmf.create_workspace () in
  [
    Test.make ~name:"laf-arrival"
      (Staged.stage (fun () -> ignore (laf_decide worker)));
    Test.make ~name:"aam-arrival"
      (Staged.stage (fun () -> ignore (aam_decide worker)));
    Test.make ~name:"random-arrival"
      (Staged.stage (fun () -> ignore (random_decide worker)));
    Test.make ~name:"grid-candidates"
      (Staged.stage (fun () ->
           (* Grid order, as the flow network build reads it. *)
           Ltc_core.Instance.iter_candidates instance worker (fun _ -> ())));
    Test.make ~name:"grid-candidates-sorted"
      (Staged.stage (fun () ->
           (* Ascending order, as the online policies read it. *)
           Ltc_core.Instance.iter_candidates_sorted instance worker (fun _ ->
               ())));
    Test.make ~name:"progress-aggregates"
      (Staged.stage (fun () ->
           ignore (Ltc_core.Progress.max_remaining progress);
           ignore (Ltc_core.Progress.sum_remaining progress)));
    Test.make ~name:"mcmf-batch-60x40"
      (Staged.stage (fun () ->
           let g = mcmf_input () in
           ignore (Ltc_flow.Mcmf.run g ~source:0 ~sink:101)));
    Test.make ~name:"mcmf-batch-60x40-reused"
      (Staged.stage (fun () ->
           (* Same solve on the allocation-free path: cleared arena, shared
              workspace. *)
           Ltc_flow.Graph.clear reuse_g ~n:102;
           fill_mcmf_input reuse_g;
           ignore
             (Ltc_flow.Mcmf.run reuse_g ~workspace:reuse_ws ~source:0
                ~sink:101)));
  ]

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  print_endline "### micro — per-arrival decision and substrate costs\n";
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"micro" ~fmt:"%s %s" (micro_tests ()))
  in
  let ols witness =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0
         ~predictors:[| Measure.run |])
      witness raw
  in
  let time_results = ols Instance.monotonic_clock in
  let alloc_results = ols Instance.minor_allocated in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | None -> nan
    | Some o -> (
      match Analyze.OLS.estimates o with
      | Some [ e ] -> e
      | Some _ | None -> nan)
  in
  let rows =
    Hashtbl.fold (fun name _ acc -> name :: acc) time_results []
    |> List.sort compare
    |> List.map (fun name ->
           [
             Ltc_util.Table.Str name;
             Ltc_util.Table.Float (estimate time_results name /. 1000.0);
             Ltc_util.Table.Float (estimate alloc_results name);
           ])
  in
  Ltc_util.Table.print ~float_digits:2
    ~header:[ "benchmark"; "time (us/run)"; "minor words/run" ]
    rows;
  print_newline ()

(* -------------------------------------------------------------------- cli *)

let list_experiments () =
  let rows =
    List.map
      (fun (e : Figures.t) ->
        [
          Ltc_util.Table.Str e.Figures.id;
          Ltc_util.Table.Str e.Figures.panels;
          Ltc_util.Table.Float e.Figures.default_scale;
        ])
      Figures.all
    @ [
        [
          Ltc_util.Table.Str "micro";
          Ltc_util.Table.Str "per-arrival decision costs (bechamel)";
          Ltc_util.Table.Float 1.0;
        ];
        [
          Ltc_util.Table.Str flow_batch_id;
          Ltc_util.Table.Str "MCF arena/workspace reuse vs cold solves";
          Ltc_util.Table.Float 1.0;
        ];
        [
          Ltc_util.Table.Str serve_replay_id;
          Ltc_util.Table.Str "journaled feed and checkpoint/restore costs";
          Ltc_util.Table.Float 1.0;
        ];
        [
          Ltc_util.Table.Str chaos_replay_id;
          Ltc_util.Table.Str "kill/restore survival under scripted faults";
          Ltc_util.Table.Float 1.0;
        ];
        [
          Ltc_util.Table.Str loadgen_id;
          Ltc_util.Table.Str "open-loop SLO latency under a flash crowd";
          Ltc_util.Table.Float 1.0;
        ];
        [
          Ltc_util.Table.Str serve_shard_id;
          Ltc_util.Table.Str "sharded serving vs a single session";
          Ltc_util.Table.Float 1.0;
        ];
      ]
  in
  Ltc_util.Table.print ~float_digits:2
    ~header:[ "id"; "panels"; "default scale" ]
    rows

let main ids scale reps seed jobs full list csv plot verbose metrics
    metrics_format json =
  if verbose then Ltc_util.Log.setup ~level:Logs.Debug ()
  else Ltc_util.Log.setup ();
  (match metrics with
  | None -> ()
  | Some _ ->
    Ltc_util.Metrics.set_enabled true;
    Ltc_util.Trace.set_enabled true);
  if list then begin
    list_experiments ();
    0
  end
  else if jobs < 1 then begin
    Printf.eprintf "--jobs must be at least 1 (got %d)\n" jobs;
    1
  end
  else begin
    let scale = if full then Some 1.0 else scale in
    let reps = if full && reps = 3 then 30 else reps in
    let ids =
      if ids = [] then
        Figures.ids ()
        @ [
            "micro"; flow_batch_id; serve_replay_id; chaos_replay_id;
            loadgen_id; serve_shard_id;
          ]
      else ids
    in
    let unknown =
      List.filter
        (fun id ->
          id <> "micro" && id <> flow_batch_id && id <> serve_replay_id
          && id <> chaos_replay_id && id <> loadgen_id
          && id <> serve_shard_id
          && Figures.find id = None)
        ids
    in
    match unknown with
    | _ :: _ ->
      Printf.eprintf "unknown experiment(s): %s\nuse --list to enumerate\n"
        (String.concat ", " unknown);
      1
    | [] ->
      Printf.printf
        "LTC benchmark harness — reproduction of ICDE'18 \
         \"Latency-oriented Task Completion via Spatial Crowdsourcing\"\n\n%!";
      let entries =
        List.filter_map
          (fun id ->
            if id = "micro" then begin
              run_micro ();
              None
            end
            else if id = flow_batch_id then
              Some (run_flow_batch ~scale:(Option.value scale ~default:1.0) ())
            else if id = serve_replay_id then Some (run_serve_replay ())
            else if id = chaos_replay_id then Some (run_chaos_replay ())
            else if id = loadgen_id then Some (run_loadgen ())
            else if id = serve_shard_id then Some (run_serve_shard ())
            else
              match Figures.find id with
              | Some e ->
                Some
                  (render_figure_stat
                     (run_figure ~jobs ~scale ~reps ~seed ~csv ~plot e))
              | None -> assert false)
          ids
      in
      Option.iter
        (fun path ->
          write_json ~path entries;
          Printf.printf "(bench json: %s)\n%!" path)
        json;
      Option.iter
        (fun path -> Ltc_util.Snapshot.write ~path metrics_format)
        metrics;
      0
  end

open Cmdliner

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"
         ~doc:"Experiment ids to run (default: all). See --list.")

let scale_arg =
  Arg.(value & opt (some float) None
       & info [ "scale" ] ~docv:"S"
           ~doc:"Workload scale factor; 1.0 = the paper's cardinalities. \
                 Defaults to each experiment's laptop-friendly scale.")

let reps_arg =
  Arg.(value & opt int 3
       & info [ "reps" ] ~docv:"N"
           ~doc:"Repetitions per setting (paper: 30).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Base RNG seed.")

let jobs_arg =
  Arg.(value & opt int (Ltc_util.Pool.default_jobs ())
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Domains used for the independent experiment cells (default: \
                 the machine's recommended domain count). Every output \
                 except the wall-clock runtime tables is identical for \
                 every value.")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Write per-figure wall time and throughput (runs/sec) as a \
                 JSON object keyed $(b,BENCH_<id>) to $(docv).")

let full_arg =
  Arg.(value & flag
       & info [ "full" ]
           ~doc:"Paper-scale run: --scale 1.0 and 30 repetitions. Expect \
                 hours for fig4-scal.")

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List available experiments.")

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~docv:"DIR"
           ~doc:"Also write every table as a CSV file under $(docv).")

let plot_arg =
  Arg.(value & flag
       & info [ "plot" ] ~doc:"Render an ASCII chart under every table.")

let verbose_arg =
  Arg.(value & flag
       & info [ "verbose"; "v" ] ~doc:"Debug logging (batch solves etc.).")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Enable the metrics registry and span tracing, and write a \
                 snapshot to $(docv) after all experiments ($(b,-) for \
                 stdout).")

let metrics_format_conv =
  let parse s =
    match Ltc_util.Snapshot.format_of_string s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Ltc_util.Snapshot.pp_format)

let metrics_format_arg =
  Arg.(value & opt metrics_format_conv Ltc_util.Snapshot.Json
       & info [ "metrics-format" ] ~docv:"FMT"
           ~doc:"Snapshot format: $(b,json) or $(b,prom).")

let cmd =
  let doc = "regenerate the tables and figures of the LTC paper" in
  Cmd.v
    (Cmd.info "ltc-bench" ~doc)
    Term.(
      const main $ ids_arg $ scale_arg $ reps_arg $ seed_arg $ jobs_arg
      $ full_arg $ list_arg $ csv_arg $ plot_arg $ verbose_arg $ metrics_arg
      $ metrics_format_arg $ json_arg)

let () = exit (Cmd.eval' cmd)
