(* ltc — command-line interface to the LTC library: run the algorithms on
   a workload (run, generate, bounds, infer), serve and load a journaled
   session (serve, loadgen), verify crash recovery (chaos) and read
   journals offline (journal).  The paper's running example is
   examples/facebook_editor.ml; its experiments run through ltc-bench. *)

open Cmdliner

(* ----------------------------------------------------- shared observability *)

let metrics_format_conv =
  let parse s =
    match Ltc_util.Snapshot.format_of_string s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Ltc_util.Snapshot.pp_format)

(* "SRC:LEVEL" pairs for Log.setup's per-source levels, e.g. "obs:debug". *)
let log_spec_conv =
  let parse s =
    match String.index_opt s ':' with
    | None -> Error (`Msg (Printf.sprintf "expected SRC:LEVEL, got %S" s))
    | Some i ->
      let src = String.sub s 0 i in
      let lvl = String.sub s (i + 1) (String.length s - i - 1) in
      (match Logs.level_of_string lvl with
      | Ok (Some l) -> Ok (src, l)
      | Ok None -> Ok (src, Logs.Error)
      | Error (`Msg m) -> Error (`Msg m))
  in
  let print fmt (src, l) =
    Format.fprintf fmt "%s:%s" src (Logs.level_to_string (Some l))
  in
  Arg.conv (parse, print)

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Enable the metrics registry and span tracing, and write a \
                 snapshot to $(docv) after the run ($(b,-) for stdout).")

let metrics_format_arg =
  Arg.(value & opt metrics_format_conv Ltc_util.Snapshot.Json
       & info [ "metrics-format" ] ~docv:"FMT"
           ~doc:"Snapshot format: $(b,json) (metrics + span tree) or \
                 $(b,prom) (Prometheus text exposition).")

let log_arg =
  Arg.(value & opt_all log_spec_conv []
       & info [ "log" ] ~docv:"SRC:LEVEL"
           ~doc:"Per-source log level, e.g. $(b,obs:debug) or \
                 $(b,flow:info); repeatable.  Overrides $(b,--verbose) for \
                 the named source.")

let setup_observability ~verbose ~log_levels ~metrics =
  Ltc_util.Log.setup
    ?level:(if verbose then Some Logs.Debug else None)
    ~src_levels:log_levels ();
  if metrics <> None then begin
    Ltc_util.Metrics.set_enabled true;
    Ltc_util.Trace.set_enabled true
  end

let write_snapshot ~metrics ~metrics_format =
  Option.iter
    (fun path -> Ltc_util.Snapshot.write ~path metrics_format)
    metrics

let die fmt =
  Format.kasprintf (fun m -> Format.eprintf "%s@." m; exit 1) fmt

let resolve_algorithm name =
  match Ltc_algo.Algorithm.find_opt name with
  | Some a -> a
  | None ->
    die "unknown algorithm %S (try: %s)" name
      (String.concat ", " (Ltc_algo.Algorithm.names ()))

(* ------------------------------------------------------------ run command *)

type workload_kind = Synthetic | New_york | Tokyo

let workload_conv =
  let parse = function
    | "synthetic" -> Ok Synthetic
    | "ny" | "new-york" -> Ok New_york
    | "tokyo" -> Ok Tokyo
    | s -> Error (`Msg (Printf.sprintf "unknown workload %S" s))
  in
  let print fmt = function
    | Synthetic -> Format.fprintf fmt "synthetic"
    | New_york -> Format.fprintf fmt "ny"
    | Tokyo -> Format.fprintf fmt "tokyo"
  in
  Arg.conv (parse, print)

(* The instance the workload flags run and generate share describe. *)
let build_instance workload scale tasks workers capacity epsilon ~seed =
  let rng = Ltc_util.Rng.create ~seed in
  match workload with
  | Synthetic ->
    let spec =
      {
        Ltc_workload.Spec.default_synthetic with
        Ltc_workload.Spec.n_tasks =
          Option.value tasks
            ~default:Ltc_workload.Spec.default_synthetic.Ltc_workload.Spec.n_tasks;
        n_workers =
          Option.value workers
            ~default:
              Ltc_workload.Spec.default_synthetic.Ltc_workload.Spec.n_workers;
        capacity =
          Option.value capacity
            ~default:
              Ltc_workload.Spec.default_synthetic.Ltc_workload.Spec.capacity;
        epsilon =
          Option.value epsilon
            ~default:
              Ltc_workload.Spec.default_synthetic.Ltc_workload.Spec.epsilon;
      }
    in
    let spec = Ltc_workload.Spec.scale_synthetic scale spec in
    Ltc_workload.Synthetic.generate rng spec
  | New_york | Tokyo ->
    let base =
      if workload = New_york then Ltc_workload.Spec.new_york
      else Ltc_workload.Spec.tokyo
    in
    let base =
      {
        base with
        Ltc_workload.Spec.c_n_tasks =
          Option.value tasks ~default:base.Ltc_workload.Spec.c_n_tasks;
        c_n_workers =
          Option.value workers ~default:base.Ltc_workload.Spec.c_n_workers;
        c_capacity =
          Option.value capacity ~default:base.Ltc_workload.Spec.c_capacity;
        c_epsilon =
          Option.value epsilon ~default:base.Ltc_workload.Spec.c_epsilon;
      }
    in
    Ltc_workload.City.generate rng (Ltc_workload.Spec.scale_city scale base)

(* The workload flags, as a function of the seed. *)
let workload_term =
  let workload =
    Arg.(value & opt workload_conv Synthetic
         & info [ "workload"; "w" ] ~docv:"KIND"
             ~doc:"Workload: $(b,synthetic), $(b,ny) or $(b,tokyo).")
  in
  let scale =
    Arg.(value & opt float 0.1
         & info [ "scale" ] ~docv:"S"
             ~doc:"Density-preserving workload scale (1.0 = paper size).")
  in
  let tasks =
    Arg.(value & opt (some int) None
         & info [ "tasks"; "T" ] ~docv:"N" ~doc:"Task count (pre-scaling).")
  in
  let workers =
    Arg.(value & opt (some int) None
         & info [ "workers"; "W" ] ~docv:"N" ~doc:"Worker count (pre-scaling).")
  in
  let capacity =
    Arg.(value & opt (some int) None
         & info [ "capacity"; "K" ] ~docv:"K" ~doc:"Per-worker capacity.")
  in
  let epsilon =
    Arg.(value & opt (some float) None
         & info [ "epsilon"; "e" ] ~docv:"EPS" ~doc:"Tolerable error rate.")
  in
  Term.(
    const build_instance $ workload $ scale $ tasks $ workers $ capacity
    $ epsilon)

let run_cmd_impl generate seed algo mcf_budget validate simulate load report
    save_arrangement screen verbose svg log_levels metrics metrics_format =
  (* --mcf-budget-rounds reconfigures only the MCF-LTC registry entry (the
     other algorithms never touch the flow solver); a negative budget is
     refused before any instance is built. *)
  let mcf_config =
    Option.map
      (fun r ->
        if r < 0 then
          invalid_arg
            (Printf.sprintf "--mcf-budget-rounds must be >= 0 (got %d)" r);
        {
          Ltc_algo.Mcf_ltc.default_config with
          Ltc_algo.Mcf_ltc.budget = Some (Ltc_flow.Mcmf.Rounds r);
        })
      mcf_budget
  in
  setup_observability ~verbose ~log_levels ~metrics;
  let instance =
    match load with
    | Some path -> Ltc_core.Serialize.load_instance ~path
    | None -> generate ~seed
  in
  Format.printf "%a@.@." Ltc_core.Instance.pp instance;
  if screen then begin
    let verdict = Ltc_algo.Feasibility.screen instance in
    Format.printf "feasibility screen: %a@." Ltc_algo.Feasibility.pp_verdict
      verdict;
    (match Ltc_algo.Feasibility.latency_lower_bound instance with
    | Some low -> Format.printf "flow lower bound on latency: %d workers@.@." low
    | None -> Format.printf "flow lower bound: instance cannot complete@.@.")
  end;
  let algorithms =
    match algo with
    | None -> Ltc_algo.Algorithm.paper
    | Some name -> [ resolve_algorithm name ]
  in
  let algorithms =
    match mcf_config with
    | None -> algorithms
    | Some config ->
      List.map
        (fun (a : Ltc_algo.Algorithm.t) ->
          if a.Ltc_algo.Algorithm.name = Ltc_algo.Mcf_ltc.name then
            {
              a with
              Ltc_algo.Algorithm.run =
                (fun ~seed:_ i -> Ltc_algo.Mcf_ltc.run ~config i);
            }
          else a)
        algorithms
  in
  List.iter
    (fun (a : Ltc_algo.Algorithm.t) ->
      let outcome, dt = Ltc_util.Timer.time (fun () -> a.run ~seed instance) in
      Format.printf "%a  (%.3f s)@." Ltc_algo.Engine.pp_outcome outcome dt;
      if validate then begin
        match
          Ltc_core.Arrangement.validate instance
            outcome.Ltc_algo.Engine.arrangement
        with
        | Ok () -> Format.printf "  constraints: all satisfied@."
        | Error vs ->
          Format.printf "  constraint violations (%d):@." (List.length vs);
          List.iter
            (Format.printf "    %a@." Ltc_core.Arrangement.pp_violation)
            (List.filteri (fun i _ -> i < 10) vs)
      end;
      if report then
        Format.printf "  --- report ---@.  @[<v>%a@]@."
          Ltc_core.Analysis.pp
          (Ltc_core.Analysis.of_arrangement instance
             outcome.Ltc_algo.Engine.arrangement);
      if simulate then begin
        let report =
          Ltc_core.Truth_sim.run ~trials:1000
            (Ltc_util.Rng.create ~seed:(seed + 1))
            instance outcome.Ltc_algo.Engine.arrangement
        in
        Format.printf
          "  voting simulation: mean error %.4f, max error %.4f (promise <= \
           %.2f)@."
          report.Ltc_core.Truth_sim.mean_error
          report.Ltc_core.Truth_sim.max_error report.Ltc_core.Truth_sim.epsilon
      end;
      (match svg with
      | None -> ()
      | Some path ->
        Ltc_core.Svg.save ~path
          ~arrangement:outcome.Ltc_algo.Engine.arrangement instance;
        Format.printf "  map rendered to %s@." path);
      match save_arrangement with
      | None -> ()
      | Some path ->
        Ltc_core.Serialize.save_arrangement ~path
          outcome.Ltc_algo.Engine.arrangement;
        Format.printf "  arrangement saved to %s@." path)
    algorithms;
  write_snapshot ~metrics ~metrics_format;
  0

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let run_cmd =
  let algo =
    Arg.(value & opt (some string) None
         & info [ "algo"; "a" ] ~docv:"NAME"
             ~doc:"Run a single algorithm (default: all five).")
  in
  let mcf_budget =
    Arg.(value & opt (some int) None
         & info [ "mcf-budget-rounds" ] ~docv:"N"
             ~doc:"Anytime cutoff for MCF-LTC: at most $(docv) \
                   augmentation rounds per batch solve; exhausted batches \
                   are completed greedily and counted as degraded.")
  in
  let validate =
    Arg.(value & flag
         & info [ "validate" ] ~doc:"Check every Definition-6 constraint.")
  in
  let simulate =
    Arg.(value & flag
         & info [ "simulate" ]
             ~doc:"Monte-Carlo voting simulation of the result quality.")
  in
  let load =
    Arg.(value & opt (some string) None
         & info [ "load" ] ~docv:"FILE"
             ~doc:"Load the instance from a file written by $(b,ltc \
                   generate) instead of generating one.")
  in
  let report =
    Arg.(value & flag
         & info [ "report" ]
             ~doc:"Print load / travel / margin statistics per algorithm.")
  in
  let save_arrangement =
    Arg.(value & opt (some string) None
         & info [ "save-arrangement" ] ~docv:"FILE"
             ~doc:"Write the (last) algorithm's arrangement to $(docv).")
  in
  let screen =
    Arg.(value & flag
         & info [ "screen" ]
             ~doc:"Run the feasibility screen and the flow lower bound \
                   before any algorithm.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "v" ] ~doc:"Debug logging to stderr.")
  in
  let svg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE"
             ~doc:"Render the instance and the (last) algorithm's \
                   arrangement as an SVG map.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"generate a workload and run LTC algorithms on it")
    Term.(
      const run_cmd_impl $ workload_term $ seed_arg $ algo $ mcf_budget
      $ validate $ simulate $ load $ report $ save_arrangement $ screen
      $ verbose $ svg $ log_arg $ metrics_arg $ metrics_format_arg)

(* ------------------------------------------------------- generate command *)

let generate_cmd =
  let impl generate seed out =
    let instance = generate ~seed in
    Ltc_core.Serialize.save_instance ~path:out instance;
    Format.printf "%a@.saved to %s@." Ltc_core.Instance.pp instance out;
    0
  in
  let out =
    Arg.(required & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output instance file.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"generate a workload and save it to a file")
    Term.(const impl $ workload_term $ seed_arg $ out)

(* --------------------------------------------------------- bounds command *)

let bounds_cmd_impl n_tasks epsilon capacity =
  let delta = Ltc_core.Quality.delta ~epsilon in
  let low = Ltc_algo.Bounds.lower ~n_tasks ~delta ~k:capacity in
  let high = Ltc_algo.Bounds.upper ~n_tasks ~delta ~k:capacity in
  Format.printf "|T| = %d, eps = %g, K = %d@." n_tasks epsilon capacity;
  Format.printf "delta (2 ln 1/eps)          = %.4f@." delta;
  Format.printf "Theorem-2 lower bound       = %.1f workers@." low;
  Format.printf "Theorem-2 upper bound       = %.1f workers@." high;
  Format.printf "McNaughton optimum at r=1   = %d workers@."
    (Ltc_algo.Bounds.mcnaughton ~n_tasks ~delta ~k:capacity ~r:1.0);
  Format.printf "McNaughton optimum at r=0.5 = %d workers@."
    (Ltc_algo.Bounds.mcnaughton ~n_tasks ~delta ~k:capacity ~r:0.5);
  0

let bounds_cmd =
  let n_tasks =
    Arg.(value & opt int 3000 & info [ "tasks"; "T" ] ~docv:"N" ~doc:"Tasks.")
  in
  let epsilon =
    Arg.(value & opt float 0.14
         & info [ "epsilon"; "e" ] ~docv:"EPS" ~doc:"Error rate.")
  in
  let capacity =
    Arg.(value & opt int 6 & info [ "capacity"; "K" ] ~docv:"K" ~doc:"Capacity.")
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"print the Theorem-2 latency bounds")
    Term.(const bounds_cmd_impl $ n_tasks $ epsilon $ capacity)

(* ---------------------------------------------------------- infer command *)

(* Answer files: one observation per line, `worker task Y|N`, '#' comments.
   Workers are numbered from 1 and tasks from 0.  Every line is checked
   before anything is printed, and a file with no observation is refused. *)
let read_observations path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let observations = ref [] in
      let line_no = ref 0 in
      let bad what field =
        failwith (Printf.sprintf "line %d: bad %s %S" !line_no what field)
      in
      let index what ~min field =
        match int_of_string_opt field with
        | Some i when i >= min -> i
        | _ -> bad what field
      in
      (try
         while true do
           let line = input_line ic in
           incr line_no;
           let line =
             match String.index_opt line '#' with
             | None -> line
             | Some i -> String.sub line 0 i
           in
           match
             String.split_on_char ' ' (String.trim line)
             |> List.filter (( <> ) "")
           with
           | [] -> ()
           | [ worker; task; answer ] ->
             let worker = index "worker" ~min:1 worker in
             let task = index "task" ~min:0 task in
             let answer =
               match String.uppercase_ascii answer with
               | "Y" | "YES" | "+1" -> Ltc_core.Task.Yes
               | "N" | "NO" | "-1" -> Ltc_core.Task.No
               | other -> bad "answer" other
             in
             observations :=
               { Ltc_core.Truth_infer.worker; task; answer } :: !observations
           | _ -> failwith (Printf.sprintf "line %d: expected 3 fields" !line_no)
         done
       with End_of_file -> ());
      if !observations = [] then
        failwith (Printf.sprintf "%s: no observations" path);
      List.rev !observations)

let infer_cmd =
  let impl path two_coin =
    let observations = read_observations path in
    let n_workers =
      List.fold_left
        (fun acc o -> max acc o.Ltc_core.Truth_infer.worker)
        0 observations
    in
    let n_tasks =
      List.fold_left
        (fun acc o -> max acc (o.Ltc_core.Truth_infer.task + 1))
        0 observations
    in
    Format.printf "%d observations, %d workers, %d tasks@.@."
      (List.length observations) n_workers n_tasks;
    if two_coin then begin
      let r =
        Ltc_core.Truth_infer.run_two_coin ~n_workers ~n_tasks observations
      in
      Format.printf
        "two-coin EM: %d iterations%s, prevalence %.3f@.@.worker  alpha           beta   p_w@."
        r.Ltc_core.Truth_infer.tc_iterations
        (if r.Ltc_core.Truth_infer.tc_converged then "" else " (not converged)")
        r.Ltc_core.Truth_infer.prevalence;
      Array.iteri
        (fun w a ->
          Format.printf "w%-5d  %.3f  %.3f  %.3f@." (w + 1) a
            r.Ltc_core.Truth_infer.specificities.(w)
            r.Ltc_core.Truth_infer.tc_accuracies.(w))
        r.Ltc_core.Truth_infer.sensitivities
    end
    else begin
      let r = Ltc_core.Truth_infer.run ~n_workers ~n_tasks observations in
      Format.printf "one-coin EM: %d iterations%s@.@.worker  p_w@."
        r.Ltc_core.Truth_infer.iterations
        (if r.Ltc_core.Truth_infer.converged then "" else " (not converged)");
      Array.iteri
        (fun w p -> Format.printf "w%-5d  %.3f@." (w + 1) p)
        r.Ltc_core.Truth_infer.accuracies
    end;
    0
  in
  let path =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ANSWERS"
             ~doc:"Answer file: one `worker task Y|N` triple per line.")
  in
  let two_coin =
    Arg.(value & flag
         & info [ "two-coin" ]
             ~doc:"Full Dawid-Skene (separate sensitivity/specificity).")
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:"estimate worker accuracies from raw answers (truth inference)")
    Term.(const impl $ path $ two_coin)

(* ---------------------------------------------------------- serve command *)

(* NDJSON arrivals on stdin, one NDJSON decision per released arrival on
   stdout (flushed line by line, so the command composes with pipes and
   survives kill -9 mid-stream).  A resumed server skips already-durable
   arrivals internally and emits nothing for them, which makes resumption
   idempotent: re-piping the whole stream after `--resume` emits exactly
   the decisions the interrupted run still owed.  The stream stops once
   the completing decision has been printed — the batch loop consumes
   nothing past it, so acknowledging further arrivals would only differ
   between an uninterrupted run and a resumed one. *)
let serve_stream ~on_bad_input server =
  let module Srv = Ltc_service.Shard_server in
  let bad = ref 0 in
  let m_bad =
    Ltc_util.Metrics.counter
      ~help:"malformed arrival lines dropped by --on-bad-input=skip"
      ~labels:[ ("algo", Srv.algorithm_name server) ]
      "ltc_service_bad_input_total"
  in
  (* Raw input position (blank lines included), so diagnostics point at
     the line an operator would find with sed -n '<N>p'. *)
  let line_no = ref 0 in
  let done_ = ref false in
  let emit ds =
    List.iter
      (fun (d : Ltc_service.Session.decision) ->
        if not !done_ then begin
          print_string (Ltc_service.Ndjson.decision_to_line d);
          print_newline ();
          flush stdout;
          if d.Ltc_service.Session.completed then done_ := true
        end)
      ds
  in
  let rec loop () =
    if not !done_ then
      match input_line stdin with
      | exception End_of_file -> ()
      | line ->
        incr line_no;
        if String.trim line = "" then loop ()
        else begin
          match Ltc_service.Ndjson.arrival_exn ~line:!line_no line with
          | exception Ltc_service.Ndjson.Bad_input { line; text; reason }
            when on_bad_input = `Skip ->
            incr bad;
            Ltc_util.Metrics.Counter.incr m_bad;
            Format.eprintf "serve: dropping bad input at line %d: %s: %S@."
              line reason text;
            loop ()
          | w ->
            emit (Srv.feed server w);
            loop ()
        end
  in
  loop ();
  emit (Srv.flush server);
  (* One shard prints the plain session's summary. *)
  let sharded name v =
    if Srv.shards server = 1 then "" else Printf.sprintf " %s=%d" name v
  in
  Format.eprintf
    "serve: algorithm=%s%s consumed=%d (resumed at %d, skipped %d, bad %d) \
     latency=%d completed=%b%s@."
    (Srv.algorithm_name server)
    (sharded "shards" (Srv.shards server))
    (Srv.consumed server) (Srv.resumed_at server) (Srv.replayed server) !bad
    (Srv.latency server) (Srv.completed server)
    (sharded "stalls" (Srv.stalls server));
  if Srv.supervised server then
    Format.eprintf "serve: supervision: restarts=%d quarantined=%d shed=%d@."
      (Srv.restarts server) (Srv.quarantined server) (Srv.shed server)

let resolve_deadline deadline_s fallback_name =
  match (deadline_s, fallback_name) with
  | None, None -> None
  | None, Some _ -> die "--fallback only makes sense with --deadline"
  | Some budget_s, name ->
    let fallback = resolve_algorithm (Option.value name ~default:"Nearest") in
    Some { Ltc_service.Session.budget_s; fallback }

(* Session flags shared by serve, loadgen and chaos. *)
let accept_rate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "accept-rate" ] ~docv:"Q"
        ~doc:
          "Simulate no-shows: each assignment is honoured with probability \
           $(docv) in (0, 1].")

let journal_arg doc =
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"PATH" ~doc)

let checkpoint_every_arg ~default =
  Arg.(
    value & opt int default
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Append a partial snapshot (no arrangement) to the journal every \
           $(docv) events; every 16th one compacts the file to a single \
           full snapshot.")

let group_commit_arg =
  Arg.(
    value & opt int 1
    & info [ "group-commit" ] ~docv:"N"
        ~doc:
          "Coalesce up to $(docv) journal records into one write (and, \
           with --fsync, one fsync).  A crash loses at most the \
           uncommitted group — those arrivals are simply replayed, like \
           a torn tail.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-arrival solve budget; an arrival whose decision (injected \
           delays included) takes longer is re-decided by the fallback \
           algorithm and marked \"degraded\".")

let fallback_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fallback" ] ~docv:"NAME"
        ~doc:
          "Algorithm that decides deadline-missing arrivals (default \
           Nearest).  Requires --deadline.")

(* Loadgen and chaos replay an instance's embedded workers. *)
let stream_load_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:
          "Instance file written by $(b,ltc generate); its embedded workers \
           are the arrival stream, in index order.")

let stream_algorithm_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "algorithm"; "a" ] ~docv:"NAME"
        ~doc:"Online algorithm the stream drives.")

(* Supervision switches on when either flag departs from "unsupervised"
   defaults: a restart budget, or shed-on-overload. *)
let resolve_supervise ~max_restarts ~overload =
  match (max_restarts, overload) with
  | None, Ltc_service.Supervisor.Block -> None
  | _ ->
    (* --overload shed alone supervises with a zero restart budget
       (quarantine-on-crash), which needs no journal. *)
    Some
      {
        Ltc_service.Supervisor.max_restarts =
          Option.value max_restarts ~default:0;
        overload;
      }

(* Everything serve and loadgen need to build their Shard_server. *)
type server_opts = {
  o_seed : int;
  o_accept_rate : float option;
  o_journal : string option;
  o_checkpoint_every : int;
  o_group_commit : int;
  o_shards : int option;  (* [None]: --shards absent, one shard *)
  o_mailbox : int;
  o_supervise : Ltc_service.Supervisor.config option;
  o_deadline_s : float option;
  o_fallback : string option;
}

let server_opts =
  let shards =
    Arg.(
      value
      & opt (some ~none:"1" int) None
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Partition the task universe into $(docv) spatial shards, each \
             served by its own journaled session on its own domain \
             (journals land at PATH.shard0..PATH.shard<K-1> with a \
             manifest at PATH).  One shard is a plain session journaling \
             to PATH.")
  in
  let mailbox =
    Arg.(
      value & opt int 64
      & info [ "mailbox" ] ~docv:"N"
          ~doc:
            "Bound each shard's arrival mailbox at $(docv) entries; a full \
             mailbox blocks the router (counted as a stall), never drops.")
  in
  let max_restarts =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:
            "Supervise the shards: a shard whose session crashes is \
             restored online from its own journal, up to $(docv) times per \
             shard with exponential backoff; beyond that the shard is \
             quarantined and its arrivals are acknowledged as explicit \
             unassigned decisions.  $(docv) > 0 requires --journal.")
  in
  let overload =
    Arg.(
      value
      & opt
          (enum
             [
               ("block", Ltc_service.Supervisor.Block);
               ("shed", Ltc_service.Supervisor.Shed);
             ])
          Ltc_service.Supervisor.Block
      & info [ "overload" ] ~docv:"block|shed"
          ~doc:
            "What a full shard mailbox does to an arrival (needs --shards \
             of at least 2): $(b,block) (default) applies backpressure; \
             $(b,shed) acknowledges it immediately as an unassigned \
             degraded decision (counted in ltc_shard_shed_total) without \
             touching the shard.")
  in
  let make o_seed o_accept_rate o_journal o_checkpoint_every o_group_commit
      o_shards o_mailbox max_restarts overload o_deadline_s o_fallback =
    {
      o_seed;
      o_accept_rate;
      o_journal;
      o_checkpoint_every;
      o_group_commit;
      o_shards;
      o_mailbox;
      o_supervise = resolve_supervise ~max_restarts ~overload;
      o_deadline_s;
      o_fallback;
    }
  in
  Term.(
    const make $ seed_arg $ accept_rate_arg
    $ journal_arg
        "Journal every arrival and decision to $(docv), with periodic \
         snapshots, so the run survives a crash."
    $ checkpoint_every_arg ~default:256
    $ group_commit_arg $ shards $ mailbox $ max_restarts $ overload
    $ deadline_arg $ fallback_arg)

let create_server o ~deadline ~fsync ~mode ~algorithm instance =
  Ltc_service.Shard_server.create ?accept_rate:o.o_accept_rate ?deadline
    ?journal:o.o_journal ?supervise:o.o_supervise
    ~checkpoint_every:o.o_checkpoint_every ~fsync
    ~group_commit:o.o_group_commit ~mailbox:o.o_mailbox ~mode
    ~shards:(Option.value o.o_shards ~default:1)
    ~algorithm ~seed:o.o_seed instance

let serve_cmd_impl load algo_name o resume fsync on_bad_input log_levels
    metrics metrics_format =
  setup_observability ~verbose:false ~log_levels ~metrics;
  let fresh o =
    let load =
      match load with
      | Some p -> p
      | None -> die "serve needs --load FILE (or --resume PATH)"
    in
    let algorithm =
      match algo_name with
      | None -> die "serve needs --algorithm NAME (or --resume PATH)"
      | Some name -> resolve_algorithm name
    in
    let deadline = resolve_deadline o.o_deadline_s o.o_fallback in
    create_server o ~deadline ~fsync ~mode:Ltc_service.Shard_server.Domains
      ~algorithm
      (Ltc_core.Serialize.load_instance ~path:load)
  in
  let server =
    match resume with
    | None -> fresh o
    | Some _ when o.o_shards <> None ->
      die "--resume restores the shard count from the manifest; drop --shards"
    | Some path when Ltc_service.Session.is_empty_journal path ->
      (* The journaled run died before its header became durable, so
         there is nothing to restore — start over into the same file. *)
      Format.eprintf "serve: journal %s is empty; starting a fresh session@."
        path;
      fresh { o with o_journal = Some (Option.value o.o_journal ~default:path) }
    | Some path ->
      (* A plain journal or a shard manifest: either names the instance,
         algorithm and session options. *)
      if load <> None || algo_name <> None then
        die "--resume restores the instance and algorithm from the journal; \
             drop --load/--algorithm";
      if o.o_deadline_s <> None || o.o_fallback <> None then
        die "--resume restores the deadline from the journal; drop \
             --deadline/--fallback";
      Ltc_service.Shard_server.restore ?journal:o.o_journal
        ~mailbox:o.o_mailbox ?supervise:o.o_supervise
        ~mode:Ltc_service.Shard_server.Domains ~fsync
        ~group_commit:o.o_group_commit ~path ()
  in
  serve_stream ~on_bad_input server;
  Ltc_service.Shard_server.close server;
  write_snapshot ~metrics ~metrics_format;
  0

let serve_cmd =
  let load =
    Arg.(value & opt (some string) None
         & info [ "load" ] ~docv:"FILE"
             ~doc:"Instance file written by $(b,ltc generate); its embedded \
                   workers are ignored — arrivals come from stdin.")
  in
  let algo =
    Arg.(value & opt (some string) None
         & info [ "algorithm"; "a" ] ~docv:"NAME"
             ~doc:"Online algorithm serving the stream (one with a \
                   per-arrival policy: LAF, AAM, Random, LGF-only, \
                   LRF-only, Nearest).")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"PATH"
             ~doc:"Restore the session (or, from a shard manifest, every \
                   shard) from a journal before reading stdin; arrivals \
                   already journaled are skipped.  An empty (zero-byte) \
                   journal starts a fresh session instead — supply \
                   --load/--algorithm for that case.")
  in
  let fsync =
    Arg.(value & flag
         & info [ "fsync" ]
             ~doc:"fsync the journal after every event, not only at \
                   checkpoints — survives power loss, not just crashes.")
  in
  let on_bad_input =
    Arg.(value
         & opt (enum [ ("fail", `Fail); ("skip", `Skip) ]) `Fail
         & info [ "on-bad-input" ] ~docv:"fail|skip"
             ~doc:"What a malformed arrival line does: $(b,fail) (default) \
                   stops the stream with a structured error naming the \
                   line; $(b,skip) drops the line, warns on stderr and \
                   bumps ltc_service_bad_input_total.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"serve an NDJSON arrival stream with a resumable session")
    Term.(
      const serve_cmd_impl $ load $ algo $ server_opts $ resume $ fsync
      $ on_bad_input $ log_arg $ metrics_arg $ metrics_format_arg)

(* -------------------------------------------------------- loadgen command *)

(* Open-loop SLO measurement: drive a server with a shaped arrival
   schedule (Ltc_service.Loadgen), report coordinated-omission-corrected
   latency quantiles, and optionally dump the flight recorder as NDJSON
   and as a Perfetto-loadable Chrome trace.  The default virtual timing
   makes the whole report a pure function of the flags. *)
let loadgen_cmd_impl load algo_name o shape_spec rate arrivals service_mean
    service_dist timing slo flight_out flight_capacity trace_out
    log_levels metrics metrics_format =
  setup_observability ~verbose:false ~log_levels ~metrics;
  let algorithm = resolve_algorithm algo_name in
  let deadline = resolve_deadline o.o_deadline_s o.o_fallback in
  let instance = Ltc_core.Serialize.load_instance ~path:load in
  let workers = instance.Ltc_core.Instance.workers in
  if Array.length workers = 0 then
    die "loadgen: instance %s embeds no workers to offer" load;
  let shape =
    match Ltc_workload.Shape.of_string ~rate shape_spec with
    | Ok s -> s
    | Error m -> die "bad --shape %S: %s" shape_spec m
  in
  let config =
    {
      Ltc_service.Loadgen.shape;
      arrivals = Option.value arrivals ~default:(Array.length workers);
      service =
        (match service_dist with
        | `Fixed -> Ltc_service.Loadgen.Fixed service_mean
        | `Exp -> Ltc_service.Loadgen.Exponential service_mean);
      seed = o.o_seed;
      timing =
        (match timing with
        | `Virtual -> Ltc_service.Loadgen.Virtual
        | `Wall -> Ltc_service.Loadgen.Wall);
      slo_s = slo;
      recorder_capacity = flight_capacity;
    }
  in
  (* On the first breach the ring is dumped immediately — the black-box
     snapshot of what led up to it — and overwritten at the end of the run
     with the final state. *)
  let on_breach =
    Option.map
      (fun path ~seq recorder ->
        Ltc_service.Flight_recorder.dump recorder ~path;
        Format.eprintf
          "loadgen: SLO breached at arrival %d; flight record in %s@." seq
          path)
      flight_out
  in
  (* Virtual timing drives the process-global fault clock, so the shard
     sessions must run inline; wall timing gets the real domain-per-shard
     runtime. *)
  let mode =
    match config.Ltc_service.Loadgen.timing with
    | Ltc_service.Loadgen.Virtual -> Ltc_service.Shard_server.Inline
    | Ltc_service.Loadgen.Wall -> Ltc_service.Shard_server.Domains
  in
  let server =
    create_server o ~deadline ~fsync:false ~mode ~algorithm instance
  in
  let report = Ltc_service.Loadgen.run ?on_breach ~server ~workers config in
  Ltc_service.Shard_server.close server;
  Format.printf "%a" Ltc_service.Loadgen.pp_report report;
  Option.iter
    (fun path ->
      Ltc_service.Flight_recorder.dump report.Ltc_service.Loadgen.r_recorder
        ~path;
      Format.printf "flight record: %s@." path)
    flight_out;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Ltc_service.Flight_recorder.to_chrome_json
               report.Ltc_service.Loadgen.r_recorder));
      Format.printf "chrome trace: %s@." path)
    trace_out;
  write_snapshot ~metrics ~metrics_format;
  0

let loadgen_cmd =
  let shape =
    Arg.(value & opt string "constant"
         & info [ "shape" ] ~docv:"SPEC"
             ~doc:"Arrival shape: $(b,constant), \
                   $(b,rampup)[:from=R,over=S], \
                   $(b,diurnal)[:amp=A,period=S], \
                   $(b,burst)[:factor=F,at=S,dur=S] or \
                   $(b,pausing)[:on=S,off=S]; any shape also accepts \
                   $(b,poisson=true).")
  in
  let rate =
    Arg.(value & opt float 1000.0
         & info [ "rate" ] ~docv:"R"
             ~doc:"Base offered rate in arrivals per second.")
  in
  let arrivals =
    Arg.(value & opt (some int) None
         & info [ "arrivals"; "n" ] ~docv:"N"
             ~doc:"Arrivals to offer (default: all embedded workers).")
  in
  let service_mean =
    Arg.(value & opt float 1e-4
         & info [ "service-mean" ] ~docv:"S"
             ~doc:"Synthetic per-decision service time in seconds \
                   (virtual timing only).")
  in
  let service_dist =
    Arg.(value
         & opt (enum [ ("fixed", `Fixed); ("exp", `Exp) ]) `Fixed
         & info [ "service-dist" ] ~docv:"fixed|exp"
             ~doc:"Service-time distribution: $(b,fixed) (deterministic) \
                   or $(b,exp) (i.i.d. exponential with the given mean).")
  in
  let timing =
    Arg.(value
         & opt (enum [ ("virtual", `Virtual); ("wall", `Wall) ]) `Virtual
         & info [ "timing" ] ~docv:"virtual|wall"
             ~doc:"$(b,virtual) (default) runs on the deterministic fault \
                   clock with injected service times; $(b,wall) paces \
                   real time and measures actual policy latency \
                   (non-deterministic).")
  in
  let slo =
    Arg.(value & opt (some float) None
         & info [ "slo" ] ~docv:"SECONDS"
             ~doc:"Corrected-latency SLO; breaches are counted and the \
                   first one dumps the flight recorder (with \
                   --flight-out).")
  in
  let flight_out =
    Arg.(value & opt (some string) None
         & info [ "flight-out" ] ~docv:"FILE"
             ~doc:"Dump the flight-recorder ring as NDJSON to $(docv) \
                   (immediately on the first SLO breach, and at the end \
                   of the run).")
  in
  let flight_capacity =
    Arg.(value & opt int 4096
         & info [ "flight-capacity" ] ~docv:"N"
             ~doc:"Flight-recorder ring capacity (oldest records are \
                   overwritten beyond it).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the run as Chrome trace-event JSON (one slice \
                   per arrival), loadable in chrome://tracing or \
                   Perfetto.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"drive a session open-loop with shaped traffic and report SLO \
             latency quantiles")
    Term.(
      const loadgen_cmd_impl $ stream_load_arg $ stream_algorithm_arg
      $ server_opts $ shape $ rate $ arrivals $ service_mean $ service_dist
      $ timing $ slo $ flight_out $ flight_capacity $ trace_out
      $ log_arg $ metrics_arg $ metrics_format_arg)

(* ---------------------------------------------------------- chaos command *)

(* Replay a workload under a seeded fault plan, killing and restoring the
   session at every injected crash, and diff the surviving decision stream
   against the fault-free baseline (Ltc_service.Chaos).  Exit 0 iff the
   streams are identical. *)
let chaos_cmd =
  let impl load algo_name seed accept_rate fault_seed crashes io_errors
      torn_writes delays horizon checkpoint_every journal group_commit shards
      max_restarts deadline_s fallback_name log_levels =
    setup_observability ~verbose:false ~log_levels ~metrics:None;
    let algorithm = resolve_algorithm algo_name in
    let deadline = resolve_deadline deadline_s fallback_name in
    let instance = Ltc_core.Serialize.load_instance ~path:load in
    (match shards with
    | Some _ when deadline_s <> None || fallback_name <> None ->
      die "chaos --shards runs deadline-free; drop --deadline/--fallback"
    | None when max_restarts <> None ->
      die "chaos: --max-restarts only applies to --shards runs"
    | _ -> ());
    let journal_path =
      match journal with
      | Some p -> p
      | None -> Filename.temp_file "ltc-chaos" ".journal"
    in
    let cleanup () =
      if journal = None then
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          (journal_path
          :: List.init (Option.value shards ~default:0) (fun shard ->
                 Ltc_service.Shard_server.shard_journal_path
                   ~base:journal_path ~shard))
    in
    let module C = Ltc_service.Chaos in
    let r =
      Fun.protect ~finally:cleanup (fun () ->
          match shards with
          | Some shards ->
            (* A supervised [`Domains] server under per-shard scoped
               faults, diffed against the inline unsupervised baseline. *)
            let plan =
              C.sharded_plan ~crashes ~io_errors ~torn_writes ~delays
                ~horizon ~seed:fault_seed ~shards ()
            in
            let supervise =
              Option.map
                (fun max_restarts ->
                  { Ltc_service.Supervisor.default with max_restarts })
                max_restarts
            in
            C.run_sharded ?accept_rate ?supervise ~checkpoint_every
              ~group_commit ~plan ~shards ~algorithm ~seed
              ~journal:journal_path instance
          | None ->
            let plan =
              C.plan ~crashes ~io_errors ~torn_writes ~delays ~horizon
                ~seed:fault_seed ()
            in
            C.run ?accept_rate ?deadline ~checkpoint_every ~group_commit
              ~plan ~algorithm ~seed ~journal:journal_path instance)
    in
    let sharded = shards <> None in
    Format.printf "chaos: algorithm=%s%s arrivals=%d seed=%d fault-seed=%d@."
      algorithm.Ltc_algo.Algorithm.name
      (match shards with Some k -> Printf.sprintf " shards=%d" k | None -> "")
      r.C.arrivals seed fault_seed;
    Format.printf
      "chaos: plan: %d crashes, %d io-errors, %d torn-writes, %d delays%s \
       (horizon %d)@."
      crashes io_errors torn_writes delays
      (if sharded then " per shard" else "")
      horizon;
    Format.printf
      "chaos: fired: crashes=%d io-errors=%d torn-writes=%d delays=%d@."
      r.C.stats.Ltc_util.Fault.crashes r.C.stats.Ltc_util.Fault.io_errors
      r.C.stats.Ltc_util.Fault.torn_writes r.C.stats.Ltc_util.Fault.delays;
    (match r.C.recovery with
    | C.Kill_restore { kills; restores } ->
      Format.printf "chaos: kills=%d restores=%d degraded=%d@." kills restores
        r.C.degraded
    | C.Supervised { restarts; shard_restarts; quarantined; shed } ->
      Format.printf
        "chaos: restarts=%d (%s) quarantined=%d shed=%d degraded=%d@."
        restarts
        (String.concat ","
           (Array.to_list (Array.map string_of_int shard_restarts)))
        quarantined shed r.C.degraded);
    if r.C.identical then begin
      Format.printf "chaos: %sdecision stream identical to fault-free \
                     baseline@."
        (if sharded then "merged " else "");
      0
    end
    else begin
      Format.printf "chaos: DIVERGED: %s@."
        (Option.value r.C.divergence ~default:"(no detail)");
      1
    end
  in
  let fault_seed =
    Arg.(value & opt int 11
         & info [ "fault-seed" ] ~docv:"N"
             ~doc:"Seed for the fault plan (independent of the session \
                   seed).")
  in
  let n_of name ~default doc =
    Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)
  in
  let crashes = n_of "crashes" ~default:3 "Scripted crash faults." in
  let io_errors =
    n_of "io-errors" ~default:2 "Scripted transient I/O faults."
  in
  let torn_writes =
    n_of "torn-writes" ~default:2 "Scripted torn (partial) writes."
  in
  let delays = n_of "delays" ~default:2 "Scripted solver slowdowns." in
  let horizon =
    n_of "horizon" ~default:30
      "Faults fire within the first N visits of their site."
  in
  let shards =
    Arg.(value & opt (some int) None
         & info [ "shards" ] ~docv:"K"
             ~doc:"Run the sharded variant: a supervised domain-per-shard \
                   server under per-shard scoped fault plans (the fault \
                   counts apply to $(b,each) shard), killing and \
                   restoring individual shards online, diffed against an \
                   unsupervised inline baseline.")
  in
  let max_restarts =
    Arg.(value & opt (some int) None
         & info [ "max-restarts" ] ~docv:"N"
             ~doc:"Per-shard restart budget for --shards runs (default: \
                   large enough that the plan can never quarantine).  \
                   Small values exercise quarantine, which diverges by \
                   design.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"replay a workload under scripted faults and verify the \
             decision stream survives kill/restore byte-identically")
    Term.(
      const impl $ stream_load_arg $ stream_algorithm_arg $ seed_arg
      $ accept_rate_arg $ fault_seed
      $ crashes $ io_errors $ torn_writes $ delays $ horizon
      $ checkpoint_every_arg ~default:8
      $ journal_arg
          "Journal path for the chaos run (default: a temp file, deleted \
           afterwards)."
      $ group_commit_arg $ shards $ max_restarts $ deadline_arg
      $ fallback_arg $ log_arg)

(* -------------------------------------------------------- journal command *)

(* Offline journal tooling (Ltc_service.Session.Journal): inspect a
   journal's header and record structure without building a session.  An
   old text or v3 journal is upgraded by restoring it (ltc serve --resume
   OLD --journal NEW writes the v4 binary copy and leaves OLD alone). *)
let journal_cmd =
  let path_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATH" ~doc:"Journal file to read.")
  in
  (* A missing or directory path would otherwise surface as a raw
     Sys_error; name the problem in one structured line instead. *)
  let require_journal_file path =
    if not (Sys.file_exists path) then
      die "journal inspect: %s: no such file" path;
    if Sys.is_directory path then
      die "journal inspect: %s is a directory, not a journal file" path
  in
  let inspect_cmd =
    (* One shard journal, summarized on a single line: codec, record
       counts, durable prefix and torn-tail status. *)
    let inspect_shard ~base k =
      let module J = Ltc_service.Session.Journal in
      let path =
        Ltc_service.Shard_server.shard_journal_path ~base ~shard:k
      in
      if not (Sys.file_exists path) then
        Format.printf "shard %d: %s: missing (fresh on restore)@." k path
      else if Ltc_service.Session.is_empty_journal path then
        Format.printf "shard %d: %s: empty (fresh on restore)@." k path
      else
        let info = J.inspect ~path in
        Format.printf
          "shard %d: %s: codec=%s snapshots=%d partial=%d events=%d \
           consumed=%d bytes=%d %s@."
          k path
          (Ltc_service.Session.codec_name info.J.codec)
          info.J.snapshots info.J.partial_snapshots info.J.events
          info.J.consumed info.J.file_bytes
          (if info.J.torn_bytes = 0 then "clean"
           else Printf.sprintf "torn-tail=%dB" info.J.torn_bytes)
    in
    (* The header both file kinds carry; a manifest's fsync and
       group-commit lines print before the deadline, as the file has them. *)
    let print_header ?(mid = ignore) (h : Ltc_service.Session.header) =
      Format.printf "algorithm: %s@." h.algorithm.Ltc_algo.Algorithm.name;
      Format.printf "seed: %d@." h.seed;
      (match h.accept_rate with
      | None -> Format.printf "accept_rate: none@."
      | Some q -> Format.printf "accept_rate: %g@." q);
      Format.printf "checkpoint_every: %d@." h.checkpoint_every;
      mid ();
      (match h.deadline with
      | None -> Format.printf "deadline: none@."
      | Some d ->
        Format.printf "deadline: %g %s@." d.budget_s
          d.fallback.Ltc_algo.Algorithm.name);
      Format.printf "tasks: %d@." (Ltc_core.Instance.task_count h.instance)
    in
    let inspect_manifest path =
      let m = Ltc_service.Shard_server.read_manifest ~path in
      Format.printf "manifest: %s@." path;
      Format.printf "shards: %d@." m.shards;
      Format.printf "mailbox: %d@." m.mailbox;
      print_header m.header ~mid:(fun () ->
          Format.printf "fsync: %b@." m.fsync;
          Format.printf "group_commit: %d@." m.group_commit);
      for k = 0 to m.shards - 1 do
        inspect_shard ~base:path k
      done;
      0
    in
    let impl path fingerprint =
      require_journal_file path;
      if Ltc_service.Shard_server.is_manifest path then begin
        if fingerprint then
          die "journal inspect: --fingerprint applies to plain session \
               journals, not shard manifests";
        inspect_manifest path
      end
      else begin
      let module J = Ltc_service.Session.Journal in
      let info = J.inspect ~path in
      Format.printf "journal: %s@." path;
      Format.printf "version: v%d@." info.J.version;
      Format.printf "codec: %s@."
        (Ltc_service.Session.codec_name info.J.codec);
      print_header info.J.header;
      Format.printf "file_bytes: %d@." info.J.file_bytes;
      Format.printf "torn_bytes: %d@." info.J.torn_bytes;
      Format.printf "snapshots: %d@." info.J.snapshots;
      Format.printf "partial_snapshots: %d@." info.J.partial_snapshots;
      Format.printf "events: %d@." info.J.events;
      Format.printf "consumed: %d@." info.J.consumed;
      (match info.J.snapshot_offsets with
      | [] -> Format.printf "snapshot_offsets: none@."
      | offs ->
        Format.printf "snapshot_offsets:%s@."
          (String.concat ""
             (List.map (Printf.sprintf " %d") offs)));
      if fingerprint then begin
        (* Restore through a throwaway redirect journal so the inspected
           file is never written to. *)
        let tmp = Filename.temp_file "ltc-journal" ".inspect" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
          (fun () ->
            let s = Ltc_service.Session.restore ~journal:tmp ~path () in
            let policy, noshow = Ltc_service.Session.rng_states s in
            Format.printf
              "fingerprint: consumed=%d latency=%d rng=%Ld,%Ld \
               completed=%b@."
              (Ltc_service.Session.consumed s)
              (Ltc_service.Session.latency s)
              policy noshow
              (Ltc_service.Session.completed s);
            Ltc_service.Session.close s)
      end;
      0
      end
    in
    let fingerprint =
      Arg.(
        value & flag
        & info [ "fingerprint" ]
            ~doc:
              "Additionally restore the session (into a throwaway \
               redirect journal — $(docv) itself is not modified) and \
               print its determinism fingerprint: consumed, latency and \
               both RNG states.")
    in
    Cmd.v
      (Cmd.info "inspect"
         ~doc:"print a journal's header, codec, record counts and \
               checkpoint positions; on a shard manifest, enumerate and \
               summarize every shard journal")
      Term.(const impl $ path_pos $ fingerprint)
  in
  Cmd.group
    (Cmd.info "journal" ~doc:"inspect session journal files offline")
    [ inspect_cmd ]

let main =
  let doc = "latency-oriented task completion via spatial crowdsourcing" in
  Cmd.group
    (Cmd.info "ltc" ~doc ~version:"1.0.0")
    [
      run_cmd; generate_cmd; bounds_cmd; infer_cmd; serve_cmd; loadgen_cmd;
      chaos_cmd; journal_cmd;
    ]

(* Turn expected failures (missing files, corrupt inputs, bad parameters)
   into clean error messages instead of backtraces. *)
let () =
  match Cmd.eval' ~catch:false main with
  | code -> exit code
  | exception Sys_error message ->
    Format.eprintf "ltc: %s@." message;
    exit 2
  | exception Ltc_core.Serialize.Parse_error { line; message } ->
    Format.eprintf "ltc: parse error at line %d: %s@." line message;
    exit 2
  | exception Ltc_service.Ndjson.Bad_input { line; text; reason } ->
    Format.eprintf "ltc: bad input at line %d: %s: %S@." line reason text;
    exit 2
  | exception Ltc_service.Session.Corrupt_journal { path; message } ->
    Format.eprintf "ltc: corrupt journal %s: %s@." path message;
    exit 2
  | exception Invalid_argument message ->
    Format.eprintf "ltc: invalid argument: %s@." message;
    exit 2
  | exception Failure message ->
    Format.eprintf "ltc: %s@." message;
    exit 2
