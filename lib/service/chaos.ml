module Fault = Ltc_util.Fault

type report = {
  identical : bool;
  divergence : string option;
  arrivals : int;
  crashes : int;
  restores : int;
  degraded : int;
  stats : Fault.stats;
  baseline : Session.decision array;
  survived : Session.decision array;
}

(* Everything that must survive a kill/restore cycle bit-for-bit. *)
type fingerprint = {
  f_rng : int64 * int64;
  f_consumed : int;
  f_latency : int;
  f_assignments : Ltc_core.Arrangement.assignment list;
}

let fingerprint s =
  {
    f_rng = Session.rng_states s;
    f_consumed = Session.consumed s;
    f_latency = Session.latency s;
    f_assignments = Ltc_core.Arrangement.to_list (Session.arrangement s);
  }

let decision_eq (a : Session.decision) (b : Session.decision) =
  a.worker = b.worker && a.assigned = b.assigned && a.answered = b.answered
  && a.completed = b.completed && a.latency = b.latency
  && a.degraded = b.degraded

let pp_decision (d : Session.decision) =
  Printf.sprintf "{assigned=[%s]; answered=[%s]; completed=%b; latency=%d%s}"
    (String.concat "," (List.map string_of_int d.assigned))
    (String.concat "," (List.map string_of_int d.answered))
    d.completed d.latency
    (if d.degraded then "; degraded" else "")

(* One full pass of the stream.  [record] sees every consuming decision
   (via the session hook, pre-append) and every completion ack (via the
   return value — acks touch neither RNG nor journal and cannot crash). *)
let feed_all ~record session workers =
  let n = Array.length workers in
  let i = ref (Session.consumed !session) in
  while !i < n do
    let d = Session.feed !session workers.(!i) in
    record d;
    incr i
  done

let baseline_run ?accept_rate ?deadline ~plan ~algorithm ~seed instance
    workers =
  let n = Array.length workers in
  let decisions = Array.make n None in
  let record (d : Session.decision) =
    decisions.(d.worker - 1) <- Some d
  in
  (* Delays are the one fault class with a sanctioned effect on decisions
     (deadline degradation), so the baseline keeps them and drops the
     rest: whatever they change, they must change in both runs. *)
  Fault.arm
    (List.filter
       (fun (f : Fault.fault) ->
         match f.action with Fault.Delay _ -> true | _ -> false)
       plan);
  Fault.Clock.set_virtual 0.0;
  let s =
    Session.create ?accept_rate ?deadline ~on_decision:record ~algorithm
      ~seed instance
  in
  feed_all ~record (ref s) workers;
  (Array.map Option.get decisions, fingerprint s)

let chaos_run ?accept_rate ?deadline ?checkpoint_every ?group_commit
    ~max_restores ~plan ~algorithm ~seed ~journal instance workers =
  let n = Array.length workers in
  let decisions = Array.make n None in
  let record (d : Session.decision) =
    decisions.(d.worker - 1) <- Some d
  in
  let crashes = ref 0 in
  let restores = ref 0 in
  Fault.arm plan;
  Fault.Clock.set_virtual 0.0;
  (try Sys.remove journal with Sys_error _ -> ());
  let killed () =
    incr crashes;
    if !crashes > max_restores then
      failwith
        (Printf.sprintf
           "Chaos.run: %d session kills exceed the restore budget %d — \
            the fault plan is not one-shot or recovery is looping"
           !crashes max_restores)
  in
  (* (Re)build a live session after a kill: restore when the journal holds
     a durable header, start fresh when it does not (a create-time crash
     leaves the file empty).  Restores can themselves crash — their
     compaction passes the same fault sites — hence the loop. *)
  let rec obtain () =
    if (not (Sys.file_exists journal)) || Session.is_empty_journal journal
    then
      match
        Session.create ?accept_rate ?deadline ?checkpoint_every ?group_commit
          ~on_decision:record ~journal ~fsync:true ~algorithm ~seed instance
      with
      | s -> s
      | exception (Fault.Injected_crash _ | Fault.Injected_io _) ->
        killed ();
        obtain ()
    else
      match
        Session.restore ~on_decision:record ~fsync:true ?group_commit
          ~path:journal ()
      with
      | s ->
        incr restores;
        s
      | exception (Fault.Injected_crash _ | Fault.Injected_io _) ->
        killed ();
        obtain ()
  in
  let session = ref (obtain ()) in
  let continue = ref true in
  while !continue do
    match feed_all ~record session workers with
    | () -> continue := false
    | exception (Fault.Injected_crash _ | Fault.Injected_io _) ->
      killed ();
      session := obtain ()
  done;
  let stats = Fault.stats () in
  Session.close !session;
  (Array.map Option.get decisions, fingerprint !session, !crashes, !restores,
   stats)

let diff_streams baseline survived fp_base fp_chaos =
  let n = Array.length baseline in
  let divergence = ref None in
  let note msg = if !divergence = None then divergence := Some msg in
  for i = 0 to n - 1 do
    if not (decision_eq baseline.(i) survived.(i)) then
      note
        (Printf.sprintf "arrival %d: baseline %s vs survived %s" (i + 1)
           (pp_decision baseline.(i))
           (pp_decision survived.(i)))
  done;
  if fp_base <> fp_chaos then
    note
      (Printf.sprintf
         "final state: consumed %d/%d, latency %d/%d, rng (%Ld,%Ld)/(%Ld,%Ld), \
          %d/%d assignments (baseline/survived)"
         fp_base.f_consumed fp_chaos.f_consumed fp_base.f_latency
         fp_chaos.f_latency (fst fp_base.f_rng) (snd fp_base.f_rng)
         (fst fp_chaos.f_rng) (snd fp_chaos.f_rng)
         (List.length fp_base.f_assignments)
         (List.length fp_chaos.f_assignments));
  !divergence

(* ------------------------------------------------------------- sharded *)

type sharded_report = {
  s_identical : bool;
  s_divergence : string option;
  s_arrivals : int;
  s_shards : int;
  s_restarts : int;
  s_shard_restarts : int array;
  s_quarantined : int;
  s_shed : int;
  s_degraded : int;
  s_stats : Fault.stats;
  s_baseline : Session.decision array;
  s_survived : Session.decision array;
}

(* Per-shard scoped fault plan: each shard gets its own seeded sub-plan
   over its scoped journal sites, so every shard's crash schedule is
   deterministic (the shard domain is the single writer of its scoped hit
   counters) and independent of its siblings.  ["journal.header"] is
   excluded: the initial create is not supervised. *)
let sharded_plan ?(crashes = 1) ?(io_errors = 0) ?(torn_writes = 0)
    ?(delays = 0) ?(horizon = 40) ~seed ~shards () =
  let rng = Ltc_util.Rng.create ~seed in
  List.concat
    (List.init shards (fun k ->
         let scope = Supervisor.scope ~shard:k in
         let s site = Fault.scope_site ~scope site in
         Fault.plan ~crashes ~io_errors ~torn_writes ~delays ~horizon
           ~seed:(Ltc_util.Rng.split_seed rng)
           ~sites:
             [
               s "journal.append.fsync";
               s "journal.checkpoint.fsync";
               s "journal.checkpoint.rename";
               s "journal.checkpoint.dir";
             ]
           ~write_sites:[ s "journal.append"; s "journal.checkpoint.write" ]
           ~delay_sites:[ s "session.decide" ]
           ()))

let sharded_fingerprint server =
  ( Shard_server.consumed server,
    Shard_server.latency server,
    Shard_server.completed server,
    Ltc_core.Arrangement.to_list (Shard_server.arrangement server) )

let feed_all_sharded ~record server workers =
  Array.iter
    (fun w -> List.iter record (Shard_server.feed server w))
    workers;
  List.iter record (Shard_server.flush server)

let run_sharded ?accept_rate ?(checkpoint_every = 64) ?group_commit ?mailbox
    ?supervise ~plan ~shards ~algorithm ~seed ~journal
    (instance : Ltc_core.Instance.t) =
  let workers = instance.Ltc_core.Instance.workers in
  if Array.length workers = 0 then
    invalid_arg "Chaos.run_sharded: the instance has no workers to stream";
  let n = Array.length workers in
  let supervise =
    match supervise with
    | Some c -> c
    | None ->
      { Supervisor.default with max_restarts = 10 + List.length plan }
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Fault.Clock.clear ())
    (fun () ->
      (* Baseline: the same sharded computation, inline, journal-less and
         unsupervised.  Unscoped, so the scoped plan cannot touch it —
         only [Delay] faults are re-armed, and without a deadline (the
         sharded harness runs deadline-free) they are decision-inert. *)
      let collect run =
        let decisions = Array.make n None in
        let record (d : Session.decision) =
          decisions.(d.worker - 1) <- Some d
        in
        run record;
        Array.mapi
          (fun i d ->
            match d with
            | Some d -> d
            | None ->
              failwith
                (Printf.sprintf
                   "Chaos.run_sharded: arrival %d was never released"
                   (i + 1)))
          decisions
      in
      Fault.arm
        (List.filter
           (fun (f : Fault.fault) ->
             match f.action with Fault.Delay _ -> true | _ -> false)
           plan);
      Fault.Clock.set_virtual 0.0;
      let base_server =
        Shard_server.create ?accept_rate ~checkpoint_every ~mode:Shard_server.Inline
          ~shards ~algorithm ~seed instance
      in
      let baseline =
        collect (fun record -> feed_all_sharded ~record base_server workers)
      in
      let fp_base = sharded_fingerprint base_server in
      Shard_server.close base_server;
      (* Chaos: the supervised concurrent runtime under the full plan. *)
      (try Sys.remove journal with Sys_error _ -> ());
      for k = 0 to shards - 1 do
        try Sys.remove (Shard_server.shard_journal_path ~base:journal ~shard:k)
        with Sys_error _ -> ()
      done;
      Fault.arm plan;
      Fault.Clock.set_virtual 0.0;
      let server =
        Shard_server.create ?accept_rate ?group_commit ?mailbox ~journal
          ~checkpoint_every ~fsync:true ~mode:Shard_server.Domains ~supervise
          ~shards ~algorithm ~seed instance
      in
      let survived =
        collect (fun record -> feed_all_sharded ~record server workers)
      in
      let fp_chaos = sharded_fingerprint server in
      let stats = Fault.stats () in
      let restarts = Shard_server.restarts server in
      let shard_restarts = Shard_server.shard_restarts server in
      let quarantined = Shard_server.quarantined server in
      let shed = Shard_server.shed server in
      Shard_server.close server;
      let divergence = ref None in
      let note msg = if !divergence = None then divergence := Some msg in
      for i = 0 to n - 1 do
        if not (decision_eq baseline.(i) survived.(i)) then
          note
            (Printf.sprintf "arrival %d: baseline %s vs survived %s" (i + 1)
               (pp_decision baseline.(i))
               (pp_decision survived.(i)))
      done;
      (let c_b, l_b, done_b, a_b = fp_base in
       let c_c, l_c, done_c, a_c = fp_chaos in
       if (c_b, l_b, done_b) <> (c_c, l_c, done_c) || a_b <> a_c then
         note
           (Printf.sprintf
              "final state: consumed %d/%d, latency %d/%d, completed \
               %b/%b, %d/%d assignments (baseline/survived)"
              c_b c_c l_b l_c done_b done_c (List.length a_b)
              (List.length a_c)));
      {
        s_identical = !divergence = None;
        s_divergence = !divergence;
        s_arrivals = n;
        s_shards = shards;
        s_restarts = restarts;
        s_shard_restarts = shard_restarts;
        s_quarantined = quarantined;
        s_shed = shed;
        s_degraded =
          Array.fold_left
            (fun acc (d : Session.decision) ->
              if d.degraded then acc + 1 else acc)
            0 survived;
        s_stats = stats;
        s_baseline = baseline;
        s_survived = survived;
      })

let run ?accept_rate ?deadline ?checkpoint_every ?group_commit ~plan
    ~algorithm ~seed ~journal (instance : Ltc_core.Instance.t) =
  let workers = instance.Ltc_core.Instance.workers in
  if Array.length workers = 0 then
    invalid_arg "Chaos.run: the instance has no workers to stream";
  let max_restores = 10 + (4 * List.length plan) in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Fault.Clock.clear ())
    (fun () ->
      let baseline, fp_base =
        baseline_run ?accept_rate ?deadline ~plan ~algorithm ~seed instance
          workers
      in
      let survived, fp_chaos, crashes, restores, stats =
        chaos_run ?accept_rate ?deadline ?checkpoint_every ?group_commit
          ~max_restores ~plan ~algorithm ~seed ~journal
          instance workers
      in
      let divergence = diff_streams baseline survived fp_base fp_chaos in
      {
        identical = divergence = None;
        divergence;
        arrivals = Array.length workers;
        crashes;
        restores;
        degraded =
          Array.fold_left
            (fun acc (d : Session.decision) ->
              if d.degraded then acc + 1 else acc)
            0 survived;
        stats;
        baseline;
        survived;
      })
