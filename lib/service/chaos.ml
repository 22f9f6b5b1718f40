module Fault = Ltc_util.Fault
module Arrangement = Ltc_core.Arrangement

type recovery =
  | Kill_restore of { kills : int; restores : int }
  | Supervised of {
      restarts : int;
      shard_restarts : int array;
      quarantined : int;
      shed : int;
    }

type report = {
  identical : bool;
  divergence : string option;
  arrivals : int;
  recovery : recovery;
  degraded : int;
  stats : Fault.stats;
  baseline : Session.decision array;
  survived : Session.decision array;
}

(* ---------------------------------------------------------- fault plans *)

(* The journal fault sites Session probes, beside "journal.header" (the
   header write at create) and "session.decide" (where delays go).  Every
   one can crash or fail; the two writes can also tear. *)
let sites =
  [
    "journal.append.fsync";
    "journal.checkpoint.fsync";
    "journal.checkpoint.rename";
    "journal.checkpoint.dir";
  ]

let write_sites = [ "journal.append"; "journal.checkpoint.write" ]

let site_plan ?(crashes = 1) ?(io_errors = 0) ?(torn_writes = 0)
    ?(delays = 0) ?(horizon = 40) ~site ~header ~seed () =
  Fault.plan ~crashes ~io_errors ~torn_writes ~delays ~horizon ~seed
    ~sites:(List.map site (header @ sites))
    ~write_sites:(List.map site write_sites)
    ~delay_sites:[ site "session.decide" ] ()

(* One session: a kill at the header write leaves an empty journal, from
   which [run] starts over. *)
let plan ?crashes ?io_errors ?torn_writes ?delays ?horizon ~seed () =
  site_plan ?crashes ?io_errors ?torn_writes ?delays ?horizon ~seed
    ~site:Fun.id ~header:[ "journal.header" ] ()

(* Each shard gets its own seeded sub-plan over its scoped sites, so every
   shard's crash schedule is deterministic (the shard domain is the single
   writer of its scoped hit counters) and independent of its siblings.
   No header: the initial create is not supervised. *)
let sharded_plan ?crashes ?io_errors ?torn_writes ?delays ?horizon ~seed
    ~shards () =
  let rng = Ltc_util.Rng.create ~seed in
  List.concat
    (List.init shards (fun shard ->
         site_plan ?crashes ?io_errors ?torn_writes ?delays ?horizon
           ~site:(Fault.scope_site ~scope:(Supervisor.scope ~shard))
           ~header:[] ~seed:(Ltc_util.Rng.split_seed rng) ()))

(* ------------------------------------------------------------- harness *)

(* Everything a run must end with exactly as the baseline does. *)
type fingerprint = {
  consumed : int;
  latency : int;
  completed : bool;
  assignments : Arrangement.assignment list;
  rngs : (int64 * int64) array;  (* per shard *)
}

let fingerprint server =
  {
    consumed = Shard_server.consumed server;
    latency = Shard_server.latency server;
    completed = Shard_server.completed server;
    assignments = Arrangement.to_list (Shard_server.arrangement server);
    rngs = Shard_server.rng_states server;
  }

let session_fingerprint s =
  {
    consumed = Session.consumed s;
    latency = Session.latency s;
    completed = Session.completed s;
    assignments = Arrangement.to_list (Session.arrangement s);
    rngs = [| Session.rng_states s |];
  }

(* Decisions by arrival: [record] keeps an arrival's latest decision,
   [collect] returns them all once the stream is done. *)
let capture n =
  let decisions = Array.make n None in
  let record (d : Session.decision) = decisions.(d.worker - 1) <- Some d in
  let collect () =
    Array.mapi
      (fun i -> function
        | Some d -> d
        | None ->
          failwith
            (Printf.sprintf "Chaos: arrival %d was never released" (i + 1)))
      decisions
  in
  (record, collect)

let feed_server ~record server workers =
  Array.iter (fun w -> List.iter record (Shard_server.feed server w)) workers;
  List.iter record (Shard_server.flush server)

let pp_decision (d : Session.decision) =
  Printf.sprintf "{assigned=[%s]; answered=[%s]; completed=%b; latency=%d%s}"
    (String.concat "," (List.map string_of_int d.assigned))
    (String.concat "," (List.map string_of_int d.answered))
    d.completed d.latency
    (if d.degraded then "; degraded" else "")

(* The first difference: an arrival's decision, else the final state. *)
let diff (baseline, b) (survived, s) =
  let first = ref None in
  Array.iteri
    (fun i d ->
      if !first = None && d <> survived.(i) then
        first :=
          Some
            (Printf.sprintf "arrival %d: baseline %s vs survived %s" (i + 1)
               (pp_decision d) (pp_decision survived.(i))))
    baseline;
  if !first <> None || b = s then !first
  else
    let rngs fp =
      String.concat ";"
        (Array.to_list
           (Array.map (fun (p, q) -> Printf.sprintf "(%Ld,%Ld)" p q) fp.rngs))
    in
    Some
      (Printf.sprintf
         "final state: consumed %d/%d, latency %d/%d, completed %b/%b, rng \
          %s/%s, %d/%d assignments (baseline/survived)"
         b.consumed s.consumed b.latency s.latency b.completed s.completed
         (rngs b) (rngs s)
         (List.length b.assignments)
         (List.length s.assignments))

(* Both runs over the virtual clock, always leaving the plan disarmed and
   the clock cleared.  The baseline is an [Inline] server with no journal
   and no supervisor, at the run's shard count (one shard is the plain
   session), armed with the plan's [Delay]s alone: the one fault class
   allowed to change decisions (through a deadline), so whatever they
   change, they change in both runs.  An unsupervised server probes
   unscoped, so a sharded plan's scoped delays never reach it.  [chaos]
   runs under the whole plan, feeding [record], and returns its final
   fingerprint, its recovery counters and the faults that fired. *)
let harness ?accept_rate ?deadline ~plan ~shards ~algorithm ~seed
    (instance : Ltc_core.Instance.t) chaos =
  let workers = instance.Ltc_core.Instance.workers in
  let n = Array.length workers in
  if n = 0 then invalid_arg "Chaos: the instance has no workers to stream";
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Fault.Clock.clear ())
    (fun () ->
      Fault.arm
        (List.filter
           (fun (f : Fault.fault) ->
             match f.action with Fault.Delay _ -> true | _ -> false)
           plan);
      Fault.Clock.set_virtual 0.0;
      let record, collect = capture n in
      let server =
        Shard_server.create ?accept_rate ?deadline ~mode:Shard_server.Inline
          ~shards ~algorithm ~seed instance
      in
      feed_server ~record server workers;
      let base = (collect (), fingerprint server) in
      Shard_server.close server;
      Fault.arm plan;
      Fault.Clock.set_virtual 0.0;
      let record, collect = capture n in
      let fp, recovery, stats = chaos ~record workers in
      let survived = collect () in
      let divergence = diff base (survived, fp) in
      {
        identical = divergence = None;
        divergence;
        arrivals = n;
        recovery;
        degraded =
          Array.fold_left
            (fun acc (d : Session.decision) ->
              if d.degraded then acc + 1 else acc)
            0 survived;
        stats;
        baseline = fst base;
        survived;
      })

let remove path = try Sys.remove path with Sys_error _ -> ()

(* Kill the whole session at every injected crash (or transient error
   that outlives its retries) and restore it from its journal.  [record]
   is the session's [on_decision] hook, which fires before the journal
   append, so a decision whose append crashed is still seen, and re-made
   after the restore. *)
let run ?accept_rate ?deadline ?checkpoint_every ?group_commit ~plan
    ~algorithm ~seed ~journal instance =
  let max_kills = 10 + (4 * List.length plan) in
  harness ?accept_rate ?deadline ~plan ~shards:1 ~algorithm ~seed instance
  @@ fun ~record workers ->
  remove journal;
  let kills = ref 0 and restores = ref 0 in
  let killed () =
    incr kills;
    if !kills > max_kills then
      failwith
        (Printf.sprintf
           "Chaos.run: %d session kills exceed the restore budget %d — the \
            fault plan is not one-shot or recovery is looping"
           !kills max_kills)
  in
  (* Restore when the journal holds a durable header, start fresh when it
     does not (a create-time crash leaves the file empty).  Restores can
     crash too — their compaction passes the same fault sites. *)
  let rec obtain () =
    let fresh =
      (not (Sys.file_exists journal)) || Session.is_empty_journal journal
    in
    match
      if fresh then
        Session.create ?accept_rate ?deadline ?checkpoint_every ?group_commit
          ~on_decision:record ~journal ~fsync:true ~algorithm ~seed instance
      else
        Session.restore ~on_decision:record ~fsync:true ?group_commit
          ~path:journal ()
    with
    | s ->
      if not fresh then incr restores;
      s
    | exception (Fault.Injected_crash _ | Fault.Injected_io _) ->
      killed ();
      obtain ()
  in
  (* Completion acks touch neither RNG nor journal and cannot crash; they
     come back from [feed] alone. *)
  let rec feed s =
    match
      for i = Session.consumed s to Array.length workers - 1 do
        record (Session.feed s workers.(i))
      done
    with
    | () -> s
    | exception (Fault.Injected_crash _ | Fault.Injected_io _) ->
      killed ();
      feed (obtain ())
  in
  let s = feed (obtain ()) in
  let stats = Fault.stats () in
  Session.close s;
  (session_fingerprint s, Kill_restore { kills = !kills; restores = !restores },
   stats)

(* A supervised [Domains] server: the supervisor restores a killed shard
   online and re-feeds what its mailbox lost, while its siblings run on. *)
let run_sharded ?accept_rate ?(checkpoint_every = 64) ?group_commit
    ?supervise ~plan ~shards ~algorithm ~seed ~journal instance =
  let supervise =
    match supervise with
    | Some c -> c
    | None -> { Supervisor.default with max_restarts = 10 + List.length plan }
  in
  harness ?accept_rate ~plan ~shards ~algorithm ~seed instance
  @@ fun ~record workers ->
  List.iter remove
    (journal
    :: List.init shards (fun shard ->
           Shard_server.shard_journal_path ~base:journal ~shard));
  let server =
    Shard_server.create ?accept_rate ?group_commit ~journal ~checkpoint_every
      ~fsync:true ~mode:Shard_server.Domains ~supervise ~shards ~algorithm
      ~seed instance
  in
  feed_server ~record server workers;
  let fp = fingerprint server in
  let stats = Fault.stats () in
  let recovery =
    Supervised
      {
        restarts = Shard_server.restarts server;
        shard_restarts = Shard_server.shard_restarts server;
        quarantined = Shard_server.quarantined server;
        shed = Shard_server.shed server;
      }
  in
  Shard_server.close server;
  (fp, recovery, stats)
