(* Ltc_service.Session: engine parity, kill/restore determinism, journal
   robustness.  The bar is byte-identity — a restored session must be
   indistinguishable from one that never stopped: same arrangement, same
   latency, same consumed count, same RNG states. *)

open Ltc_service

let small_instance ?(n_tasks = 8) ?(n_workers = 25) ?(capacity = 3)
    ?(epsilon = 0.25) ~seed () =
  let spec =
    {
      Ltc_workload.Spec.default_synthetic with
      Ltc_workload.Spec.n_tasks;
      n_workers;
      capacity;
      epsilon;
      world_side = 120.0;
    }
  in
  Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed) spec

let arrivals (i : Ltc_core.Instance.t) = Array.to_list i.Ltc_core.Instance.workers

(* Mirror of the session's seed -> (policy, no-show) stream derivation,
   used to build the Engine.run reference. *)
let reference_rngs ~seed =
  let root = Ltc_util.Rng.create ~seed in
  let policy_rng = Ltc_util.Rng.split root in
  let noshow_rng = Ltc_util.Rng.split root in
  (policy_rng, noshow_rng)

let feed_all session ws = List.map (Session.feed session) ws

let fingerprint session =
  ( Ltc_core.Arrangement.to_list (Session.arrangement session),
    Session.latency session,
    Session.consumed session,
    Session.completed session,
    Session.rng_states session )

let online_algorithms =
  [
    Ltc_algo.Algorithm.laf;
    Ltc_algo.Algorithm.aam;
    Ltc_algo.Algorithm.random;
    Ltc_algo.Algorithm.lgf;
    Ltc_algo.Algorithm.nearest_first;
  ]

(* ------------------------------------------------------- engine parity *)

let check_engine_parity ~accept_rate (algo : Ltc_algo.Algorithm.t) =
  let seed = 1234 in
  let instance = small_instance ~seed:11 () in
  let policy_rng, noshow_rng = reference_rngs ~seed in
  let reference =
    Ltc_algo.Engine.run
      ~config:
        {
          Ltc_algo.Engine.accept_rate;
          rng = (if accept_rate = None then None else Some noshow_rng);
          degrade = None;
        }
      ~name:algo.Ltc_algo.Algorithm.name
      ((Option.get algo.Ltc_algo.Algorithm.policy) policy_rng)
      instance
  in
  let session =
    Session.create ?accept_rate ~algorithm:algo ~seed instance
  in
  ignore (feed_all session (arrivals instance));
  let label what = Printf.sprintf "%s %s" algo.Ltc_algo.Algorithm.name what in
  Alcotest.(check (list (pair int int)))
    (label "arrangement")
    (Ltc_core.Arrangement.to_list reference.Ltc_algo.Engine.arrangement
      |> List.map (fun a ->
             (a.Ltc_core.Arrangement.worker, a.Ltc_core.Arrangement.task)))
    (Ltc_core.Arrangement.to_list (Session.arrangement session)
      |> List.map (fun a ->
             (a.Ltc_core.Arrangement.worker, a.Ltc_core.Arrangement.task)));
  Alcotest.(check int)
    (label "latency") reference.Ltc_algo.Engine.latency (Session.latency session);
  Alcotest.(check int)
    (label "consumed") reference.Ltc_algo.Engine.workers_consumed
    (Session.consumed session);
  Alcotest.(check bool)
    (label "completed") reference.Ltc_algo.Engine.completed
    (Session.completed session)

let test_feed_matches_engine () =
  List.iter (check_engine_parity ~accept_rate:None) online_algorithms

let test_feed_matches_engine_noshow () =
  List.iter (check_engine_parity ~accept_rate:(Some 0.7)) online_algorithms

(* --------------------------------------------- kill/restore determinism *)

let with_tmp_journal f =
  let path = Filename.temp_file "ltc_service_test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Kill at EVERY arrival index: run k events into a journal, abandon the
   session (no close — crash semantics), restore, feed the rest, and
   demand the full fingerprint of the uninterrupted run. *)
let check_kill_restore_everywhere ~accept_rate ~checkpoint_every algo =
  let seed = 77 in
  let instance = small_instance ~seed:23 () in
  let ws = arrivals instance in
  let uninterrupted =
    let s = Session.create ?accept_rate ~algorithm:algo ~seed instance in
    ignore (feed_all s ws);
    fingerprint s
  in
  let n = List.length ws in
  for k = 0 to n do
    with_tmp_journal @@ fun path ->
    let s =
      Session.create ?accept_rate ~journal:path ~checkpoint_every
        ~algorithm:algo ~seed instance
    in
    List.iteri (fun j w -> if j < k then ignore (Session.feed s w)) ws;
    (* no close: the journal must already be complete on disk *)
    let s' = Session.restore ~path () in
    Alcotest.(check int)
      (Printf.sprintf "consumed after restore at %d" k)
      k (Session.consumed s');
    List.iteri (fun j w -> if j >= k then ignore (Session.feed s' w)) ws;
    Session.close s';
    if fingerprint s' <> uninterrupted then
      Alcotest.failf "%s: restore at arrival %d diverges from the \
                      uninterrupted run"
        algo.Ltc_algo.Algorithm.name k
  done

let test_kill_restore_everywhere () =
  check_kill_restore_everywhere ~accept_rate:None ~checkpoint_every:4
    Ltc_algo.Algorithm.laf;
  check_kill_restore_everywhere ~accept_rate:None ~checkpoint_every:4
    Ltc_algo.Algorithm.random

(* Binary journal with group commit, killed at EVERY arrival index.  A
   kill loses exactly the records buffered past the last committed
   group, so restore must land on the last commit boundary — mirrored
   here from the session's commit discipline (a commit fires when the
   group fills and at every checkpoint) — and re-feeding from there must
   reproduce the uninterrupted fingerprint. *)
let check_kill_restore_group_commit ~accept_rate ~checkpoint_every
    ~group_commit algo =
  let seed = 77 in
  let instance = small_instance ~seed:23 () in
  let ws = arrivals instance in
  let uninterrupted =
    let s = Session.create ?accept_rate ~algorithm:algo ~seed instance in
    ignore (feed_all s ws);
    fingerprint s
  in
  let durable_after k =
    let durable = ref 0 and pending = ref 0 and since = ref 0 in
    for e = 1 to k do
      incr pending;
      incr since;
      if !pending >= group_commit then begin
        durable := e;
        pending := 0
      end;
      if !since >= checkpoint_every then begin
        durable := e;
        pending := 0;
        since := 0
      end
    done;
    !durable
  in
  let n = List.length ws in
  for k = 0 to n do
    with_tmp_journal @@ fun path ->
    let s =
      Session.create ?accept_rate ~journal:path ~checkpoint_every
        ~group_commit ~algorithm:algo ~seed instance
    in
    List.iteri (fun j w -> if j < k then ignore (Session.feed s w)) ws;
    (* no close: the buffered suffix dies with the kill *)
    let s' = Session.restore ~path () in
    Alcotest.(check int)
      (Printf.sprintf "durable boundary after kill at %d" k)
      (durable_after k) (Session.consumed s');
    List.iteri
      (fun j w -> if j >= Session.consumed s' then ignore (Session.feed s' w))
      ws;
    Session.close s';
    if fingerprint s' <> uninterrupted then
      Alcotest.failf
        "%s: binary group-commit restore at arrival %d diverges from the \
         uninterrupted run"
        algo.Ltc_algo.Algorithm.name k
  done

let test_kill_restore_group_commit () =
  check_kill_restore_group_commit ~accept_rate:None ~checkpoint_every:4
    ~group_commit:3 Ltc_algo.Algorithm.laf;
  check_kill_restore_group_commit ~accept_rate:(Some 0.6) ~checkpoint_every:5
    ~group_commit:4 Ltc_algo.Algorithm.random

(* ------------------------------------------------- old text journals *)

(* Text journals written by an earlier release's own writer — the text
   codec is read-only now — committed under test/cli/text_journal.t,
   whose run.t records the commands that made them.  All three serve the
   instance of `ltc generate -T 200 -W 20000 --scale 0.05 --seed 3`,
   whose embedded workers are the arrival stream. *)
let text_instance =
  lazy
    (Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed:3)
       (Ltc_workload.Spec.scale_synthetic 0.05
          {
            Ltc_workload.Spec.default_synthetic with
            Ltc_workload.Spec.n_tasks = 200;
            n_workers = 20000;
          }))

type text_fixture = {
  file : string;
  algorithm : Ltc_algo.Algorithm.t;
  seed : int;
  accept_rate : float option;
  deadline : Session.deadline option;
  checkpoint_every : int;
  fed : int;  (* arrivals the writing run consumed, all durable *)
}

let fixture_path file = Filename.concat "cli/text_journal.t" file

(* [ltc serve] runs: LAF, and Random under no-show noise. *)
let serve_fixture =
  {
    file = "serve.j";
    algorithm = Ltc_algo.Algorithm.laf;
    seed = 42;
    accept_rate = None;
    deadline = None;
    checkpoint_every = 64;
    fed = 100;
  }

let noshow_fixture =
  {
    file = "noshow.j";
    algorithm = Ltc_algo.Algorithm.random;
    seed = 5;
    accept_rate = Some 0.7;
    deadline = None;
    checkpoint_every = 40;
    fed = 100;
  }

(* An [ltc loadgen] run whose virtual-clock deadline degraded 41 of its
   269 arrivals, four of them ([D] records) in the tail after its
   snapshot.  Its decisions depend on that clock, so nothing re-feeds
   it. *)
let loadgen_fixture =
  {
    file = "lg.j";
    algorithm = Ltc_algo.Algorithm.laf;
    seed = 7;
    accept_rate = None;
    deadline =
      Some
        {
          Session.budget_s = 0.002;
          fallback = Ltc_algo.Algorithm.nearest_first;
        };
    checkpoint_every = 32;
    fed = 269;
  }

let refeedable_fixtures = [ serve_fixture; noshow_fixture ]

let fixture_arrivals () = arrivals (Lazy.force text_instance)

(* The run the fixture's writer made, replayed uninterrupted on the
   current code: a fresh session fed the same [fed] arrivals. *)
let fixture_reference fx =
  let s =
    Session.create ?accept_rate:fx.accept_rate ~algorithm:fx.algorithm
      ~seed:fx.seed (Lazy.force text_instance)
  in
  List.iteri
    (fun j w -> if j < fx.fed then ignore (Session.feed s w))
    (fixture_arrivals ());
  fingerprint s

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Restore [path] through a redirect journal, leaving [path] untouched. *)
let restored_fp path =
  with_tmp_journal @@ fun redirect ->
  let s = Session.restore ~journal:redirect ~path () in
  let fp = fingerprint s in
  Session.close s;
  fp

(* The binary journal and an old text journal of the same run are two
   encodings of one state: each restores to the fingerprint of the
   uninterrupted run, and a redirect restore carries the text file to a
   v4 binary copy that recovers every arrival and the same state. *)
let test_cross_codec_parity () =
  let stream_parity fx =
    let label what = Printf.sprintf "%s: %s" fx.file what in
    let reference = fixture_reference fx in
    let text = fixture_path fx.file in
    Alcotest.(check bool) (label "text restores to the live state") true
      (restored_fp text = reference);
    with_tmp_journal @@ fun binary ->
    let s =
      Session.create ?accept_rate:fx.accept_rate ~journal:binary
        ~checkpoint_every:fx.checkpoint_every ~group_commit:3
        ~algorithm:fx.algorithm ~seed:fx.seed (Lazy.force text_instance)
    in
    List.iteri
      (fun j w -> if j < fx.fed then ignore (Session.feed s w))
      (fixture_arrivals ());
    Session.close s;
    Alcotest.(check bool) (label "binary restores to the live state") true
      (restored_fp binary = reference)
  in
  List.iter stream_parity refeedable_fixtures;
  List.iter
    (fun fx ->
      let text = fixture_path fx.file in
      with_tmp_journal @@ fun converted ->
      Session.close (Session.restore ~journal:converted ~path:text ());
      let info = Session.Journal.inspect ~path:converted in
      let label what = Printf.sprintf "%s: %s" fx.file what in
      Alcotest.(check (pair int string)) (label "converted to v4 binary")
        (4, "binary")
        ( info.Session.Journal.version,
          Session.codec_name info.Session.Journal.codec );
      Alcotest.(check int) (label "every arrival kept")
        (Session.Journal.inspect ~path:text).Session.Journal.consumed
        info.Session.Journal.consumed;
      Alcotest.(check bool) (label "conversion preserves state") true
        (restored_fp converted = restored_fp text))
    (loadgen_fixture :: refeedable_fixtures)

let test_kill_restore_everywhere_noshow () =
  check_kill_restore_everywhere ~accept_rate:(Some 0.6) ~checkpoint_every:4
    Ltc_algo.Algorithm.laf;
  check_kill_restore_everywhere ~accept_rate:(Some 0.6) ~checkpoint_every:4
    Ltc_algo.Algorithm.random

let prop_kill_restore =
  QCheck2.Test.make ~name:"kill/restore reproduces the uninterrupted run"
    ~count:60
    QCheck2.Gen.(
      let* iseed = int_range 0 10_000 in
      let* seed = int_range 0 10_000 in
      let* algo = int_range 0 (List.length online_algorithms - 1) in
      let* kill = int_range 0 25 in
      let* checkpoint_every = int_range 1 9 in
      let* noshow = bool in
      let* group_commit = int_range 1 5 in
      return (iseed, seed, algo, kill, checkpoint_every, noshow, group_commit))
    (fun (iseed, seed, algo, kill, checkpoint_every, noshow, group_commit) ->
      let algo = List.nth online_algorithms algo in
      let accept_rate = if noshow then Some 0.65 else None in
      let instance = small_instance ~seed:iseed () in
      let ws = arrivals instance in
      let uninterrupted =
        let s = Session.create ?accept_rate ~algorithm:algo ~seed instance in
        ignore (feed_all s ws);
        fingerprint s
      in
      with_tmp_journal @@ fun path ->
      let s =
        Session.create ?accept_rate ~journal:path ~checkpoint_every
          ~group_commit ~algorithm:algo ~seed instance
      in
      List.iteri (fun j w -> if j < kill then ignore (Session.feed s w)) ws;
      (* With group commit the buffered suffix dies with the kill; the
         stream re-feeds from the restored (committed) boundary. *)
      let s' = Session.restore ~path () in
      Session.consumed s' <= kill
      &&
      (List.iteri
         (fun j w ->
           if j >= Session.consumed s' then ignore (Session.feed s' w))
         ws;
       Session.close s';
       fingerprint s' = uninterrupted))

(* A torn tail — the file cut off mid-record, as a crash during an append
   would leave it — must never lose acknowledged prefix state silently:
   restore succeeds at some consumed <= k and re-feeding the stream from
   the start converges to the uninterrupted fingerprint.  Old text
   journals are cut at every byte past their header. *)
let test_truncated_journal_recovers () =
  let algo = Ltc_algo.Algorithm.laf in
  let seed = 5 in
  let instance = small_instance ~seed:31 () in
  let ws = arrivals instance in
  let uninterrupted =
    let s = Session.create ~algorithm:algo ~seed instance in
    ignore (feed_all s ws);
    fingerprint s
  in
  with_tmp_journal @@ fun path ->
  let s =
    Session.create ~journal:path ~checkpoint_every:6 ~algorithm:algo ~seed
      instance
  in
  let k = 17 in
  List.iteri (fun j w -> if j < k then ignore (Session.feed s w)) ws;
  let full = read_file path in
  (* Header size = a journal with zero events. *)
  let header_len =
    with_tmp_journal @@ fun p ->
    Session.close (Session.create ~journal:p ~algorithm:algo ~seed instance);
    String.length (read_file p)
  in
  let cuts = [ 1; 5; 13; 40; 120; String.length full - header_len ] in
  List.iter
    (fun cut ->
      if cut >= 1 && String.length full - cut >= header_len then begin
        write_file path (String.sub full 0 (String.length full - cut));
        let s' = Session.restore ~path () in
        if Session.consumed s' > k then
          Alcotest.failf "restore invented arrivals (cut=%d)" cut;
        List.iteri
          (fun j w ->
            if j >= Session.consumed s' then ignore (Session.feed s' w))
          ws;
        Session.close s';
        Alcotest.(check bool)
          (Printf.sprintf "fingerprint after cut=%d" cut)
          true
          (fingerprint s' = uninterrupted)
      end)
    cuts;
  List.iter
    (fun fx ->
      (* The loadgen run decided against a virtual clock, so its cuts are
         restored but not re-fed. *)
      let reference =
        if fx.deadline = None then Some (fixture_reference fx) else None
      in
      let text = read_file (fixture_path fx.file) in
      let header_len =
        List.hd
          (Session.Journal.inspect ~path:(fixture_path fx.file))
            .Session.Journal.snapshot_offsets
      in
      for len = header_len to String.length text do
        write_file path (String.sub text 0 len);
        let s' = Session.restore ~path () in
        if Session.consumed s' > fx.fed then
          Alcotest.failf "%s cut to %d bytes: restore invented arrivals"
            fx.file len;
        Option.iter
          (fun reference ->
            List.iteri
              (fun j w ->
                if j >= Session.consumed s' && j < fx.fed then
                  ignore (Session.feed s' w))
              (fixture_arrivals ());
            if fingerprint s' <> reference then
              Alcotest.failf "%s cut to %d bytes: re-feeding diverges" fx.file
                len)
          reference;
        Session.close s'
      done)
    (loadgen_fixture :: refeedable_fixtures)

(* Compaction keeps recovery bounded: the on-disk journal never holds more
   than [compact_after_snapshots] (16) snapshots and their events, however
   many arrivals were fed, and an explicit checkpoint leaves one snapshot
   and nothing else. *)
let test_compaction_bounds_journal () =
  let algo = Ltc_algo.Algorithm.random in
  let instance = small_instance ~n_tasks:40 ~n_workers:300 ~seed:3 () in
  with_tmp_journal @@ fun path ->
  let checkpoint_every = 8 in
  let s =
    Session.create ~journal:path ~checkpoint_every ~algorithm:algo ~seed:1
      instance
  in
  let counts () =
    let info = Session.Journal.inspect ~path in
    (info.Session.Journal.snapshots, info.Session.Journal.events)
  in
  let compacted = ref false and previous = ref 0 in
  List.iter
    (fun w ->
      ignore (Session.feed s w);
      let snapshots, events = counts () in
      if snapshots > 16 || events > 16 * checkpoint_every then
        Alcotest.failf "after arrival %d: %d snapshots, %d events on disk"
          w.Ltc_core.Worker.index snapshots events;
      if snapshots < !previous then compacted := true;
      previous := snapshots)
    (arrivals instance);
  Alcotest.(check bool) "a periodic compaction happened" true !compacted;
  Session.checkpoint s;
  Alcotest.(check (pair int int)) "explicit checkpoint: one snapshot, no events"
    (1, 0) (counts ());
  Session.close s

(* ---------------------------------------------------- journal byte pins *)

(* What the journal writer puts on disk, pinned by MD5 digest.  The
   digests were recorded with the Buffer-based encoder the frame buffer
   replaced (test/journal_oracle.ml keeps it), so each file below is
   byte for byte what that encoder wrote.  LAF on a 300-task synthetic
   instance, a checkpoint every 16 arrivals and group commit 8: 600
   arrivals hold 37 periodic checkpoints, of which the 16th and 32nd
   compact, and end in a tail of 5 partial snapshots and 88 events. *)
let pin_instance () =
  Ltc_workload.Synthetic.generate (Ltc_util.Rng.create ~seed:5)
    (Ltc_workload.Spec.scale_synthetic 0.1
       Ltc_workload.Spec.default_synthetic)

let pin_digest label want path =
  Alcotest.(check string) label want (Digest.to_hex (Digest.file path))

let pin_session instance path =
  Session.create ~journal:path ~checkpoint_every:16 ~group_commit:8
    ~algorithm:Ltc_algo.Algorithm.laf ~seed:3 instance

let test_journal_bytes_pinned () =
  let instance = pin_instance () in
  let ws = instance.Ltc_core.Instance.workers in
  let feed_prefix s n =
    for i = 0 to n - 1 do
      ignore (Session.feed s ws.(i))
    done
  in
  (* A closed journal. *)
  (with_tmp_journal @@ fun path ->
   let s = pin_session instance path in
   feed_prefix s 600;
   Alcotest.(check bool) "still open after 600 arrivals" false
     (Session.completed s);
   Session.close s;
   let info = Session.Journal.inspect ~path in
   Alcotest.(check (pair int int)) "full and partial snapshots" (6, 5)
     (info.Session.Journal.snapshots, info.Session.Journal.partial_snapshots);
   pin_digest "closed journal" "9a5e76b765a640d834703aaecd51ec7b" path);
  (* The file a restore of a crash fixture compacts into: the session is
     abandoned 5 arrivals into a commit group, so the restore drops them. *)
  with_tmp_journal @@ fun source ->
  with_tmp_journal @@ fun target ->
  feed_prefix (pin_session instance source) 597;
  let s = Session.restore ~journal:target ~path:source () in
  Alcotest.(check int) "restored at the last commit" 592 (Session.consumed s);
  Session.close s;
  pin_digest "restore compaction" "d4da589841b3566da70dde1ce9e828cb" target

(* A 2-shard server's manifest and shard journals. *)
let test_shard_journal_bytes_pinned () =
  let instance = pin_instance () in
  let base = Filename.temp_file "ltc_service_test" ".manifest" in
  let files =
    base
    :: List.init 2 (fun shard -> Shard_server.shard_journal_path ~base ~shard)
  in
  Fun.protect ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) files)
  @@ fun () ->
  let srv =
    Shard_server.create ~mode:Shard_server.Inline ~journal:base
      ~checkpoint_every:16 ~group_commit:8 ~shards:2
      ~algorithm:Ltc_algo.Algorithm.laf ~seed:3 instance
  in
  Array.iteri
    (fun i w -> if i < 600 then ignore (Shard_server.feed srv w))
    instance.Ltc_core.Instance.workers;
  ignore (Shard_server.flush srv);
  Shard_server.close srv;
  List.iter2
    (fun (label, want) path -> pin_digest label want path)
    [
      ("manifest", "5f7c707ee4d5bd2110fda0040f432c10");
      ("shard 0 journal", "f1ba97e18608285821c27d10119b1b9b");
      ("shard 1 journal", "77d4d870eddfb697ea5c6098ff5b468c");
    ]
    files

(* ------------------------------------------------------------ contracts *)

let test_create_validation () =
  let instance = small_instance ~seed:2 () in
  Alcotest.check_raises "offline algorithm rejected"
    (Invalid_argument
       "Session: MCF-LTC cannot serve an arrival stream (offline \
        algorithm)") (fun () ->
      ignore
        (Session.create ~algorithm:Ltc_algo.Algorithm.mcf_ltc ~seed:1 instance));
  Alcotest.check_raises "accept_rate 0 rejected"
    (Invalid_argument "Session.create: accept_rate must be in (0, 1]")
    (fun () ->
      ignore
        (Session.create ~accept_rate:0.0 ~algorithm:Ltc_algo.Algorithm.laf
           ~seed:1 instance));
  Alcotest.check_raises "checkpoint_every 0 rejected"
    (Invalid_argument "Session.create: checkpoint_every must be >= 1")
    (fun () ->
      ignore
        (Session.create ~checkpoint_every:0 ~algorithm:Ltc_algo.Algorithm.laf
           ~seed:1 instance));
  (* NaN fails every check and infinity the deadline's: either would reach
     a journal header that no restore reads back. *)
  let deadline budget_s =
    { Session.budget_s; fallback = Ltc_algo.Algorithm.nearest_first }
  in
  List.iter
    (fun (label, accept_rate, deadline, message) ->
      Alcotest.check_raises label (Invalid_argument message) (fun () ->
          ignore
            (Session.create ?accept_rate ?deadline
               ~algorithm:Ltc_algo.Algorithm.laf ~seed:1 instance)))
    [
      ("accept_rate nan rejected", Some nan, None,
       "Session.create: accept_rate must be in (0, 1]");
      ("deadline 0 rejected", None, Some (deadline 0.0),
       "Session: deadline budget must be finite and > 0");
      ("deadline nan rejected", None, Some (deadline nan),
       "Session: deadline budget must be finite and > 0");
      ("deadline inf rejected", None, Some (deadline infinity),
       "Session: deadline budget must be finite and > 0");
    ];
  (* A sharded server runs the same checks before it writes its manifest,
     so a refused create leaves no file behind. *)
  let base = Filename.temp_file "ltc_service_test" ".manifest" in
  Sys.remove base;
  List.iter
    (fun (label, accept_rate, deadline, message) ->
      Alcotest.check_raises label (Invalid_argument message) (fun () ->
          ignore
            (Shard_server.create ?accept_rate ?deadline ~journal:base
               ~shards:2 ~algorithm:Ltc_algo.Algorithm.laf ~seed:1 instance));
      Alcotest.(check bool) (label ^ ": no manifest") false
        (Sys.file_exists base))
    [
      ("sharded accept_rate 1.5 rejected", Some 1.5, None,
       "Session.create: accept_rate must be in (0, 1]");
      ("sharded deadline inf rejected", None, Some (deadline infinity),
       "Session: deadline budget must be finite and > 0");
    ];
  Alcotest.check_raises "the text codec is read-only"
    (Invalid_argument
       "Session.create: the text journal codec is read-only (old text \
        journals restore; new journals are binary)") (fun () ->
      ignore
        (Session.create ~format:Session.Text
           ~algorithm:Ltc_algo.Algorithm.laf ~seed:1 instance));
  (* Restore refuses a group commit below 1 before it reads the journal
     (here, a path that does not exist). *)
  Alcotest.check_raises "restore group_commit 0 rejected"
    (Invalid_argument "Session.restore: group_commit must be >= 1")
    (fun () ->
      ignore (Session.restore ~group_commit:0 ~path:base ()))

let test_feed_contracts () =
  let instance = small_instance ~seed:2 () in
  let s = Session.create ~algorithm:Ltc_algo.Algorithm.laf ~seed:1 instance in
  let w3 = instance.Ltc_core.Instance.workers.(2) in
  Alcotest.check_raises "gap rejected"
    (Invalid_argument "Session.feed: expected arrival 1, got 3") (fun () ->
      ignore (Session.feed s w3));
  (* drive to completion on an easy instance, then keep feeding *)
  let easy = small_instance ~n_tasks:2 ~n_workers:40 ~epsilon:0.4 ~seed:9 () in
  let s = Session.create ~algorithm:Ltc_algo.Algorithm.laf ~seed:1 easy in
  ignore (feed_all s (arrivals easy));
  Alcotest.(check bool) "completed" true (Session.completed s);
  let consumed = Session.consumed s in
  let states = Session.rng_states s in
  let extra =
    Ltc_core.Worker.make ~index:999
      ~loc:(Ltc_geo.Point.make ~x:1.0 ~y:1.0)
      ~accuracy:0.9 ~capacity:2
  in
  let d = Session.feed s extra in
  Alcotest.(check (list int)) "post-completion assigns nothing" []
    d.Session.assigned;
  Alcotest.(check bool) "post-completion ack is completed" true
    d.Session.completed;
  Alcotest.(check int) "post-completion consumes nothing" consumed
    (Session.consumed s);
  Alcotest.(check bool) "post-completion draws no rng" true
    (states = Session.rng_states s);
  Session.close s;
  Alcotest.check_raises "feed after close"
    (Invalid_argument "Session.feed: session is closed") (fun () ->
      ignore (Session.feed s extra));
  (* A closed session's journal is final: [checkpoint] refuses instead of
     compacting the file and reopening it. *)
  with_tmp_journal @@ fun path ->
  let s =
    Session.create ~journal:path ~checkpoint_every:4
      ~algorithm:Ltc_algo.Algorithm.laf ~seed:1 instance
  in
  List.iteri (fun j w -> if j < 10 then ignore (Session.feed s w))
    (arrivals instance);
  Session.close s;
  let closed = read_file path in
  Alcotest.check_raises "checkpoint after close"
    (Invalid_argument "Session.checkpoint: session is closed") (fun () ->
      Session.checkpoint s);
  Alcotest.(check string) "the closed journal is untouched" closed
    (read_file path)

(* --------------------------------------------------- corruption triage *)

(* A torn tail is forgiven (crash mid-append), but corruption in the
   interior of an old text journal — an unparseable record followed by
   intact ones — must be refused loudly, naming the damage. *)
let test_interior_corruption_diagnosed () =
  with_tmp_journal @@ fun path ->
  let lines =
    In_channel.with_open_text (fixture_path serve_fixture.file)
      In_channel.input_lines
  in
  let is_decision l = String.length l >= 2 && (l.[0] = 'd' || l.[0] = 'D') in
  (* index (into [lines]) of the 4th decision record *)
  let decision_idx =
    let rec go i seen = function
      | [] -> Alcotest.fail "journal holds fewer than 4 decisions"
      | l :: rest ->
        if is_decision l then
          if seen = 3 then i else go (i + 1) (seen + 1) rest
        else go (i + 1) seen rest
    in
    go 0 0 lines
  in
  let mangled =
    List.mapi (fun i l -> if i = decision_idx then "d ?!corrupt" else l) lines
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) mangled);
  (match Session.restore ~path () with
  | (_ : Session.t) -> Alcotest.fail "interior corruption must be refused"
  | exception Session.Corrupt_journal { path = p; message } ->
    Alcotest.(check string) "names the file" path p;
    let has affix = Astring.String.is_infix ~affix message in
    Alcotest.(check bool)
      (Printf.sprintf "message locates the damage: %s" message)
      true
      (has "corrupted record" && has "at byte" && has "?!corrupt"
     && has "followed by intact records"));
  (* The same damage at the very end of the file is a torn tail: dropped,
     and the session restores at a smaller consumed count. *)
  let n_lines = List.length lines in
  let tail_mangled =
    List.mapi (fun i l -> if i = n_lines - 1 then "d ?!corrupt" else l) lines
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) tail_mangled);
  let s' = Session.restore ~path () in
  Alcotest.(check int) "torn tail drops exactly the last record"
    (serve_fixture.fed - 1) (Session.consumed s');
  Session.close s'

(* Restore builds only the latest snapshot and the events after it, but
   every record a later snapshot supersedes is still read, CRC-checked and
   decoded under the same rules: damage there must raise the same
   diagnosis, naming the record and its byte offset, from both restore
   and inspect. *)

module B = Ltc_core.Serialize.Binary

let record_of payload =
  B.record_of_payload payload ~pos:0 ~len:(String.length payload)

(* A closed binary journal holding several appended (partial) snapshots
   ([close] does not compact), as its header bytes plus its frames:
   (offset, payload) in file order.  With a checkpoint every 8 arrivals,
   frame [9k + 8] is the partial snapshot at arrival [8 (k + 1)] and
   every other frame is an event. *)
let superseded_fixture () =
  let instance =
    small_instance ~n_tasks:30 ~n_workers:60 ~capacity:1 ~seed:41 ()
  in
  let create journal =
    Session.create ~journal ~checkpoint_every:8 ~group_commit:4
      ~algorithm:Ltc_algo.Algorithm.laf ~seed:9 instance
  in
  (* A journal with no arrivals is exactly its header. *)
  let header =
    with_tmp_journal @@ fun path ->
    Session.close (create path);
    read_file path
  in
  with_tmp_journal @@ fun path ->
  let s = create path in
  List.iteri (fun j w -> if j < 44 then ignore (Session.feed s w))
    (arrivals instance);
  Session.close s;
  let info = Session.Journal.inspect ~path in
  Alcotest.(check bool)
    (Printf.sprintf "at least 3 appended snapshots (%d)"
       info.Session.Journal.snapshots)
    true
    (info.Session.Journal.snapshots >= 3);
  let bytes = read_file path in
  Alcotest.(check string) "journal starts with its header" header
    (String.sub bytes 0 (String.length header));
  let rec frames pos acc =
    match B.frame_at bytes pos with
    | B.Frame len ->
      frames (pos + 8 + len) ((pos, String.sub bytes (pos + 8) len) :: acc)
    | B.Eof -> List.rev acc
    | B.Torn | B.Invalid _ -> Alcotest.fail "fixture frames must be intact"
  in
  (header, Array.of_list (frames (String.length header) []))

let is_partial payload = payload.[0] = 'P'

(* The partial snapshot codec spelled out with the primitives, with a hook
   on each score, so a test can write a CRC-valid partial snapshot holding
   a value the encoder would never produce. *)
let reencode_partial ~score payload =
  match record_of payload with
  | B.Event _ | B.Snapshot { B.s_arrangement = Some _; _ } ->
    Alcotest.fail "expected a partial snapshot record"
  | B.Snapshot s ->
    let p = Ltc_core.Progress.snapshot s.B.s_progress in
    let buf = B.buffer () in
    B.add_u8 buf (Char.code 'P');
    B.add_varint buf s.B.s_consumed;
    B.add_i64 buf s.B.s_policy;
    B.add_i64 buf s.B.s_noshow;
    B.add_varint buf (Array.length p.Ltc_core.Progress.thresholds);
    B.add_f64 buf p.Ltc_core.Progress.sum_remaining;
    Array.iteri
      (fun task threshold ->
        B.add_f64 buf threshold;
        B.add_f64 buf (score task p.Ltc_core.Progress.scores.(task)))
      p.Ltc_core.Progress.thresholds;
    B.contents buf

let frame_bytes header frames =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf header;
  Array.iter (fun (_, payload) -> Journal_oracle.add_frame buf payload) frames;
  Buffer.contents buf

(* [bytes] written to a fresh journal must be refused by restore and by
   inspect, naming record [k] (0-based frame index) at its offset and
   [reason]. *)
let check_refused ~what ~k ~offset ~reason bytes =
  with_tmp_journal @@ fun path ->
  let check_message label message =
    let has affix = Astring.String.is_infix ~affix message in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s names record %d at byte %d and %S: %s" what
         label (k + 1) offset reason message)
      true
      (has (Printf.sprintf "corrupted record %d at byte %d:" (k + 1) offset)
      && has reason)
  in
  write_file path bytes;
  (match Session.Journal.inspect ~path with
  | (_ : Session.Journal.info) ->
    Alcotest.failf "%s: inspect must refuse the journal" what
  | exception Session.Corrupt_journal { message; _ } ->
    check_message "inspect" message);
  match Session.restore ~path () with
  | (_ : Session.t) -> Alcotest.failf "%s: restore must refuse the journal" what
  | exception Session.Corrupt_journal { path = p; message } ->
    Alcotest.(check string) "names the file" path p;
    check_message "restore" message

(* The fixture's first partial snapshot, superseded by the last one, and
   its second event, which only rebuilds the arrangement. *)
let superseded_targets frames =
  let n = Array.length frames in
  let last_partial =
    let rec go i = if is_partial (snd frames.(i)) then i else go (i - 1) in
    go (n - 1)
  in
  let first_partial =
    let rec go i = if is_partial (snd frames.(i)) then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool) "the first partial snapshot is superseded" true
    (first_partial < last_partial);
  Alcotest.(check bool) "frame 2 is an event" false
    (is_partial (snd frames.(1)));
  (first_partial, 1)

let with_payload frames k payload =
  let frames = Array.copy frames in
  frames.(k) <- (fst frames.(k), payload);
  frames

let test_superseded_records_checked () =
  let header, frames = superseded_fixture () in
  let snapshot, event = superseded_targets frames in
  (* The intact journal restores, and the re-encoder is the codec. *)
  (with_tmp_journal @@ fun path ->
   write_file path (frame_bytes header frames);
   Session.close (Session.restore ~path ()));
  let snap_offset, snap_payload = frames.(snapshot) in
  Alcotest.(check string) "re-encoding is the identity" snap_payload
    (reencode_partial ~score:(fun _ s -> s) snap_payload);
  (* (a) A flipped payload byte: the CRC catches it. *)
  let flipped =
    let b = Bytes.of_string (frame_bytes header frames) in
    let at = snap_offset + 8 + 20 in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01));
    Bytes.to_string b
  in
  check_refused ~what:"flipped byte" ~k:snapshot ~offset:snap_offset
    ~reason:"CRC mismatch" flipped;
  (* (b) A CRC-valid partial snapshot with one (positive) score
     negated. *)
  let scored =
    match record_of snap_payload with
    | B.Snapshot s ->
      let scores = (Ltc_core.Progress.snapshot s.B.s_progress).scores in
      let rec first_positive t =
        if scores.(t) > 0.0 then t else first_positive (t + 1)
      in
      first_positive 0
    | B.Event _ -> assert false
  in
  let negated =
    reencode_partial
      ~score:(fun task s -> if task = scored then -.s else s)
      snap_payload
  in
  check_refused ~what:"negated score" ~k:snapshot ~offset:snap_offset
    ~reason:"negative score"
    (frame_bytes header (with_payload frames snapshot negated));
  (* (c) A CRC-valid event with one trailing byte. *)
  let event_offset, event_payload = frames.(event) in
  let trailing = with_payload frames event (event_payload ^ "\000") in
  check_refused ~what:"trailing byte" ~k:event ~offset:event_offset
    ~reason:"1 trailing bytes" (frame_bytes header trailing);
  (* Two damaged records: the first in file order is the one reported. *)
  check_refused ~what:"first damage wins" ~k:event ~offset:event_offset
    ~reason:"1 trailing bytes"
    (frame_bytes header (with_payload trailing snapshot negated))

(* NaN fails every comparison, so it needs its own rule; the superseded
   walk shares it. *)
let test_superseded_nan_refused () =
  let header, frames = superseded_fixture () in
  let snapshot, _ = superseded_targets frames in
  let offset, payload = frames.(snapshot) in
  let nan_score =
    reencode_partial
      ~score:(fun task s -> if task = 0 then Float.nan else s)
      payload
  in
  check_refused ~what:"NaN score" ~k:snapshot ~offset
    ~reason:"non-finite score"
    (frame_bytes header (with_payload frames snapshot nan_score))

(* The events before the latest partial snapshot are not replayed, so
   what they rebuild is checked: each check refuses a CRC-valid record
   that breaks it, naming the record, from restore and inspect alike. *)
let test_partial_rebuild_checked () =
  let header, frames = superseded_fixture () in
  let last_partial = Array.length frames - 5 in
  Alcotest.(check bool) "the last partial snapshot is frame 45" true
    (last_partial = 44 && is_partial (snd frames.(last_partial)));
  let reencode k f =
    let payload = Journal_oracle.payload (f (record_of (snd frames.(k)))) in
    frame_bytes header (with_payload frames k payload)
  in
  let event f = function
    | B.Event e -> B.Event (f e)
    | B.Snapshot _ -> Alcotest.fail "expected an event"
  in
  let refused ~what ~k ~reason f =
    check_refused ~what ~k ~offset:(fst frames.(k)) ~reason (reencode k f)
  in
  (* Arrival 2 journaled as arrival 5. *)
  refused ~what:"arrival out of sequence" ~k:1
    ~reason:"arrival 5 follows arrival 1"
    (event (fun e ->
         let w = { e.B.e_worker with Ltc_core.Worker.index = 5 } in
         { e with B.e_worker = w }));
  (* The last partial snapshot claims one arrival more than its events. *)
  refused ~what:"partial count" ~k:last_partial
    ~reason:"a partial snapshot at arrival 41 where the events before it \
             end at arrival 40"
    (function
      | B.Snapshot s -> B.Snapshot { s with B.s_consumed = 41 }
      | B.Event _ -> Alcotest.fail "expected a snapshot");
  (* The first event that answered a task answers one more, unassigned,
     or its answer is moved past the instance's 30 tasks. *)
  let k, w =
    let rec go k =
      match record_of (snd frames.(k)) with
      | B.Event { B.e_answered = _ :: _; e_worker; _ } ->
        (k, e_worker.Ltc_core.Worker.index)
      | _ -> go (k + 1)
    in
    go 0
  in
  refused ~what:"unassigned answer" ~k
    ~reason:(Printf.sprintf "arrival %d answered task 29, which it was not \
                             assigned" w)
    (event (fun e ->
         if List.mem 29 e.B.e_assigned then
           Alcotest.fail "the probe task must be unassigned";
         { e with B.e_answered = e.B.e_answered @ [ 29 ] }));
  refused ~what:"answer beyond the tasks" ~k
    ~reason:(Printf.sprintf "arrival %d answered task 30 of an instance with \
                             30 tasks" w)
    (event (fun e -> { e with B.e_assigned = [ 30 ]; e_answered = [ 30 ] }));
  (* A v3 journal never held a partial snapshot. *)
  let v4 = "ltc-journal v4\n" and v3 = "ltc-journal v3\n" in
  Alcotest.(check string) "the fixture is a v4 journal" v4
    (String.sub header 0 (String.length v4));
  let first_partial = fst (superseded_targets frames) in
  let bytes = frame_bytes header frames in
  let magic = String.length v4 in
  check_refused ~what:"partial snapshot in a v3 journal" ~k:first_partial
    ~offset:(fst frames.(first_partial))
    ~reason:"a partial snapshot in a v3 journal"
    (v3 ^ String.sub bytes magic (String.length bytes - magic))

(* Restore and inspect read a journal in one pass; [Restore_oracle] keeps
   the two-pass read they replaced.  On journals from random runs,
   intact or damaged, both must agree with it: the same Corrupt_journal
   message, or the same inspect record and a restored session with the
   fingerprint of the state the oracle resumes from.  That state is
   written out as a plain journal (its header, one full snapshot, the
   tail) and restored, so the replay and its own checks run the same
   code on both sides. *)

let v4_keys =
  [ "codec"; "algorithm"; "seed"; "accept_rate"; "checkpoint_every";
    "deadline" ]

let write_resume path (header : Session.header)
    { Restore_oracle.checkpoint; tail } =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "ltc-journal v4\n";
  Session.emit_header (Buffer.add_string buf) ~keys:v4_keys
    ~extra:[ ("codec", "binary") ]
    header;
  Option.iter
    (fun ((s : B.snapshot), a) ->
      Journal_oracle.add_record_frame buf
        (B.Snapshot { s with B.s_arrangement = Some a }))
    checkpoint;
  List.iter (fun e -> Journal_oracle.add_record_frame buf (B.Event e)) tail;
  write_file path (Buffer.contents buf)

let outcome f =
  match f () with
  | v -> Ok v
  | exception Session.Corrupt_journal { message; _ } -> Error message

let info_view (i : Session.Journal.info) =
  ( (i.version, Session.codec_name i.codec, i.file_bytes, i.torn_bytes),
    (i.snapshots, i.partial_snapshots, i.events, i.consumed),
    i.snapshot_offsets )

let agrees_with_oracle ~what path =
  let fail fmt = QCheck2.Test.fail_reportf ("%s: " ^^ fmt) what in
  let show = function Ok _ -> "a journal it reads" | Error m -> m in
  let inspected = outcome (fun () -> Session.Journal.inspect ~path) in
  let expected = outcome (fun () -> Restore_oracle.inspect ~path) in
  (match (inspected, expected) with
  | Ok a, Ok b when info_view a = info_view b -> ()
  | Error a, Error b when a = b -> ()
  | Ok _, Ok _ -> fail "inspect counts differ from the oracle's"
  | _ -> fail "inspect: %s; oracle: %s" (show inspected) (show expected));
  let expected =
    match Restore_oracle.resume ~path with
    | exception Session.Corrupt_journal { message; _ } -> Error message
    | header, resume ->
      with_tmp_journal @@ fun plain ->
      write_resume plain header resume;
      outcome (fun () -> restored_fp plain)
  in
  let restored = outcome (fun () -> restored_fp path) in
  (match (restored, expected) with
  | Ok a, Ok b when a = b -> ()
  | Error a, Error b when a = b -> ()
  | Ok _, Ok _ -> fail "restored state differs from the oracle's"
  | _ -> fail "restore: %s; oracle: %s" (show restored) (show expected));
  true

(* One damage to a binary journal.  [at] picks the offset, or the event
   or partial snapshot to re-encode; an event fault is one of
   [event_faults] below. *)
type damage =
  | Intact
  | Flip of int * int  (* xor a byte with a non-zero value *)
  | Truncate of int
  | Event_fault of int * int
  | Count of int  (* a partial snapshot claims another count *)
  | Fold_then_crc of int * int * int
      (* an event fault, then a flipped byte in a later frame *)

let gen_damage =
  QCheck2.Gen.(
    let* at = int_bound 1_000_000 and* by = int_range 1 255 in
    let* later = int_bound 1_000_000 in
    let* fault = int_range 0 2 in
    oneofl
      [
        Intact;
        Flip (at, by);
        Truncate at;
        Event_fault (fault, at);
        Count at;
        Fold_then_crc (fault, at, later);
      ])

(* An arrival index moved forward, an answer that was not assigned, an
   answer (and assignment) past the last of [n_tasks] tasks. *)
let event_faults ~n_tasks =
  [|
    (fun e ->
      let w = e.B.e_worker in
      { e with B.e_worker = { w with Ltc_core.Worker.index = w.index + 1 } });
    (fun e ->
      let free =
        List.filter
          (fun t -> not (List.mem t e.B.e_assigned))
          (List.init n_tasks Fun.id)
      in
      let t = match free with t :: _ -> t | [] -> n_tasks in
      { e with B.e_answered = e.B.e_answered @ [ t ] });
    (fun e ->
      {
        e with
        B.e_assigned = e.B.e_assigned @ [ n_tasks ];
        e_answered = e.B.e_answered @ [ n_tasks ];
      });
  |]

let split_frames bytes ~body_start =
  let rec go pos acc =
    match B.frame_at bytes pos with
    | B.Frame len ->
      go (pos + 8 + len) ((pos, String.sub bytes (pos + 8) len) :: acc)
    | B.Eof | B.Torn | B.Invalid _ -> Array.of_list (List.rev acc)
  in
  go body_start []

let flip bytes at by =
  String.mapi
    (fun i c -> if i = at then Char.chr (Char.code c lxor by) else c)
    bytes

(* [bytes], a binary journal over [n_tasks] tasks whose records start at
   [body_start], with [damage] done to it (left as it is when there is no
   record of the kind to damage). *)
let damaged bytes ~body_start ~n_tasks damage =
  let frames = split_frames bytes ~body_start in
  let reframed frames = frame_bytes (String.sub bytes 0 body_start) frames in
  (* The [at]th frame (wrapping) whose payload starts with [tag]. *)
  let pick tag at =
    let ks =
      List.filter
        (fun k -> (snd frames.(k)).[0] = tag)
        (List.init (Array.length frames) Fun.id)
    in
    if ks = [] then None else Some (List.nth ks (at mod List.length ks))
  in
  let reencoded k f =
    with_payload frames k
      (Journal_oracle.payload (f (record_of (snd frames.(k)))))
  in
  let event_fault fault at =
    Option.map
      (fun k ->
        let f = (event_faults ~n_tasks).(fault) in
        ( k,
          reencoded k (function
            | B.Event e -> B.Event (f e)
            | B.Snapshot _ -> assert false) ))
      (pick 'E' at)
  in
  (* Flips and cuts land in the body: the header has its own tests. *)
  let len = String.length bytes in
  let in_body at = body_start + (at mod max 1 (len - body_start)) in
  match damage with
  | Intact -> bytes
  | Flip (at, by) -> flip bytes (min (len - 1) (in_body at)) by
  | Truncate at -> String.sub bytes 0 (min len (in_body at))
  | Event_fault (fault, at) -> (
    match event_fault fault at with
    | Some (_, f) -> reframed f
    | None -> bytes)
  | Count at -> (
    match pick 'P' at with
    | None -> bytes
    | Some k ->
      reframed
        (reencoded k (function
          | B.Snapshot s ->
            B.Snapshot { s with B.s_consumed = s.B.s_consumed + 1 + (at mod 3) }
          | B.Event _ -> assert false)))
  | Fold_then_crc (fault, at, later) -> (
    match event_fault fault at with
    | None -> bytes
    | Some (k, f) ->
      let out = reframed f in
      if k + 1 >= Array.length f then out
      else
        (* A byte inside a later frame's payload: its CRC fails. *)
        let k' = k + 1 + (later mod (Array.length f - k - 1)) in
        let offset, payload = f.(k') in
        flip out (offset + 8 + (later mod String.length payload)) 0x10)

let restore_algorithms =
  [ Ltc_algo.Algorithm.laf; Ltc_algo.Algorithm.aam; Ltc_algo.Algorithm.random ]

(* How the journal was left: abandoned after [kill] arrivals, after an
   explicit compaction at arrival [at], or restored at arrival [at] and
   fed on to [kill]. *)
type history = Plain | Compacted of int | Resumed of int

let prop_restore_oracle =
  QCheck2.Test.make ~name:"one-pass restore agrees with the two-pass oracle"
    ~count:150
    QCheck2.Gen.(
      let* iseed = int_range 0 10_000 and* seed = int_range 0 10_000 in
      let* algo = int_range 0 2 and* noshow = bool in
      let* checkpoint_every = int_range 1 32
      and* group_commit = int_range 1 8 in
      let* kill = int_range 0 70 in
      let* at = int_range 0 70 in
      let* history = oneofl [ Plain; Plain; Compacted at; Resumed at ] in
      let* damage = gen_damage in
      return
        ( (iseed, seed, algo, noshow),
          (checkpoint_every, group_commit, kill, history),
          damage ))
    (fun ( (iseed, seed, algo, noshow),
           (checkpoint_every, group_commit, kill, history),
           damage ) ->
      let algorithm = List.nth restore_algorithms algo in
      let accept_rate = if noshow then Some 0.7 else None in
      let n_tasks = 10 in
      let instance =
        small_instance ~n_tasks ~n_workers:70 ~capacity:2 ~seed:iseed ()
      in
      let ws = Array.of_list (arrivals instance) in
      with_tmp_journal @@ fun path ->
      let feed s ~upto =
        for j = Session.consumed s to upto - 1 do
          ignore (Session.feed s ws.(j))
        done
      in
      let s =
        Session.create ?accept_rate ~journal:path ~checkpoint_every
          ~group_commit ~algorithm ~seed instance
      in
      let abandoned =
        match history with
        | Plain ->
          feed s ~upto:kill;
          [ s ]
        | Compacted at ->
          feed s ~upto:(min at kill);
          Session.checkpoint s;
          feed s ~upto:kill;
          [ s ]
        | Resumed at ->
          feed s ~upto:(min at kill);
          let s' = Session.restore ~group_commit ~path () in
          feed s' ~upto:kill;
          [ s; s' ]
      in
      let bytes = read_file path in
      (* The journal is read as the kill left it; closing the sessions now
         only frees their files (the damaged copy below replaces it). *)
      List.iter Session.close abandoned;
      let body_start = Restore_oracle.body_start ~path in
      write_file path (damaged bytes ~body_start ~n_tasks damage);
      agrees_with_oracle ~what:"binary journal" path)

(* The same agreement on the old text journals, flipped or cut anywhere
   past the magic line. *)
let prop_text_restore_oracle =
  QCheck2.Test.make ~name:"one-pass text restore agrees with the oracle"
    ~count:40
    QCheck2.Gen.(
      let* fx = oneofl (loadgen_fixture :: refeedable_fixtures) in
      let* cut = bool and* at = int_bound 1_000_000 in
      let* by = int_range 1 255 in
      return (fx, cut, at, by))
    (fun (fx, cut, at, by) ->
      let text = read_file (fixture_path fx.file) in
      let len = String.length text in
      with_tmp_journal @@ fun path ->
      write_file path
        (if cut then String.sub text 0 (at mod (len + 1))
         else flip text (at mod len) by);
      agrees_with_oracle ~what:fx.file path)

(* A text journal event with a non-finite coordinate is a damaged record,
   not an arrival the policy can place. *)
let test_text_event_nan_refused () =
  with_tmp_journal @@ fun path ->
  let lines =
    In_channel.with_open_text (fixture_path serve_fixture.file)
      In_channel.input_lines
  in
  let seen = ref 0 in
  let mangled =
    List.map
      (fun l ->
        match String.split_on_char ' ' l with
        | "w" :: index :: _ :: rest ->
          incr seen;
          if !seen = 4 then String.concat " " ("w" :: index :: "nan" :: rest)
          else l
        | _ -> l)
      lines
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) mangled);
  match Session.restore ~path () with
  | (_ : Session.t) -> Alcotest.fail "a NaN coordinate must be refused"
  | exception Session.Corrupt_journal { message; _ } ->
    let has affix = Astring.String.is_infix ~affix message in
    Alcotest.(check bool)
      (Printf.sprintf "names the damaged record: %s" message)
      true
      (has "corrupted record" && has "nan")

(* Restore keeps a binary header's bytes instead of rendering it again,
   with a v3 magic line rewritten to v4.  That is only sound because
   parsing a header and rendering it gives back the same bytes: pinned
   here by rendering [Journal.header] with [Session.emit_header].  An
   old text journal's header is rendered instead; either way the result
   must be exactly the header a fresh binary session with the same
   configuration writes. *)
let test_header_bytes_round_trip () =
  let header_of create =
    with_tmp_journal @@ fun path ->
    Session.close (create path);
    read_file path
  in
  let starts_with header what bytes =
    let len = min (String.length header) (String.length bytes) in
    Alcotest.(check string) (what ^ " starts with the header") header
      (String.sub bytes 0 len)
  in
  let instance = small_instance ~n_tasks:12 ~seed:53 () in
  let create journal =
    Session.create ~journal ~checkpoint_every:5 ~accept_rate:0.7
      ~deadline:
        { Session.budget_s = 0.05; fallback = Ltc_algo.Algorithm.nearest_first }
      ~algorithm:Ltc_algo.Algorithm.laf ~seed:8 instance
  in
  let header = header_of create in
  (with_tmp_journal @@ fun path ->
   let s = create path in
   List.iteri (fun j w -> if j < 12 then ignore (Session.feed s w))
     (arrivals instance);
   Session.close s;
   let rendered = Buffer.create 256 in
   Buffer.add_string rendered "ltc-journal v4\n";
   Session.emit_header
     (Buffer.add_string rendered)
     ~keys:
       [ "codec"; "algorithm"; "seed"; "accept_rate"; "checkpoint_every";
         "deadline" ]
     ~extra:[ ("codec", "binary") ]
     (Session.Journal.header ~path);
   Alcotest.(check string) "the parsed header renders to the same bytes"
     header (Buffer.contents rendered);
   Session.close (Session.restore ~path ());
   starts_with header "the restored journal" (read_file path));
  (* Fewer arrivals than a checkpoint period: no partial snapshot, so the
     same bytes under a v3 magic line are a valid v3 journal. *)
  (with_tmp_journal @@ fun path ->
   let s = create path in
   List.iteri (fun j w -> if j < 4 then ignore (Session.feed s w))
     (arrivals instance);
   Session.close s;
   let v4 = read_file path in
   let magic = String.length "ltc-journal v3\n" in
   write_file path
     ("ltc-journal v3\n" ^ String.sub v4 magic (String.length v4 - magic));
   Alcotest.(check int) "read as v3" 3
     (Session.Journal.inspect ~path).Session.Journal.version;
   Session.close (Session.restore ~path ());
   starts_with header "the restored v3 journal" (read_file path));
  List.iter
    (fun fx ->
      let header =
        header_of (fun journal ->
            Session.create ?accept_rate:fx.accept_rate ?deadline:fx.deadline
              ~journal ~checkpoint_every:fx.checkpoint_every
              ~algorithm:fx.algorithm ~seed:fx.seed (Lazy.force text_instance))
      in
      with_tmp_journal @@ fun path ->
      write_file path (read_file (fixture_path fx.file));
      Session.close (Session.restore ~path ());
      starts_with header ("restored " ^ fx.file) (read_file path))
    (loadgen_fixture :: refeedable_fixtures)

(* The upgrade of a text journal is its restore's compaction, temp file +
   rename: a crash anywhere in it leaves the text journal as it was, and
   the next restore upgrades it. *)
let test_text_upgrade_crash_safe () =
  let fx = serve_fixture in
  let text = read_file (fixture_path fx.file) in
  with_tmp_journal @@ fun path ->
  Fun.protect
    ~finally:(fun () -> try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
  @@ fun () ->
  List.iter
    (fun (site, action) ->
      write_file path text;
      (match
         Fun.protect
           ~finally:(fun () -> Ltc_util.Fault.disarm ())
           (fun () ->
             Ltc_util.Fault.arm [ { Ltc_util.Fault.site; hit = 1; action } ];
             Session.restore ~path ())
       with
      | (_ : Session.t) -> Alcotest.failf "%s: the fault did not fire" site
      | exception Ltc_util.Fault.Injected_crash _ -> ());
      Alcotest.(check string) (site ^ ": the text journal survives") text
        (read_file path);
      let s = Session.restore ~path () in
      let upgraded = fingerprint s in
      Session.close s;
      Alcotest.(check bool) (site ^ ": the next restore resumes it") true
        (upgraded = fixture_reference fx);
      let info = Session.Journal.inspect ~path in
      Alcotest.(check (pair int string)) (site ^ ": and upgrades it")
        (4, "binary")
        ( info.Session.Journal.version,
          Session.codec_name info.Session.Journal.codec ))
    [
      ("journal.checkpoint.write", Ltc_util.Fault.Torn_write 40);
      ("journal.checkpoint.fsync", Ltc_util.Fault.Crash);
      ("journal.checkpoint.rename", Ltc_util.Fault.Crash);
    ]

(* A redirect restore reads its source and writes only the target: the
   source's bytes and any [.tmp] debris beside it survive, and the target
   is the upgraded binary journal. *)
let test_redirect_restore_leaves_source () =
  with_tmp_journal @@ fun source ->
  with_tmp_journal @@ fun target ->
  let text = read_file (fixture_path serve_fixture.file) in
  write_file source text;
  write_file (source ^ ".tmp") "debris";
  Fun.protect
    ~finally:(fun () -> try Sys.remove (source ^ ".tmp") with Sys_error _ -> ())
  @@ fun () ->
  Session.close (Session.restore ~journal:target ~path:source ());
  Alcotest.(check string) "source bytes unchanged" text (read_file source);
  Alcotest.(check string) "source debris untouched" "debris"
    (read_file (source ^ ".tmp"));
  let info = Session.Journal.inspect ~path:target in
  Alcotest.(check (pair int int)) "target is a compacted v4 journal" (4, 1)
    (info.Session.Journal.version, info.Session.Journal.snapshots);
  Alcotest.(check bool) "target restores to the source's state" true
    (restored_fp target = restored_fp source)

(* ------------------------------------------------ deadline degradation *)

let delay_at hits =
  List.map
    (fun hit ->
      {
        Ltc_util.Fault.site = "session.decide";
        hit;
        action = Ltc_util.Fault.Delay 0.2;
      })
    hits

let with_faults plan f =
  Fun.protect
    ~finally:(fun () ->
      Ltc_util.Fault.disarm ();
      Ltc_util.Fault.Clock.clear ())
    (fun () ->
      Ltc_util.Fault.arm plan;
      Ltc_util.Fault.Clock.set_virtual 0.0;
      f ())

let nearest_deadline = { Session.budget_s = 0.05; fallback = Ltc_algo.Algorithm.nearest_first }

(* An unexceeded deadline is invisible: same decisions, same fingerprint
   as a session that never had one. *)
let test_deadline_unexceeded_parity () =
  let algo = Ltc_algo.Algorithm.laf in
  let instance = small_instance ~seed:41 () in
  let ws = arrivals instance in
  let plain =
    let s = Session.create ~algorithm:algo ~seed:6 instance in
    let ds = feed_all s ws in
    (ds, fingerprint s)
  in
  with_faults [] @@ fun () ->
  let s =
    Session.create ~deadline:nearest_deadline ~algorithm:algo ~seed:6 instance
  in
  let ds = feed_all s ws in
  Alcotest.(check bool) "same decisions" true (ds = fst plain);
  Alcotest.(check bool) "same fingerprint" true (fingerprint s = snd plain);
  Alcotest.(check int) "nothing degraded" 0 (Session.degraded_total s)

(* Injected slowdowns blow the budget at scripted arrivals: exactly those
   decisions are degraded, the stream stays valid, and a kill/restore of
   the D-tagged journal reproduces the uninterrupted degraded run. *)
let test_deadline_degradation_deterministic () =
  let algo = Ltc_algo.Algorithm.laf in
  let instance = small_instance ~seed:41 () in
  let ws = arrivals instance in
  let slow_hits = [ 3; 7; 11 ] in
  let uninterrupted =
    with_faults (delay_at slow_hits) @@ fun () ->
    let s =
      Session.create ~deadline:nearest_deadline ~algorithm:algo ~seed:6
        instance
    in
    let ds = feed_all s ws in
    Alcotest.(check int) "degraded_total counts the slow arrivals" 3
      (Session.degraded_total s);
    List.iteri
      (fun j (d : Session.decision) ->
        Alcotest.(check bool)
          (Printf.sprintf "arrival %d degraded flag" (j + 1))
          (List.mem (j + 1) slow_hits)
          d.Session.degraded;
        List.iter
          (fun t ->
            Alcotest.(check bool) "assigned task ids valid" true
              (t >= 0 && t < Array.length instance.Ltc_core.Instance.tasks))
          d.Session.assigned)
      ds;
    (ds, fingerprint s)
  in
  (* Same plan, fresh clock: kill after arrival 12 (past every degraded
     decision) and restore.  Replay is journal-driven — the D tags force
     the fallback without consulting the clock — so the surviving run is
     bit-identical. *)
  with_tmp_journal @@ fun path ->
  with_faults (delay_at slow_hits) @@ fun () ->
  let s =
    Session.create ~journal:path ~checkpoint_every:100
      ~deadline:nearest_deadline ~algorithm:algo ~seed:6 instance
  in
  List.iteri (fun j w -> if j < 12 then ignore (Session.feed s w)) ws;
  let s' = Session.restore ~path () in
  Alcotest.(check int) "restore replays to the kill point" 12
    (Session.consumed s');
  List.iteri (fun j w -> if j >= 12 then ignore (Session.feed s' w)) ws;
  Session.close s';
  Alcotest.(check bool) "degraded run survives kill/restore" true
    (fingerprint s' = snd uninterrupted)

(* The ltc_engine_degraded_total counter, the session's degraded_total
   and the journal's degraded event records are three views of the same
   events — they must agree, and replaying the journal must rebuild the
   counter from the records alone.  checkpoint_every exceeds the stream
   length so no snapshot supersedes the degraded records. *)
let test_degraded_counter_matches_journal () =
  let algo = Ltc_algo.Algorithm.laf in
  let instance = small_instance ~seed:41 () in
  let ws = arrivals instance in
  let slow_hits = [ 2; 5; 9 ] in
  let counter () =
    Ltc_util.Metrics.Counter.value
      (Ltc_algo.Engine.degraded_counter "LAF" "Nearest")
  in
  Ltc_util.Metrics.reset ();
  Ltc_util.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Ltc_util.Metrics.set_enabled false)
  @@ fun () ->
  let create journal =
    Session.create ~journal ~checkpoint_every:1000 ~deadline:nearest_deadline
      ~algorithm:algo ~seed:6 instance
  in
  (* Frames start right after the header, which is what a journal with no
     arrivals holds. *)
  let header_len =
    with_tmp_journal @@ fun p ->
    Session.close (create p);
    String.length (read_file p)
  in
  with_tmp_journal @@ fun path ->
  let degraded_records () =
    let bytes = read_file path in
    let rec go pos n =
      match B.frame_at bytes pos with
      | B.Frame len ->
        let n =
          match B.record_of_payload bytes ~pos:(pos + 8) ~len with
          | B.Event e when e.B.e_degraded -> n + 1
          | B.Event _ | B.Snapshot _ -> n
        in
        go (pos + 8 + len) n
      | B.Eof -> n
      | B.Torn | B.Invalid _ -> Alcotest.fail "journal frames must be intact"
    in
    go header_len 0
  in
  (with_faults (delay_at slow_hits) @@ fun () ->
   let s = create path in
   ignore (feed_all s ws);
   Session.close s;
   Alcotest.(check int) "three arrivals degraded" 3 (Session.degraded_total s);
   Alcotest.(check int) "journal degraded records = degraded_total"
     (Session.degraded_total s) (degraded_records ());
   Alcotest.(check int) "metric counter = degraded_total"
     (Session.degraded_total s) (counter ()));
  (* Kill/restore against a fresh registry: the counter is rebuilt purely
     from the replayed records.  (Count them before restoring — restore
     itself compacts the journal, folding the tail into a snapshot.) *)
  let d_count = degraded_records () in
  Ltc_util.Metrics.reset ();
  let s' = Session.restore ~path () in
  Alcotest.(check int) "replay rebuilds the counter from the records" d_count
    (counter ());
  Alcotest.(check int) "degraded_total restored" 3 (Session.degraded_total s');
  Session.close s'

(* ------------------------------------------------ flight recorder ring *)

let fr_record i =
  {
    Flight_recorder.seq = i;
    offered_s = float_of_int i;
    actual_s = float_of_int i;
    done_s = float_of_int i +. 0.5;
    latency_s = 0.5;
    assigned = 1;
    degraded = i mod 2 = 0;
    journal_bytes = 0;
  }

let test_flight_recorder_ring () =
  let r = Flight_recorder.create ~capacity:3 in
  Alcotest.(check int) "empty length" 0 (Flight_recorder.length r);
  for i = 1 to 5 do
    Flight_recorder.record r (fr_record i)
  done;
  Alcotest.(check int) "length capped at capacity" 3
    (Flight_recorder.length r);
  Alcotest.(check int) "total counts every record" 5
    (Flight_recorder.total r);
  Alcotest.(check int) "dropped = overwritten" 2 (Flight_recorder.dropped r);
  let seen = ref [] in
  Flight_recorder.iter (fun rec_ -> seen := rec_.Flight_recorder.seq :: !seen) r;
  Alcotest.(check (list int)) "iter is oldest-first, survivors only"
    [ 3; 4; 5 ] (List.rev !seen);
  let ndjson = Flight_recorder.to_ndjson r in
  Alcotest.(check int) "one NDJSON line per surviving record" 3
    (List.length
       (List.filter
          (fun l -> l <> "")
          (String.split_on_char '\n' ndjson)));
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Flight_recorder.create: capacity must be >= 1")
    (fun () -> ignore (Flight_recorder.create ~capacity:0))

(* The ring grows with what it records: a capacity of ten million costs
   nothing up front ([ltc loadgen --flight-capacity] takes any value),
   and 30 records read back as they do from a ring of capacity 30. *)
let test_flight_recorder_grows () =
  let bytes f =
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let r = f () in
    Gc.minor ();
    (r, Gc.allocated_bytes () -. before)
  in
  let fill capacity =
    let r = Flight_recorder.create ~capacity in
    for i = 1 to 30 do
      Flight_recorder.record r (fr_record i)
    done;
    r
  in
  let big, allocated = bytes (fun () -> fill 10_000_000) in
  if allocated >= 100_000.0 then
    Alcotest.failf "30 records at capacity 10^7 allocated %.0f bytes" allocated;
  let small = fill 30 in
  let seqs r =
    let acc = ref [] in
    Flight_recorder.iter (fun x -> acc := x.Flight_recorder.seq :: !acc) r;
    List.rev !acc
  in
  Alcotest.(check (list int)) "same records" (seqs small) (seqs big);
  Alcotest.(check int) "same length" (Flight_recorder.length small)
    (Flight_recorder.length big);
  Alcotest.(check int) "nothing dropped" (Flight_recorder.dropped small)
    (Flight_recorder.dropped big);
  Alcotest.(check int) "capacity kept" 10_000_000
    (Flight_recorder.capacity big);
  (* Past its capacity a grown ring wraps as a full one does. *)
  let r = Flight_recorder.create ~capacity:20 in
  for i = 1 to 50 do
    Flight_recorder.record r (fr_record i)
  done;
  Alcotest.(check (list int)) "the 20 most recent" (List.init 20 (( + ) 31))
    (seqs r);
  Alcotest.(check int) "dropped" 30 (Flight_recorder.dropped r)

(* --------------------------------------------------------- loadgen runs *)

(* Virtual-timing loadgen is a pure function of its config: two passes on
   fresh sessions agree field for field, and the latencies carry the
   injected service times through the coordinated-omission correction. *)
let test_loadgen_deterministic () =
  let algo = Ltc_algo.Algorithm.laf in
  let instance = small_instance ~n_workers:40 ~seed:11 () in
  let workers = instance.Ltc_core.Instance.workers in
  let shape =
    Ltc_workload.Shape.make ~rate:200.0
      (Ltc_workload.Shape.Burst { factor = 4.0; at_s = 0.05; dur_s = 0.05 })
  in
  let deadline =
    { Session.budget_s = 0.002; fallback = Ltc_algo.Algorithm.nearest_first }
  in
  let config =
    {
      (Loadgen.default_config ~shape) with
      Loadgen.arrivals = 40;
      service = Loadgen.Exponential 2e-3;
      seed = 5;
      slo_s = Some 0.004;
    }
  in
  let server () =
    Shard_server.create ~deadline ~shards:1 ~algorithm:algo ~seed:3 instance
  in
  let pass () =
    let srv = server () in
    let r = Loadgen.run ~server:srv ~workers config in
    Shard_server.close srv;
    r
  in
  let r1 = pass () in
  let r2 = pass () in
  let fp (r : Loadgen.report) =
    ( r.Loadgen.r_offered, r.Loadgen.r_consumed, r.Loadgen.r_degraded,
      r.Loadgen.r_breaches, r.Loadgen.r_first_breach, r.Loadgen.r_makespan_s,
      r.Loadgen.r_p50_s, r.Loadgen.r_p99_s, r.Loadgen.r_max_s )
  in
  Alcotest.(check bool) "two passes, identical reports" true (fp r1 = fp r2);
  Alcotest.(check bool) "exponential tail blows the 2ms budget" true
    (r1.Loadgen.r_degraded > 0);
  Alcotest.(check int) "every arrival recorded" r1.Loadgen.r_offered
    (Flight_recorder.total r1.Loadgen.r_recorder);
  (* The report renders without raising and pins its own shape string. *)
  let rendered = Format.asprintf "%a" Loadgen.pp_report r1 in
  Alcotest.(check bool) "report mentions the shape" true
    (Astring.String.is_infix ~affix:r1.Loadgen.r_shape rendered);
  (* A used server is rejected: the schedule would be misaligned. *)
  let srv = server () in
  ignore (Shard_server.feed srv workers.(0));
  Alcotest.check_raises "non-fresh server rejected"
    (Invalid_argument "Loadgen.run: server must be fresh (consumed = 0)")
    (fun () -> ignore (Loadgen.run ~server:srv ~workers config));
  (* A recorder with no slot is refused by the check that runs before any
     server (and its journal) exists. *)
  Alcotest.check_raises "zero recorder capacity rejected"
    (Invalid_argument "Loadgen.run: recorder_capacity must be >= 1")
    (fun () ->
      Loadgen.check_config ~mode:Shard_server.Inline ~supervised:false
        { config with Loadgen.recorder_capacity = 0 })

(* A supervised server probes each shard's faults under its scope, where
   the virtual run's unscoped service-time delays would never fire: the
   run is refused rather than reporting zero latency. *)
let test_loadgen_virtual_refuses_supervised () =
  let instance = small_instance ~n_workers:40 ~seed:11 () in
  let srv =
    Shard_server.create ~mode:Shard_server.Inline
      ~supervise:{ Supervisor.default with Supervisor.max_restarts = 0 }
      ~shards:2 ~algorithm:Ltc_algo.Algorithm.laf ~seed:3 instance
  in
  Fun.protect ~finally:(fun () -> Shard_server.close srv) @@ fun () ->
  Alcotest.check_raises "supervised server refused"
    (Invalid_argument
       "Loadgen.run: virtual timing requires an unsupervised Inline-mode \
        server") (fun () ->
      ignore
        (Loadgen.run ~server:srv ~workers:instance.Ltc_core.Instance.workers
           (Loadgen.default_config
              ~shape:
                (Ltc_workload.Shape.make ~rate:200.0 Ltc_workload.Shape.Constant))))

(* ------------------------------------------------------ sharded serving *)

let session_fp s =
  ( Ltc_core.Arrangement.to_list (Session.arrangement s),
    Session.latency s,
    Session.consumed s,
    Session.completed s )

let sharded_fp srv =
  ( Ltc_core.Arrangement.to_list (Shard_server.arrangement srv),
    Shard_server.latency srv,
    Shard_server.consumed srv,
    Shard_server.completed srv )

(* Policies whose decisions are candidate-local and RNG-free — the set
   the parity guarantee covers (DESIGN.md S14). *)
let shard_local_algorithms =
  [
    Ltc_algo.Algorithm.laf;
    Ltc_algo.Algorithm.lgf;
    Ltc_algo.Algorithm.lrf;
    Ltc_algo.Algorithm.nearest_first;
  ]

let single_baseline algo instance =
  let s = Session.create ~algorithm:algo ~seed:55 instance in
  let ds = feed_all s (arrivals instance) in
  let fp = session_fp s in
  Session.close s;
  (Array.of_list ds, fp)

let check_shard_parity ~mode ~shards algo =
  let instance = Fixtures.clustered_instance ~seed:3 () in
  let baseline, base_fp = single_baseline algo instance in
  let srv = Shard_server.create ~mode ~shards ~algorithm:algo ~seed:99 instance in
  let streamed =
    List.concat_map (Shard_server.feed srv) (arrivals instance)
  in
  let got = streamed @ Shard_server.flush srv in
  let label what =
    Printf.sprintf "%s K=%d %s" algo.Ltc_algo.Algorithm.name shards what
  in
  Alcotest.(check int)
    (label "one decision per arrival")
    (Array.length baseline) (List.length got);
  List.iteri
    (fun i d ->
      if d <> baseline.(i) then
        Alcotest.fail
          (label (Printf.sprintf "decision %d diverges from merged session" (i + 1))))
    got;
  Alcotest.(check bool) (label "fingerprint") true (sharded_fp srv = base_fp);
  Alcotest.(check int)
    (label "shards own every task")
    (Ltc_core.Instance.task_count instance)
    (Array.fold_left ( + ) 0 (Shard_server.shard_task_counts srv));
  Shard_server.close srv

(* Shard of each point of a 24 x 24 lattice under a 15 x 15 cell
   partition, recorded before the cell hash became [Rng.mix]: saved
   manifests route by this partition, so it must not move.  The lattice
   overhangs the tasks' extent by more than a cell on every side, so the
   clamp to the edge cells is pinned too. *)
let test_partition_pins () =
  let at x y = Ltc_geo.Point.make ~x ~y in
  let tasks =
    Array.init 40 (fun id ->
        let coord k = float_of_int (id * k mod 100) in
        Ltc_core.Task.make ~id ~loc:(at (coord 37) (coord 61)) ())
  in
  let instance =
    Ltc_core.Instance.create ~candidate_radius:(Some 7.0) ~tasks ~workers:[||]
      ~epsilon:0.2 ()
  in
  List.iter
    (fun (shards, want_counts, want_digest) ->
      let srv =
        Shard_server.create ~mode:Shard_server.Inline ~shards
          ~algorithm:Ltc_algo.Algorithm.laf ~seed:1 instance
      in
      let counts = Array.make shards 0 in
      let map =
        String.init (24 * 24) (fun n ->
            let p =
              at
                ((5.4 *. float_of_int (n / 24)) -. 12.0)
                ((5.4 *. float_of_int (n mod 24)) -. 12.0)
            in
            let k = Shard_server.shard_of_point srv p in
            counts.(k) <- counts.(k) + 1;
            Char.chr (Char.code '0' + k))
      in
      Shard_server.close srv;
      let label = Printf.sprintf "K=%d" shards in
      Alcotest.(check (list int)) (label ^ " points per shard") want_counts
        (Array.to_list counts);
      Alcotest.(check string) (label ^ " map") want_digest
        (Digest.to_hex (Digest.string map)))
    [
      (2, [ 308; 268 ], "666475e14fed5b113862e9e2feb540e0");
      (3, [ 244; 207; 125 ], "a9c0c61cd0a85cbb24ecd8ae036de6db");
      (5, [ 162; 137; 73; 94; 110 ], "afd20a0e829052992c902d4ba2a48d90");
    ]

let test_shard_parity_inline () =
  List.iter
    (fun algo ->
      List.iter
        (fun shards -> check_shard_parity ~mode:Shard_server.Inline ~shards algo)
        [ 1; 2; 3; 4; 8 ])
    shard_local_algorithms

let test_shard_parity_domains () =
  check_shard_parity ~mode:Shard_server.Domains ~shards:4 Ltc_algo.Algorithm.laf;
  check_shard_parity ~mode:Shard_server.Domains ~shards:2
    Ltc_algo.Algorithm.nearest_first

let shard_paths base =
  base :: List.init 16 (fun k -> Printf.sprintf "%s.shard%d" base k)

let with_tmp_shard_base f =
  let base = Filename.temp_file "ltc_shard_test" ".journal" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (shard_paths base))
    (fun () -> f base)

let with_crash_at ~hit f =
  Fun.protect
    ~finally:(fun () -> Ltc_util.Fault.disarm ())
    (fun () ->
      Ltc_util.Fault.arm
        [ { Ltc_util.Fault.site = "journal.append"; hit;
            action = Ltc_util.Fault.Crash } ];
      f ())

(* Crash one shard's journal mid-append, abandon the whole server (crash
   semantics: unflushed group-commit buffers on EVERY shard are lost),
   restore all K, re-feed the stream from arrival 1 and demand the
   single-session baseline back: skipped (already-durable) arrivals emit
   nothing, everything else re-decides identically, and the final merged
   fingerprint is unchanged.  Returns whether the fault actually fired,
   so the caller can walk [hit] until the plan stops firing. *)
let sharded_kill_restore ~shards ~group_commit ~hit algo instance
    (baseline, base_fp) =
  with_tmp_shard_base @@ fun base ->
  let check_decision where (d : Session.decision) =
    if d <> baseline.(d.Session.worker - 1) then
      Alcotest.fail
        (Printf.sprintf "K=%d gc=%d hit=%d: %s decision %d diverges" shards
           group_commit hit where d.Session.worker)
  in
  let srv =
    Shard_server.create ~mode:Shard_server.Inline ~journal:base ~group_commit
      ~checkpoint_every:1000 ~shards ~algorithm:algo ~seed:99
      instance
  in
  let crashed = ref false in
  with_crash_at ~hit (fun () ->
      try
        List.iter
          (fun w -> List.iter (check_decision "live") (Shard_server.feed srv w))
          (arrivals instance)
      with Ltc_util.Fault.Injected_crash _ -> crashed := true);
  if not !crashed then begin
    Shard_server.close srv;
    false
  end
  else begin
    (* abandoned, not closed — the crash loses unflushed buffers *)
    let srv' = Shard_server.restore ~mode:Shard_server.Inline ~path:base () in
    Alcotest.(check int)
      (Printf.sprintf "hit=%d: restore reports the durable prefix" hit)
      (Array.fold_left ( + ) 0 (Shard_server.shard_consumed srv'))
      (Shard_server.resumed_at srv');
    List.iter
      (fun w -> List.iter (check_decision "replayed") (Shard_server.feed srv' w))
      (arrivals instance);
    ignore (Shard_server.flush srv');
    if sharded_fp srv' <> base_fp then
      Alcotest.fail
        (Printf.sprintf "K=%d gc=%d hit=%d: restored fingerprint diverges"
           shards group_commit hit);
    Shard_server.close srv';
    true
  end

let test_sharded_kill_restore_everywhere () =
  let algo = Ltc_algo.Algorithm.laf in
  let instance = Fixtures.clustered_instance ~seed:7 () in
  let baseline = single_baseline algo instance in
  List.iter
    (fun shards ->
      let hit = ref 1 in
      while
        sharded_kill_restore ~shards ~group_commit:1 ~hit:!hit algo instance
          baseline
      do
        incr hit
      done;
      if !hit < 10 then
        Alcotest.fail
          (Printf.sprintf "K=%d: journal.append fired only %d times" shards
             (!hit - 1)))
    [ 1; 3 ]

(* Random K / group-commit / kill point: the restored sharded server
   always converges to the single-session baseline. *)
let prop_sharded_kill_restore =
  QCheck2.Test.make
    ~name:"sharded kill/restore == single session under random K/gc/hit"
    ~count:25
    QCheck2.Gen.(
      let* iseed = int_range 0 10_000 in
      let* shards = int_range 1 5 in
      let* group_commit = int_range 1 8 in
      let* hit = int_range 1 40 in
      return (iseed, shards, group_commit, hit))
    (fun (iseed, shards, group_commit, hit) ->
      let algo = Ltc_algo.Algorithm.laf in
      let instance = Fixtures.clustered_instance ~seed:iseed () in
      let baseline = single_baseline algo instance in
      ignore
        (sharded_kill_restore ~shards ~group_commit ~hit algo instance
           baseline);
      true)

(* The manifest round-trips create-time configuration: a restore with no
   arrivals fed behaves like a fresh server with the same options. *)
let test_shard_manifest_roundtrip () =
  let algo = Ltc_algo.Algorithm.lgf in
  let instance = Fixtures.clustered_instance ~seed:5 () in
  with_tmp_shard_base @@ fun base ->
  let srv =
    Shard_server.create ~mode:Shard_server.Inline ~journal:base ~group_commit:4
      ~shards:3 ~algorithm:algo ~seed:11 instance
  in
  Alcotest.(check bool) "manifest detected" true (Shard_server.is_manifest base);
  Alcotest.(check bool) "shard journal is no manifest" false
    (Shard_server.is_manifest (base ^ ".shard0"));
  Shard_server.close srv;
  let srv' = Shard_server.restore ~mode:Shard_server.Inline ~path:base () in
  Alcotest.(check string) "algorithm restored"
    Ltc_algo.Algorithm.lgf.Ltc_algo.Algorithm.name
    (Shard_server.algorithm_name srv');
  Alcotest.(check int) "shards restored" 3 (Shard_server.shards srv');
  Alcotest.(check int) "nothing to resume" 0 (Shard_server.resumed_at srv');
  let baseline, base_fp = single_baseline algo instance in
  let got =
    List.concat_map (Shard_server.feed srv') (arrivals instance)
    @ Shard_server.flush srv'
  in
  Alcotest.(check int) "one decision per arrival" (Array.length baseline)
    (List.length got);
  Alcotest.(check bool) "fingerprint via manifest restore" true
    (sharded_fp srv' = base_fp);
  Shard_server.close srv'

(* [lines] with field [field] of the first line starting with [prefix]
   replaced by [value], and the (1-based) number of that line. *)
let mangle_field lines (prefix, field, value) =
  let line = ref 0 in
  let edited =
    List.mapi
      (fun i l ->
        if !line = 0 && String.starts_with ~prefix l then begin
          line := i + 1;
          String.concat " "
            (List.mapi
               (fun j f -> if j = field then value else f)
               (String.split_on_char ' ' l))
        end
        else l)
      lines
  in
  (!line, edited)

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines)

(* A manifest's own floats (accept rate, deadline budget) and its
   instance's are refused when not finite, and its counts below the bounds
   [create] enforces, naming the line. *)
let test_shard_manifest_non_finite () =
  let instance = Fixtures.clustered_instance ~seed:5 () in
  with_tmp_shard_base @@ fun base ->
  Shard_server.close
    (Shard_server.create ~mode:Shard_server.Inline ~journal:base
       ~accept_rate:0.8
       ~deadline:
         {
           Session.budget_s = 0.05;
           fallback = Ltc_algo.Algorithm.nearest_first;
         }
       ~shards:2 ~algorithm:Ltc_algo.Algorithm.laf ~seed:3 instance);
  let lines = In_channel.with_open_text base In_channel.input_lines in
  ignore (Shard_server.read_manifest ~path:base);
  List.iter
    (fun (prefix, field, value, reason) ->
      let line, edited = mangle_field lines (prefix, field, value) in
      write_lines base edited;
      match Shard_server.read_manifest ~path:base with
      | (_ : Shard_server.manifest) ->
        Alcotest.failf "%s%s accepted" prefix value
      | exception Ltc_core.Serialize.Parse_error { line = l; message } ->
        Alcotest.(check int) (prefix ^ value ^ ": line") line l;
        Alcotest.(check string) (prefix ^ value ^ ": message") reason message)
    [
      ("accept_rate ", 1, "nan", "bad accept_rate \"nan\"");
      ("deadline ", 1, "inf", "bad deadline \"inf\"");
      ("t 0 ", 2, "nan", "expected a finite float, got \"nan\"");
      ("shards ", 1, "0", "bad shards \"0\" (must be >= 1)");
      ("shards ", 1, "-3", "bad shards \"-3\" (must be >= 1)");
      ("mailbox ", 1, "0", "bad mailbox \"0\" (must be >= 1)");
      ("mailbox ", 1, "-1", "bad mailbox \"-1\" (must be >= 1)");
      ( "checkpoint_every ", 1, "0",
        "bad checkpoint_every \"0\" (must be >= 1)" );
      ( "checkpoint_every ", 1, "-5",
        "bad checkpoint_every \"-5\" (must be >= 1)" );
      ("group_commit ", 1, "0", "bad group_commit \"0\" (must be >= 1)");
    ]

(* One shard is the plain session, for every online registry entry —
   Random and no-show draws included, since it keeps the root seed — with
   or without a binary journal, and across a kill at a random journal
   append followed by a restore of that (plain, manifest-free) journal
   and a full re-feed. *)
let online_registry =
  List.filter
    (fun (a : Ltc_algo.Algorithm.t) -> a.Ltc_algo.Algorithm.policy <> None)
    Ltc_algo.Algorithm.all

let prop_one_shard_is_session =
  QCheck2.Test.make ~name:"one shard == plain Session, any online policy"
    ~count:60
    QCheck2.Gen.(
      let* iseed = int_range 0 10_000 in
      let* seed = int_range 0 10_000 in
      let* algo = int_range 0 (List.length online_registry - 1) in
      let* noshow = bool in
      let* journaled = bool in
      let* group_commit = int_range 1 4 in
      let* kill = opt (int_range 1 12) in
      return (iseed, seed, algo, noshow, journaled, group_commit, kill))
    (fun (iseed, seed, algo, noshow, journaled, group_commit, kill) ->
      let algorithm = List.nth online_registry algo in
      let accept_rate = if noshow then Some 0.7 else None in
      let instance = small_instance ~seed:iseed () in
      let ws = arrivals instance in
      let plain = Session.create ?accept_rate ~algorithm ~seed instance in
      let expected = feed_all plain ws in
      with_tmp_journal @@ fun path ->
      let journal = if journaled then Some path else None in
      let srv =
        Shard_server.create ?accept_rate ?journal ~group_commit ~shards:1
          ~algorithm ~seed instance
      in
      (* Decisions released so far, kept across a crash. *)
      let fed = ref [] in
      let feed_server srv =
        List.iter
          (fun w -> fed := List.rev_append (Shard_server.feed srv w) !fed)
          ws
      in
      let crashed =
        match (kill, journal) with
        | Some hit, Some _ -> (
          match with_crash_at ~hit (fun () -> feed_server srv) with
          | () -> false
          | exception Ltc_util.Fault.Injected_crash _ -> true)
        | _ ->
          feed_server srv;
          false
      in
      let live = List.rev !fed in
      let srv, streams_ok =
        if not crashed then (srv, live = expected)
        else begin
          (* abandoned, not closed: the kill loses the unflushed group *)
          let srv' = Shard_server.restore ~path () in
          fed := [];
          feed_server srv';
          let resumed = Shard_server.resumed_at srv' in
          ( srv',
            live = List.filteri (fun i _ -> i < List.length live) expected
            && List.rev !fed = List.filteri (fun i _ -> i >= resumed) expected
          )
        end
      in
      let plain_journal =
        (not journaled)
        || ((not (Sys.file_exists (path ^ ".shard0")))
           && not (Shard_server.is_manifest path))
      in
      let same_end = sharded_fp srv = session_fp plain in
      Shard_server.close srv;
      streams_ok && plain_journal && same_end)

(* ------------------------------------------------------- header codec *)

(* A header's configuration, comparable with [=]: algorithms by name, the
   instance by what its file lines hold. *)
let header_view (h : Session.header) =
  let i = h.Session.instance in
  ( ( h.Session.algorithm.Ltc_algo.Algorithm.name,
      h.Session.seed,
      h.Session.accept_rate,
      h.Session.checkpoint_every,
      Option.map
        (fun (d : Session.deadline) ->
          (d.Session.budget_s, d.Session.fallback.Ltc_algo.Algorithm.name))
        h.Session.deadline ),
    ( i.Ltc_core.Instance.tasks,
      i.Ltc_core.Instance.epsilon,
      i.Ltc_core.Instance.accuracy,
      i.Ltc_core.Instance.candidate_radius ) )

let gen_header =
  QCheck2.Gen.(
    let online = int_range 0 (List.length online_registry - 1) in
    let* algorithm = online in
    let* seed = oneof [ int_range min_int (-1); int_range (1 lsl 61) max_int ] in
    let* accept_rate =
      opt (map (fun x -> 1.0 -. x) (float_bound_exclusive 1.0))
    in
    let* checkpoint_every = int_range 1 1_000_000 in
    let* deadline = opt (pair (float_range 1e-6 1e3) online) in
    let* n_tasks = int_range 1 6 in
    let* tasks =
      list_repeat n_tasks
        (triple (float_range (-500.0) 500.0) (float_range (-500.0) 500.0)
           (opt (float_range 0.01 0.49)))
    in
    let* radius = opt (float_range 1.0 60.0) in
    let* epsilon = float_range 0.01 0.49 in
    return
      {
        Session.algorithm = List.nth online_registry algorithm;
        seed;
        accept_rate;
        checkpoint_every;
        deadline =
          Option.map
            (fun (budget_s, k) ->
              { Session.budget_s; fallback = List.nth online_registry k })
            deadline;
        instance =
          Ltc_core.Instance.create ~candidate_radius:radius
            ~tasks:
              (Array.of_list
                 (List.mapi
                    (fun id (x, y, epsilon) ->
                      Ltc_core.Task.make ?epsilon ~id
                        ~loc:(Ltc_geo.Point.make ~x ~y) ())
                    tasks))
            ~workers:[||] ~epsilon ();
      })

(* Render, read, render: one header codec under both file kinds.  Each
   render goes through the writer a run uses ([Session.create],
   [Shard_server.create]), the second from what the first read back. *)
let prop_header_round_trip =
  QCheck2.Test.make ~name:"journal header and manifest: render, read, render"
    ~count:40
    QCheck2.Gen.(
      pair gen_header
        (quad (int_range 2 4) (int_range 1 256) (int_range 1 64) bool))
    (fun (h, (shards, mailbox, group_commit, fsync)) ->
      let journal path (h : Session.header) =
        Session.close
          (Session.create ?accept_rate:h.Session.accept_rate
             ?deadline:h.Session.deadline ~journal:path
             ~checkpoint_every:h.Session.checkpoint_every
             ~algorithm:h.Session.algorithm ~seed:h.Session.seed
             h.Session.instance)
      in
      let manifest base (m : Shard_server.manifest) =
        let h = m.Shard_server.header in
        Shard_server.close
          (Shard_server.create ?accept_rate:h.Session.accept_rate
             ?deadline:h.Session.deadline ~journal:base
             ~checkpoint_every:h.Session.checkpoint_every
             ~fsync:m.Shard_server.fsync
             ~group_commit:m.Shard_server.group_commit
             ~mailbox:m.Shard_server.mailbox ~mode:Shard_server.Inline
             ~shards:m.Shard_server.shards ~algorithm:h.Session.algorithm
             ~seed:h.Session.seed h.Session.instance)
      in
      let journal_ok =
        with_tmp_journal @@ fun a ->
        with_tmp_journal @@ fun b ->
        journal a h;
        let h' = Session.Journal.header ~path:a in
        journal b h';
        read_file a = read_file b && header_view h' = header_view h
      in
      let m = { Shard_server.shards; mailbox; fsync; group_commit; header = h } in
      let manifest_ok =
        with_tmp_shard_base @@ fun a ->
        with_tmp_shard_base @@ fun b ->
        manifest a m;
        let m' = Shard_server.read_manifest ~path:a in
        manifest b m';
        read_file a = read_file b
        && header_view m'.Shard_server.header = header_view h
        && Shard_server.(m'.shards, m'.mailbox, m'.fsync, m'.group_commit)
           = (shards, mailbox, fsync, group_commit)
      in
      journal_ok && manifest_ok)

(* The journal header's table of "manifest refuses non-finite floats":
   each header value mangled in turn is refused by both [Journal.inspect]
   and [restore], naming its line.  A checkpoint period below 1 is the
   exception an old journal may hold: it restores, and its compacted
   header says 1. *)
let test_journal_header_refused () =
  let instance = small_instance ~n_tasks:4 ~seed:61 () in
  with_tmp_journal @@ fun path ->
  Session.close
    (Session.create ~journal:path ~accept_rate:0.8 ~deadline:nearest_deadline
       ~algorithm:Ltc_algo.Algorithm.laf ~seed:5 instance);
  let lines = In_channel.with_open_text path In_channel.input_lines in
  List.iter
    (fun (prefix, field, value, reason) ->
      let line, edited = mangle_field lines (prefix, field, value) in
      let refused what f =
        write_lines path edited;
        match f () with
        | () -> Alcotest.failf "%s: %s%s accepted" what prefix value
        | exception Session.Corrupt_journal { message; _ } ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s%s" what prefix value)
            (Printf.sprintf "line %d: %s" line reason)
            message
      in
      refused "inspect" (fun () -> ignore (Session.Journal.inspect ~path));
      refused "restore" (fun () -> ignore (Session.restore ~path ())))
    [
      ("algorithm ", 1, "Astar", "unknown algorithm \"Astar\"");
      ( "algorithm ", 1, "MCF-LTC",
        "algorithm \"MCF-LTC\" has no online policy" );
      ("seed ", 1, "2.5", "bad seed \"2.5\"");
      ("seed ", 1, "nan", "bad seed \"nan\"");
      ("accept_rate ", 1, "nan", "bad accept_rate \"nan\"");
      ("accept_rate ", 1, "inf", "bad accept_rate \"inf\"");
      ("accept_rate ", 1, "0", "bad accept_rate \"0\" (must be in (0, 1])");
      ( "accept_rate ", 1, "1.5",
        "bad accept_rate \"1.5\" (must be in (0, 1])" );
      ("checkpoint_every ", 1, "2.5", "bad checkpoint_every \"2.5\"");
      ("deadline ", 1, "nan", "bad deadline \"nan\"");
      ("deadline ", 1, "inf", "bad deadline \"inf\"");
      ("deadline ", 1, "0", "bad deadline \"0\" (must be > 0)");
      ("deadline ", 2, "Astar", "unknown fallback \"Astar\"");
      ( "deadline ", 2, "Base-off",
        "fallback \"Base-off\" has no online policy" );
      ("t 0 ", 2, "inf", "expected a finite float, got \"inf\"");
    ];
  let _, edited = mangle_field lines ("checkpoint_every ", 1, "0") in
  write_lines path edited;
  Alcotest.(check int) "an old checkpoint period below 1 is read as it is" 0
    (Session.Journal.inspect ~path).Session.Journal.header
      .Session.checkpoint_every;
  Session.close (Session.restore ~path ());
  Alcotest.(check int) "and restored as 1" 1
    (Session.Journal.header ~path).Session.checkpoint_every

(* ------------------------------------------------------- chaos property *)

(* Crash-everywhere, seeded: whatever mix of crashes, torn writes,
   transient I/O errors and delays a random plan scripts, the surviving
   decision stream equals the fault-free baseline.  A binary journal
   reaches the checkpoint fault sites only at every 16th checkpoint and at
   restore, so a plan fires fewer faults than it did on the text journal
   this property used to run: over 1 200 draws of this generator, 1 992
   kills and 2 233 crashes, I/O errors and torn writes against 2 459 and
   2 787 on text.  The count grew from 25 by the larger ratio (1.25). *)
let prop_chaos_identical =
  QCheck2.Test.make
    ~name:"chaos: survived stream == fault-free baseline under random plans"
    ~count:32
    QCheck2.Gen.(
      let* iseed = int_range 0 10_000 in
      let* seed = int_range 0 10_000 in
      let* fault_seed = int_range 0 10_000 in
      let* crashes = int_range 0 4 in
      let* io_errors = int_range 0 3 in
      let* torn_writes = int_range 0 3 in
      let* delays = int_range 0 3 in
      let* checkpoint_every = int_range 1 9 in
      return
        (iseed, seed, fault_seed, crashes, io_errors, torn_writes, delays,
         checkpoint_every))
    (fun
      (iseed, seed, fault_seed, crashes, io_errors, torn_writes, delays,
       checkpoint_every)
    ->
      let instance = small_instance ~seed:iseed () in
      let plan =
        Chaos.plan ~crashes ~io_errors ~torn_writes ~delays ~horizon:30
          ~seed:fault_seed ()
      in
      with_tmp_journal @@ fun journal ->
      let r =
        Chaos.run ~checkpoint_every ~plan
          ~algorithm:Ltc_algo.Algorithm.laf ~seed ~journal instance
      in
      if not r.Chaos.identical then
        QCheck2.Test.fail_reportf "diverged: %s"
          (Option.value r.Chaos.divergence ~default:"?");
      true)

(* -------------------------------------------------------- supervision *)

(* The restart-budget state machine, in isolation: the first
   [max_restarts] crashes grant backoff-scheduled restarts, everything
   after quarantines, permanently and idempotently. *)
let test_supervisor_budget () =
  let cfg = { Supervisor.default with max_restarts = 2 } in
  let sup = Supervisor.create ~shards:3 cfg in
  let crash shard = Supervisor.on_crash sup ~shard in
  (match crash 1 with
  | `Restart d ->
    Alcotest.(check (float 1e-9))
      "first restart backs off per schedule"
      (Ltc_util.Fault.Retry.backoff_s 1)
      d
  | `Quarantine -> Alcotest.fail "first crash must restart");
  (match crash 1 with
  | `Restart d ->
    Alcotest.(check (float 1e-9))
      "second restart backs off further"
      (Ltc_util.Fault.Retry.backoff_s 2)
      d
  | `Quarantine -> Alcotest.fail "second crash must restart");
  (match crash 1 with
  | `Restart _ -> Alcotest.fail "budget exhausted: third crash must quarantine"
  | `Quarantine -> ());
  (match crash 1 with
  | `Restart _ -> Alcotest.fail "quarantine is permanent"
  | `Quarantine -> ());
  Alcotest.(check int) "restarts granted" 2 (Supervisor.restarts sup);
  Alcotest.(check (array int))
    "per-shard restart counts" [| 0; 2; 0 |]
    (Supervisor.shard_restarts sup);
  Alcotest.(check int) "one shard quarantined" 1 (Supervisor.quarantined sup);
  Alcotest.(check bool) "shard 1 quarantined" true
    (Supervisor.is_quarantined sup ~shard:1);
  Alcotest.(check bool) "shard 0 healthy" false
    (Supervisor.is_quarantined sup ~shard:0);
  (* a sibling's quarantine does not touch this shard's budget *)
  (match crash 0 with
  | `Restart _ -> ()
  | `Quarantine -> Alcotest.fail "sibling budget must be independent");
  Supervisor.note_shed sup;
  Supervisor.note_shed sup;
  Alcotest.(check int) "shed accounting" 2 (Supervisor.shed sup);
  Alcotest.(check string) "scope name" "shard2" (Supervisor.scope ~shard:2);
  (* max_restarts = 0 quarantines on the very first crash *)
  let sup0 =
    Supervisor.create ~shards:1 { cfg with Supervisor.max_restarts = 0 }
  in
  (match Supervisor.on_crash sup0 ~shard:0 with
  | `Restart _ -> Alcotest.fail "max_restarts=0 must quarantine immediately"
  | `Quarantine -> ());
  Alcotest.check_raises "shards must be positive"
    (Invalid_argument "Supervisor.create: shards must be >= 1") (fun () ->
      ignore (Supervisor.create ~shards:0 cfg));
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument "Supervisor.create: max_restarts must be >= 0")
    (fun () ->
      ignore
        (Supervisor.create ~shards:1 { cfg with Supervisor.max_restarts = -1 }))

let with_faults faults f =
  Fun.protect
    ~finally:(fun () -> Ltc_util.Fault.disarm ())
    (fun () ->
      Ltc_util.Fault.arm faults;
      f ())

(* Crash isolation under quarantine: kill shard [kill_shard] at its
   [hit]-th scoped journal append with a zero restart budget.  With group
   commit 1 and no checkpoint before it, that append is the shard's
   [hit]-th arrival's, so the shard is quarantined and splits exactly:
   its first [hit - 1] arrivals are its baseline decisions (decided before
   the crash, whether or not the merge had released them yet), and every
   later one is an explicit unassigned degraded ack (the merge layer
   never hangs).  Every {e other} shard's decision substream is
   byte-identical to the unsupervised baseline.  Returns whether the
   fault actually fired. *)
let shard_crash_isolation ~mode ~shards ~kill_shard ~hit instance =
  let algo = Ltc_algo.Algorithm.laf in
  let n = Array.length instance.Ltc_core.Instance.workers in
  let collect srv =
    let decisions = Array.make n None in
    let record (d : Session.decision) =
      decisions.(d.Session.worker - 1) <- Some d
    in
    List.iter
      (fun w -> List.iter record (Shard_server.feed srv w))
      (arrivals instance);
    List.iter record (Shard_server.flush srv);
    decisions
  in
  let base =
    Shard_server.create ~mode:Shard_server.Inline ~shards ~algorithm:algo
      ~seed:99 instance
  in
  let baseline = collect base in
  Shard_server.close base;
  with_tmp_shard_base @@ fun path ->
  let srv =
    Shard_server.create ~mode ~journal:path ~checkpoint_every:1000
      ~supervise:{ Supervisor.default with Supervisor.max_restarts = 0 }
      ~shards ~algorithm:algo ~seed:99 instance
  in
  let site =
    Ltc_util.Fault.scope_site
      ~scope:(Supervisor.scope ~shard:kill_shard)
      "journal.append"
  in
  let got =
    with_faults
      [ { Ltc_util.Fault.site; hit; action = Ltc_util.Fault.Crash } ]
      (fun () -> collect srv)
  in
  let crashed = Shard_server.quarantined srv = 1 in
  (* Compare per-worker decision content; the merge-global [completed] /
     [latency] watermarks legitimately differ once a shard is
     quarantined (its tasks never complete, its acks never answer). *)
  let substream (d : Session.decision) =
    (d.Session.worker, d.Session.assigned, d.Session.answered,
     d.Session.degraded)
  in
  let killed_seen = ref 0 in
  Array.iteri
    (fun i d ->
      let w = instance.Ltc_core.Instance.workers.(i) in
      let label what =
        Printf.sprintf "K=%d kill=%d hit=%d arrival %d: %s" shards kill_shard
          hit (i + 1) what
      in
      match (d, baseline.(i)) with
      | None, _ -> Alcotest.fail (label "never acknowledged")
      | _, None -> Alcotest.fail (label "baseline never acknowledged")
      | Some d, Some b ->
        if Shard_server.shard_of_point srv w.Ltc_core.Worker.loc <> kill_shard
        then begin
          if substream d <> substream b then
            Alcotest.fail (label "sibling substream diverged")
        end
        else begin
          incr killed_seen;
          if crashed && !killed_seen >= hit then begin
            if not (d.Session.assigned = [] && d.Session.degraded) then
              Alcotest.fail (label "killed shard's arrival is not a dead ack")
          end
          else if substream d <> substream b then
            Alcotest.fail
              (label "killed shard's arrival before the crash diverged")
        end)
    got;
  Shard_server.close srv;
  crashed

let test_shard_quarantine_isolation () =
  let instance = Fixtures.clustered_instance ~seed:13 () in
  let fired = ref 0 in
  for kill_shard = 0 to 2 do
    if
      shard_crash_isolation ~mode:Shard_server.Domains ~shards:3 ~kill_shard
        ~hit:3 instance
    then incr fired
  done;
  Alcotest.(check int) "every shard reached its third append" 3 !fired

let prop_shard_crash_isolation =
  QCheck2.Test.make
    ~name:"killing shard k leaves every sibling substream byte-identical"
    ~count:25
    QCheck2.Gen.(
      let* iseed = int_range 0 10_000 in
      let* shards = int_range 2 4 in
      let* kill_shard = int_range 0 (shards - 1) in
      let* hit = int_range 1 15 in
      return (iseed, shards, kill_shard, hit))
    (fun (iseed, shards, kill_shard, hit) ->
      let instance = Fixtures.clustered_instance ~seed:iseed () in
      ignore
        (shard_crash_isolation ~mode:Shard_server.Inline ~shards ~kill_shard
           ~hit instance);
      true)

(* Online recovery in [`Inline] mode: shard [kill_shard] crashes once, at
   its [hit]-th scoped visit of [site], and the supervisor restores it from
   its journal on the calling domain and re-feeds what the crash lost.  The
   merged stream must equal the unsupervised inline server's, decision for
   decision, with one restart per fired fault and nothing quarantined.
   Returns the faults fired. *)
let inline_recovery ~shards ~kill_shard ~site ~hit instance =
  let algorithm = Ltc_algo.Algorithm.laf in
  let stream srv =
    let fed = List.concat_map (Shard_server.feed srv) (arrivals instance) in
    fed @ Shard_server.flush srv
  in
  let base =
    Shard_server.create ~mode:Shard_server.Inline ~shards ~algorithm ~seed:99
      instance
  in
  let baseline = stream base in
  Shard_server.close base;
  with_tmp_shard_base @@ fun journal ->
  let srv =
    Shard_server.create ~mode:Shard_server.Inline ~journal ~checkpoint_every:1
      ~supervise:{ Supervisor.default with Supervisor.max_restarts = 1 }
      ~shards ~algorithm ~seed:99 instance
  in
  let label what =
    Printf.sprintf "K=%d shard %d %s@%d: %s" shards kill_shard site hit what
  in
  let scoped =
    Ltc_util.Fault.scope_site ~scope:(Supervisor.scope ~shard:kill_shard) site
  in
  let got, fired =
    with_faults
      [ { Ltc_util.Fault.site = scoped; hit; action = Ltc_util.Fault.Crash } ]
      (fun () ->
        let got = stream srv in
        (got, (Ltc_util.Fault.stats ()).Ltc_util.Fault.crashes))
  in
  Alcotest.(check int) (label "one decision per arrival")
    (List.length baseline) (List.length got);
  if got <> baseline then Alcotest.fail (label "merged stream diverged");
  Alcotest.(check int) (label "one restart per fired fault") fired
    (Shard_server.restarts srv);
  Alcotest.(check int) (label "nothing quarantined") 0
    (Shard_server.quarantined srv);
  Shard_server.close srv;
  fired

let prop_inline_recovery =
  QCheck2.Test.make
    ~name:"inline online recovery: one crash leaves the stream unchanged"
    ~count:25
    QCheck2.Gen.(
      let* iseed = int_range 0 10_000 in
      let* shards = int_range 1 3 in
      let* kill_shard = int_range 0 (shards - 1) in
      let* site, hit =
        oneofl
          [
            ("journal.append", 1);
            ("journal.append", 5);
            ("journal.append", 40);
            ("journal.checkpoint.rename", 1);
          ]
      in
      return (iseed, shards, kill_shard, site, hit))
    (fun (iseed, shards, kill_shard, site, hit) ->
      (* Eight tasks a cluster at capacity 1 keep every shard journaling
         for over 30 arrivals: past its 40th append (an event and a
         partial snapshot per arrival at checkpoint_every 1) and its first
         compaction (the 16th checkpoint). *)
      let instance =
        Fixtures.clustered_instance ~tasks_per:8 ~n_arrivals:320 ~capacity:1
          ~seed:iseed ()
      in
      match inline_recovery ~shards ~kill_shard ~site ~hit instance with
      | 1 -> true
      | fired ->
        QCheck2.Test.fail_reportf "K=%d shard %d %s@%d fired %d faults"
          shards kill_shard site hit fired)

(* Online recovery end-to-end: a plan that provably kills every shard
   (scoped journal.append crashes at small hits, twice per shard) must
   leave the supervised [`Domains] merged stream byte-identical to the
   unsupervised baseline — zero lost, zero duplicated, zero quarantined. *)
let test_sharded_chaos_acceptance () =
  let shards = 3 in
  let instance = Fixtures.clustered_instance ~seed:21 () in
  let plan =
    List.concat
      (List.init shards (fun k ->
           let site =
             Ltc_util.Fault.scope_site
               ~scope:(Supervisor.scope ~shard:k)
               "journal.append"
           in
           [
             { Ltc_util.Fault.site; hit = 2 + k;
               action = Ltc_util.Fault.Crash };
             { Ltc_util.Fault.site; hit = 7 + k;
               action = Ltc_util.Fault.Crash };
           ]))
  in
  with_tmp_shard_base @@ fun journal ->
  let r =
    Chaos.run_sharded ~plan ~shards ~algorithm:Ltc_algo.Algorithm.laf ~seed:77
      ~journal instance
  in
  if not r.Chaos.identical then
    Alcotest.fail
      (Printf.sprintf "diverged: %s"
         (Option.value r.Chaos.divergence ~default:"?"));
  (match r.Chaos.recovery with
  | Chaos.Supervised { restarts; shard_restarts; quarantined; shed } ->
    Alcotest.(check int) "every crash recovered online" (2 * shards) restarts;
    Array.iteri
      (fun k c ->
        if c < 1 then
          Alcotest.fail (Printf.sprintf "shard %d never crashed" k))
      shard_restarts;
    Alcotest.(check int) "no quarantine" 0 quarantined;
    Alcotest.(check int) "nothing shed" 0 shed
  | Chaos.Kill_restore _ -> Alcotest.fail "a sharded run restarts shards");
  Alcotest.(check int) "one ack per arrival"
    (Array.length instance.Ltc_core.Instance.workers)
    (Array.length r.Chaos.survived)

(* Seeded random scoped plans (crashes, torn writes, transient I/O
   errors, delays) against the concurrent supervised runtime: the merged
   stream survives whatever fires.  No-shows make every shard draw from
   its RNG, so the final per-shard RNG states are a real check. *)
let prop_sharded_chaos_identical =
  QCheck2.Test.make
    ~name:"sharded chaos: survived stream == baseline under random plans"
    ~count:10
    QCheck2.Gen.(
      let* iseed = int_range 0 10_000 in
      let* fault_seed = int_range 0 10_000 in
      let* shards = int_range 2 4 in
      let* crashes = int_range 0 2 in
      let* io_errors = int_range 0 2 in
      let* torn_writes = int_range 0 2 in
      let* accept_rate = float_range 0.4 0.9 in
      return
        (iseed, fault_seed, shards, crashes, io_errors, torn_writes,
         accept_rate))
    (fun
      (iseed, fault_seed, shards, crashes, io_errors, torn_writes, accept_rate)
    ->
      let instance = Fixtures.clustered_instance ~seed:iseed () in
      let plan =
        Chaos.sharded_plan ~crashes ~io_errors ~torn_writes ~horizon:10
          ~seed:fault_seed ~shards ()
      in
      with_tmp_shard_base @@ fun journal ->
      let r =
        Chaos.run_sharded ~accept_rate ~checkpoint_every:8 ~plan ~shards
          ~algorithm:Ltc_algo.Algorithm.laf ~seed:77 ~journal instance
      in
      if not r.Chaos.identical then
        QCheck2.Test.fail_reportf "diverged: %s"
          (Option.value r.Chaos.divergence ~default:"?");
      true)

(* LAF whose decisions on shard [shard]'s domain (a supervised server
   decides under the shard's fault scope) wait until [gate] opens,
   counted in [stalls].  The stall is real (a [Delay] fault would only
   advance the virtual clock, and these servers run on real time), and it
   lasts until the gate opens, not for a fixed time the router might
   outrun; a timeout keeps a broken server from hanging the suite. *)
let gated_laf ~shard ~gate ~stalls =
  let stall () =
    Atomic.incr stalls;
    let give_up = Unix.gettimeofday () +. 10.0 in
    while (not (Atomic.get gate)) && Unix.gettimeofday () < give_up do
      Unix.sleepf 0.001
    done
  in
  let laf = Ltc_algo.Algorithm.laf in
  {
    laf with
    Ltc_algo.Algorithm.policy =
      Some
        (fun rng instance tracker progress ->
          let decide = (Option.get laf.policy) rng instance tracker progress in
          fun w ->
            if Ltc_util.Fault.current_scope () = Some (Supervisor.scope ~shard)
            then stall ();
            decide w);
  }

(* Overload shedding: stall shard 0's domain in its first decision behind
   a 1-slot mailbox until the router has offered every arrival; arrivals
   that find the mailbox full are shed as immediate unassigned degraded
   acks, counted, and nothing is lost or duplicated. *)
let test_shard_shed () =
  let instance = Fixtures.clustered_instance ~seed:31 () in
  let n = Array.length instance.Ltc_core.Instance.workers in
  let gate = Atomic.make false and stalls = Atomic.make 0 in
  let srv =
    Shard_server.create ~mode:Shard_server.Domains ~mailbox:1
      ~supervise:
        { Supervisor.max_restarts = 0; overload = Supervisor.Shed }
      ~shards:2
      ~algorithm:(gated_laf ~shard:0 ~gate ~stalls)
      ~seed:99 instance
  in
  let got = ref [] in
  Fun.protect ~finally:(fun () -> Atomic.set gate true) (fun () ->
      List.iter
        (fun w -> got := List.rev_append (Shard_server.feed srv w) !got)
        (arrivals instance));
  got := List.rev_append (Shard_server.flush srv) !got;
  let got = List.rev !got in
  Alcotest.(check bool) "shard 0 stalled" true (Atomic.get stalls >= 1);
  Alcotest.(check int) "one ack per arrival" n (List.length got);
  let dead =
    List.length
      (List.filter
         (fun (d : Session.decision) ->
           d.Session.assigned = [] && d.Session.degraded)
         got)
  in
  Alcotest.(check int) "shed counter matches dead acks" dead
    (Shard_server.shed srv);
  if Shard_server.shed srv < 1 then
    Alcotest.fail "a decide stall behind a 1-slot mailbox must shed";
  Alcotest.(check int) "no restarts" 0 (Shard_server.restarts srv);
  Shard_server.close srv

(* The merge releases in global arrival order whatever order the shard
   domains decide in.  Shard 0's first decision waits behind the gate,
   with a mailbox that holds the whole stream so the router never blocks.
   Before the last arrival is fed, shard 1 has decided all of its own:
   that feed releases exactly the arrivals before shard 0's first, and
   nothing at or after it.  Once the gate opens, [flush] returns the
   rest, and the whole stream is the inline baseline's. *)
let test_shard_release_order () =
  (* Seed 31 routes arrival 1 to shard 1, so the held prefix is not empty. *)
  let instance = Fixtures.clustered_instance ~seed:31 () in
  let workers = arrivals instance in
  let n = List.length workers in
  let base =
    Shard_server.create ~mode:Shard_server.Inline ~shards:2
      ~algorithm:Ltc_algo.Algorithm.laf ~seed:99 instance
  in
  let baseline = List.concat_map (Shard_server.feed base) workers in
  let owner (w : Ltc_core.Worker.t) =
    Shard_server.shard_of_point base w.Ltc_core.Worker.loc
  in
  Shard_server.close base;
  let first =
    (List.find (fun w -> owner w = 0) workers).Ltc_core.Worker.index
  in
  Alcotest.(check bool) "shard 0 does not own arrival 1" true (first > 1);
  let head = List.filteri (fun i _ -> i < n - 1) workers in
  let own1 = List.length (List.filter (fun w -> owner w = 1) head) in
  let gate = Atomic.make false and stalls = Atomic.make 0 in
  let srv =
    Shard_server.create ~mode:Shard_server.Domains ~mailbox:n
      ~supervise:
        { Supervisor.max_restarts = 0; overload = Supervisor.Block }
      ~shards:2
      ~algorithm:(gated_laf ~shard:0 ~gate ~stalls)
      ~seed:99 instance
  in
  let held =
    Fun.protect ~finally:(fun () -> Atomic.set gate true) @@ fun () ->
    let early = List.concat_map (Shard_server.feed srv) head in
    let give_up = Unix.gettimeofday () +. 10.0 in
    while
      (Atomic.get stalls = 0 || (Shard_server.shard_consumed srv).(1) < own1)
      && Unix.gettimeofday () < give_up
    do
      Unix.sleepf 0.001
    done;
    early @ Shard_server.feed srv (List.nth workers (n - 1))
  in
  let rest = Shard_server.flush srv in
  Alcotest.(check (list int))
    "gate closed: exactly the arrivals before shard 0's first"
    (List.init (first - 1) (fun i -> i + 1))
    (List.map (fun (d : Session.decision) -> d.Session.worker) held);
  if held @ rest <> baseline then
    Alcotest.fail "merged stream differs from the inline baseline";
  Shard_server.close srv

(* Supervision options are validated up front. *)
let test_supervise_validation () =
  let instance = Fixtures.clustered_instance ~seed:3 () in
  Alcotest.check_raises "restart budget without a journal"
    (Invalid_argument
       "Shard_server.create: supervision with restarts requires ~journal \
        (restore needs a shard journal; use max_restarts = 0 to \
        quarantine-on-crash without one)") (fun () ->
      ignore
        (Shard_server.create ~supervise:Supervisor.default ~shards:2
           ~algorithm:Ltc_algo.Algorithm.laf ~seed:1 instance));
  (* An inline server has no mailbox to fill, so it could never shed. *)
  let shed = { Supervisor.max_restarts = 0; overload = Supervisor.Shed } in
  let refused fn =
    Invalid_argument
      (fn ^ ": overload shedding needs shard mailboxes (Domains, shards >= 2)")
  in
  Alcotest.check_raises "inline shedding refused at create"
    (refused "Shard_server.create") (fun () ->
      ignore
        (Shard_server.create ~mode:Shard_server.Inline ~supervise:shed
           ~shards:2 ~algorithm:Ltc_algo.Algorithm.laf ~seed:1 instance));
  with_tmp_shard_base @@ fun path ->
  Shard_server.close
    (Shard_server.create ~journal:path ~shards:2
       ~algorithm:Ltc_algo.Algorithm.laf ~seed:1 instance);
  Alcotest.check_raises "inline shedding refused at restore"
    (refused "Shard_server.restore") (fun () ->
      ignore
        (Shard_server.restore ~mode:Shard_server.Inline ~supervise:shed ~path
           ()))

(* ---------------------------------------------------------- shard lanes *)

(* Each shard's lane (its mailbox, domain and stall count) is tested here,
   beside the shard fixtures; Test_parallel runs the lane cases as its
   [parallel.workers] group. *)

(* The unsupervised inline server at K = [shards]: its merged stream, its
   fingerprint, and the server itself (closed), whose partition and
   per-shard counts the lane tests compare against. *)
let inline_run ~shards algo instance =
  let srv =
    Shard_server.create ~mode:Shard_server.Inline ~shards ~algorithm:algo
      ~seed:99 instance
  in
  let stream = List.concat_map (Shard_server.feed srv) (arrivals instance) in
  let fp = sharded_fp srv in
  Shard_server.close srv;
  (stream, fp, srv)

(* LAF whose decisions on shard [shard] each run [hook n] first, [n]
   counting that shard's decisions.  The shard is told by its session's
   sub-instance, whose first task [owner] places on it, so no fault scope
   is needed and the server may run unsupervised. *)
let laf_on_shard ~owner ~shard hook =
  let laf = Ltc_algo.Algorithm.laf in
  {
    laf with
    Ltc_algo.Algorithm.policy =
      Some
        (fun rng instance tracker progress ->
          let decide = (Option.get laf.policy) rng instance tracker progress in
          let tasks = instance.Ltc_core.Instance.tasks in
          if Array.length tasks = 0 || owner tasks.(0).Ltc_core.Task.loc <> shard
          then decide
          else begin
            let n = ref 0 in
            fun w ->
              incr n;
              hook !n;
              decide w
          end);
  }

(* Backpressure: shard 0's decisions wait on a gate behind a 1-slot
   mailbox, so the router's posts to shard 0 fill it and block.  A helper
   domain opens the gate once a stall is counted (a timeout keeps a broken
   server from hanging the suite).  Nothing is shed, and the merged stream
   is the inline server's. *)
let test_lane_backpressure () =
  let instance = Fixtures.clustered_instance ~seed:31 () in
  let laf = Ltc_algo.Algorithm.laf in
  let baseline, base_fp, base = inline_run ~shards:2 laf instance in
  let gate = Atomic.make false in
  let wait_gate _ =
    let give_up = Unix.gettimeofday () +. 10.0 in
    while (not (Atomic.get gate)) && Unix.gettimeofday () < give_up do
      Unix.sleepf 0.001
    done
  in
  let algo =
    laf_on_shard ~owner:(Shard_server.shard_of_point base) ~shard:0 wait_gate
  in
  let srv =
    Shard_server.create ~mode:Shard_server.Domains ~mailbox:1 ~shards:2
      ~algorithm:algo ~seed:99 instance
  in
  let opener =
    Domain.spawn (fun () ->
        let give_up = Unix.gettimeofday () +. 10.0 in
        while Shard_server.stalls srv < 1 && Unix.gettimeofday () < give_up do
          Unix.sleepf 0.001
        done;
        Atomic.set gate true)
  in
  let got =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set gate true;
        Domain.join opener)
      (fun () ->
        let fed = List.concat_map (Shard_server.feed srv) (arrivals instance) in
        fed @ Shard_server.flush srv)
  in
  Alcotest.(check bool) "a full mailbox stalled the router" true
    (Shard_server.stalls srv >= 1);
  Alcotest.(check int) "nothing shed" 0 (Shard_server.shed srv);
  if got <> baseline then
    Alcotest.fail "merged stream differs from the inline baseline";
  Alcotest.(check bool) "fingerprint" true (sharded_fp srv = base_fp);
  Shard_server.close srv

(* Admission control: under [overload = Shed] the same gated shard behind
   a 1-slot mailbox makes the router refuse the arrivals that find it
   full, and a refusal is not a stall.  Once the lanes have drained, the
   next arrival is admitted. *)
let test_lane_shed_refusal () =
  let instance = Fixtures.clustered_instance ~seed:31 () in
  let gate = Atomic.make false and held = Atomic.make 0 in
  let srv =
    Shard_server.create ~mode:Shard_server.Domains ~mailbox:1
      ~supervise:{ Supervisor.max_restarts = 0; overload = Supervisor.Shed }
      ~shards:2
      ~algorithm:(gated_laf ~shard:0 ~gate ~stalls:held)
      ~seed:99 instance
  in
  let last, early =
    match List.rev (arrivals instance) with
    | last :: early -> (last, List.rev early)
    | [] -> Alcotest.fail "empty stream"
  in
  Fun.protect ~finally:(fun () -> Atomic.set gate true) (fun () ->
      List.iter (fun w -> ignore (Shard_server.feed srv w)) early);
  ignore (Shard_server.flush srv);
  let shed = Shard_server.shed srv in
  Alcotest.(check bool) "a full mailbox shed" true (shed >= 1);
  Alcotest.(check int) "a shed arrival is not a stall" 0
    (Shard_server.stalls srv);
  ignore (Shard_server.feed srv last);
  ignore (Shard_server.flush srv);
  Alcotest.(check int) "admits again once drained" shed (Shard_server.shed srv);
  Shard_server.close srv

(* An unsupervised [Domains] server feeds the same stream as an inline one
   at any mailbox size: each shard's lane feeds its arrivals in order, and
   the merge releases them in global order.  The feeds are bound before
   [flush] runs: [feeds @ flush] would evaluate [flush] first. *)
let prop_domains_match_inline =
  QCheck2.Test.make ~name:"Domains = Inline at every mailbox size" ~count:40
    ~print:(fun (iseed, shards, algo) ->
      Printf.sprintf "seed=%d K=%d %s" iseed shards
        algo.Ltc_algo.Algorithm.name)
    QCheck2.Gen.(
      triple (int_range 0 10_000) (int_range 2 4)
        (oneofl Ltc_algo.Algorithm.[ laf; aam; random; nearest_first ]))
    (fun (iseed, shards, algo) ->
      let instance = Fixtures.clustered_instance ~seed:iseed () in
      let baseline, base_fp, _ = inline_run ~shards algo instance in
      List.for_all
        (fun mailbox ->
          let srv =
            Shard_server.create ~mode:Shard_server.Domains ~mailbox ~shards
              ~algorithm:algo ~seed:99 instance
          in
          let fed =
            List.concat_map (Shard_server.feed srv) (arrivals instance)
          in
          let got = fed @ Shard_server.flush srv in
          let fp = sharded_fp srv in
          Shard_server.close srv;
          got = baseline && fp = base_fp)
        [ 1; 2; 3; 64 ])

exception Shard_down

(* With 30 tasks a cluster, shard 0 is far from complete when shard 1
   fails below. *)
let failing_instance =
  Fixtures.clustered_instance ~tasks_per:30 ~n_arrivals:400 ~seed:3 ()

(* An unsupervised [Domains] server at K = 2 over [failing_instance] whose
   shard 1 raises [Shard_down] at its fifth decision, fed the whole stream
   and flushed.  Returns the server (open), how many of those calls
   raised, and the inline server at K = 2. *)
let failing_shard_run ?journal ?group_commit () =
  let instance = failing_instance in
  let _, _, base = inline_run ~shards:2 Ltc_algo.Algorithm.laf instance in
  let algo =
    laf_on_shard ~owner:(Shard_server.shard_of_point base) ~shard:1 (fun n ->
        if n = 5 then raise Shard_down)
  in
  let srv =
    Shard_server.create ~mode:Shard_server.Domains ?journal ?group_commit
      ~shards:2 ~algorithm:algo ~seed:99 instance
  in
  let raised = ref 0 in
  let attempt f = try ignore (f ()) with Shard_down -> incr raised in
  List.iter
    (fun w -> attempt (fun () -> Shard_server.feed srv w))
    (arrivals instance);
  attempt (fun () -> Shard_server.flush srv);
  (srv, !raised, base)

(* The lane contracts: bad sizes are refused (restore's before any file
   is read), any mailbox size is served, and a closed server refuses
   arrivals. *)
let test_lane_contracts () =
  let instance = Fixtures.clustered_instance ~seed:3 () in
  let laf = Ltc_algo.Algorithm.laf in
  Alcotest.check_raises "no shards"
    (Invalid_argument "Shard_server.create: shards must be >= 1") (fun () ->
      ignore (Shard_server.create ~shards:0 ~algorithm:laf ~seed:1 instance));
  Alcotest.check_raises "no mailbox"
    (Invalid_argument "Shard_server.create: mailbox must be >= 1") (fun () ->
      ignore
        (Shard_server.create ~mailbox:0 ~shards:2 ~algorithm:laf ~seed:1
           instance));
  let missing = Filename.temp_file "ltc_shard_test" ".manifest" in
  Sys.remove missing;
  Alcotest.check_raises "restore with no mailbox, before reading"
    (Invalid_argument "Shard_server.restore: mailbox must be >= 1") (fun () ->
      ignore (Shard_server.restore ~mailbox:0 ~path:missing ()));
  (* The mailbox is a bound, not an allocation made up front. *)
  let srv =
    Shard_server.create ~mailbox:max_int ~shards:2 ~algorithm:laf ~seed:1
      instance
  in
  let fed = List.concat_map (Shard_server.feed srv) (arrivals instance) in
  Alcotest.(check int) "a huge mailbox serves the stream"
    (List.length (arrivals instance))
    (List.length (fed @ Shard_server.flush srv));
  Shard_server.close srv;
  Alcotest.check_raises "feed after close"
    (Invalid_argument "Shard_server.feed: server is closed") (fun () ->
      ignore (Shard_server.feed srv instance.Ltc_core.Instance.workers.(0)))

(* An unsupervised shard's failure mid-stream reaches the caller while
   its sibling keeps deciding, and is raised by [close] exactly once. *)
let test_lane_failure () =
  let srv, raised, base = failing_shard_run () in
  Alcotest.(check bool) "the failure reaches the caller" true (raised >= 1);
  (* Shard 0's arrivals routed before shard 1's fifth, the one that
     raised. *)
  let owner (w : Ltc_core.Worker.t) =
    Shard_server.shard_of_point base w.Ltc_core.Worker.loc
  in
  let rec before ones zeros = function
    | [] -> zeros
    | w :: rest when owner w = 0 -> before ones (zeros + 1) rest
    | _ :: rest -> if ones = 4 then zeros else before (ones + 1) zeros rest
  in
  let expected = (Shard_server.shard_consumed base).(0) in
  Alcotest.(check bool) "shard 0 has arrivals after the failure" true
    (expected > before 0 0 (arrivals failing_instance));
  Alcotest.(check int) "shard 0 keeps deciding" expected
    (Shard_server.shard_consumed srv).(0);
  Alcotest.check_raises "close raises the failure" Shard_down (fun () ->
      Shard_server.close srv);
  Shard_server.close srv

(* [close] after an unsupervised shard failed still closes every other
   shard's session, so their group-commit buffers reach the journal. *)
let test_close_flushes_healthy_shards () =
  with_tmp_shard_base @@ fun base ->
  let srv, _, _ = failing_shard_run ~journal:base ~group_commit:64 () in
  (match Shard_server.close srv with
  | () -> Alcotest.fail "close must raise the shard's failure"
  | exception Shard_down -> ());
  let consumed = (Shard_server.shard_consumed srv).(0) in
  Alcotest.(check bool) "a group-commit buffer was pending" true
    (consumed mod 64 <> 0);
  let journal = Shard_server.shard_journal_path ~base ~shard:0 in
  Alcotest.(check int) "shard 0's journal holds every arrival it consumed"
    consumed (Session.Journal.inspect ~path:journal).Session.Journal.consumed;
  Alcotest.check_raises "the server is closed"
    (Invalid_argument "Shard_server.feed: server is closed") (fun () ->
      ignore
        (Shard_server.feed srv failing_instance.Ltc_core.Instance.workers.(0)))

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "service.parity",
      [
        Alcotest.test_case "feed == Engine.run" `Quick test_feed_matches_engine;
        Alcotest.test_case "feed == Engine.run under no-show" `Quick
          test_feed_matches_engine_noshow;
      ] );
    ( "service.restore",
      [
        Alcotest.test_case "kill/restore at every arrival" `Slow
          test_kill_restore_everywhere;
        Alcotest.test_case "kill/restore at every arrival (no-show)" `Slow
          test_kill_restore_everywhere_noshow;
        Alcotest.test_case "binary group-commit kill/restore at every arrival"
          `Slow test_kill_restore_group_commit;
        Alcotest.test_case "cross-codec parity and conversion" `Quick
          test_cross_codec_parity;
        qcheck prop_kill_restore;
        Alcotest.test_case "torn tail recovers" `Quick
          test_truncated_journal_recovers;
        Alcotest.test_case "interior corruption diagnosed" `Quick
          test_interior_corruption_diagnosed;
        Alcotest.test_case "superseded binary records still checked" `Quick
          test_superseded_records_checked;
        Alcotest.test_case "NaN score in a superseded snapshot refused"
          `Quick test_superseded_nan_refused;
        Alcotest.test_case "partial snapshot rebuild checks refuse" `Quick
          test_partial_rebuild_checked;
        qcheck prop_restore_oracle;
        qcheck prop_text_restore_oracle;
        Alcotest.test_case "text event with a NaN coordinate refused" `Quick
          test_text_event_nan_refused;
        Alcotest.test_case "header bytes round-trip (both codecs)" `Quick
          test_header_bytes_round_trip;
        Alcotest.test_case "redirect restore leaves the source untouched"
          `Quick test_redirect_restore_leaves_source;
        Alcotest.test_case "journal header refuses bad values" `Quick
          test_journal_header_refused;
        qcheck prop_header_round_trip;
        Alcotest.test_case "a crash during the text upgrade keeps the text"
          `Quick test_text_upgrade_crash_safe;
        Alcotest.test_case "compaction bounds the journal" `Quick
          test_compaction_bounds_journal;
        Alcotest.test_case "journal bytes pinned" `Quick
          test_journal_bytes_pinned;
        Alcotest.test_case "sharded journal bytes pinned" `Quick
          test_shard_journal_bytes_pinned;
      ] );
    ( "service.deadline",
      [
        Alcotest.test_case "unexceeded deadline is invisible" `Quick
          test_deadline_unexceeded_parity;
        Alcotest.test_case "degradation is deterministic and restorable"
          `Quick test_deadline_degradation_deterministic;
        Alcotest.test_case "degraded counter matches journal D records"
          `Quick test_degraded_counter_matches_journal;
      ] );
    ( "service.loadgen",
      [
        Alcotest.test_case "flight recorder ring" `Quick
          test_flight_recorder_ring;
        Alcotest.test_case "flight recorder grows on demand" `Quick
          test_flight_recorder_grows;
        Alcotest.test_case "virtual loadgen is deterministic" `Quick
          test_loadgen_deterministic;
        Alcotest.test_case "virtual timing refuses a supervised server"
          `Quick test_loadgen_virtual_refuses_supervised;
      ] );
    ( "service.chaos",
      [ qcheck prop_chaos_identical ] );
    ( "service.shard",
      [
        Alcotest.test_case "sharded == merged session at every K" `Quick
          test_shard_parity_inline;
        Alcotest.test_case "domain-per-shard parity" `Quick
          test_shard_parity_domains;
        Alcotest.test_case "partition pins" `Quick test_partition_pins;
        Alcotest.test_case "sharded kill/restore at every append" `Slow
          test_sharded_kill_restore_everywhere;
        qcheck prop_sharded_kill_restore;
        Alcotest.test_case "manifest roundtrip" `Quick
          test_shard_manifest_roundtrip;
        Alcotest.test_case "manifest refuses non-finite floats" `Quick
          test_shard_manifest_non_finite;
        qcheck prop_one_shard_is_session;
        qcheck prop_domains_match_inline;
        Alcotest.test_case "close flushes healthy shards" `Quick
          test_close_flushes_healthy_shards;
      ] );
    ( "service.supervision",
      [
        Alcotest.test_case "restart budget state machine" `Quick
          test_supervisor_budget;
        Alcotest.test_case "quarantine isolates the killed shard" `Quick
          test_shard_quarantine_isolation;
        qcheck prop_shard_crash_isolation;
        qcheck prop_inline_recovery;
        Alcotest.test_case "online recovery: every shard killed twice" `Quick
          test_sharded_chaos_acceptance;
        qcheck prop_sharded_chaos_identical;
        Alcotest.test_case "overload shedding" `Quick test_shard_shed;
        Alcotest.test_case "release waits for a stalled shard" `Quick
          test_shard_release_order;
        Alcotest.test_case "supervise validation" `Quick
          test_supervise_validation;
      ] );
    ( "service.contracts",
      [
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "feed contracts" `Quick test_feed_contracts;
      ] );
  ]
