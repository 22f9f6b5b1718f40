module Instance = Ltc_core.Instance
module Task = Ltc_core.Task
module Worker = Ltc_core.Worker
module Serialize = Ltc_core.Serialize
module Arrangement = Ltc_core.Arrangement

type mode = Inline | Domains

(* ------------------------------------------------------------- partition *)

(* The task plane is cut into grid cells with Grid_index's clamped-floor
   cell formula (cell side = candidate radius), and each cell picks its
   shard by rendezvous hashing: the shard whose (cell, shard) hash under
   [Rng.mix], the splitmix64 finalizer, is largest wins.  Deterministic,
   stateless, and stable under restore — the partition is a pure function
   of the instance's tasks and the shard count. *)
type partition = {
  p_shards : int;
  p_min_x : float;
  p_min_y : float;
  p_cell : float;
  p_cols : int;
  p_rows : int;
}

(* One degenerate cell: every arrival routes to shard 0. *)
let degenerate ~shards =
  {
    p_shards = shards;
    p_min_x = 0.0;
    p_min_y = 0.0;
    p_cell = 1.0;
    p_cols = 1;
    p_rows = 1;
  }

let make_partition ~shards (instance : Instance.t) =
  let tasks = instance.Instance.tasks in
  if shards = 1 || Array.length tasks = 0 then degenerate ~shards
  else begin
    let world =
      Ltc_geo.Bbox.of_points
        (Array.to_list (Array.map (fun (t : Task.t) -> t.Task.loc) tasks))
    in
    let cell =
      match instance.Instance.candidate_radius with
      | Some r when r > 0.0 -> r
      | Some _ | None ->
        (* No candidate radius to align cells with: fall back to an 8x8
           grid over the task extent (any positive cell works — without a
           radius there is no shard-local parity guarantee anyway). *)
        Float.max 1e-9
          (Float.max (Ltc_geo.Bbox.width world) (Ltc_geo.Bbox.height world)
          /. 8.0)
    in
    let dim extent =
      max 1 (int_of_float (Float.ceil (extent /. cell)))
    in
    {
      p_shards = shards;
      p_min_x = world.Ltc_geo.Bbox.min_x;
      p_min_y = world.Ltc_geo.Bbox.min_y;
      p_cell = cell;
      p_cols = dim (Ltc_geo.Bbox.width world);
      p_rows = dim (Ltc_geo.Bbox.height world);
    }
  end

let cell_of part (p : Ltc_geo.Point.t) =
  let clampi v lo hi = max lo (min hi v) in
  let cx =
    clampi
      (int_of_float ((p.Ltc_geo.Point.x -. part.p_min_x) /. part.p_cell))
      0 (part.p_cols - 1)
  in
  let cy =
    clampi
      (int_of_float ((p.Ltc_geo.Point.y -. part.p_min_y) /. part.p_cell))
      0 (part.p_rows - 1)
  in
  (cx, cy)

let shard_of_cell part (cx, cy) =
  let mix = Ltc_util.Rng.mix in
  let base =
    mix
      (Int64.add
         (Int64.mul (Int64.of_int cx) 0x9e3779b97f4a7c15L)
         (Int64.of_int cy))
  in
  let best = ref 0 in
  let best_h = ref Int64.min_int in
  for k = 0 to part.p_shards - 1 do
    let h = mix (Int64.logxor base (Int64.of_int ((k + 1) * 0x632be5ab))) in
    if Int64.compare h !best_h > 0 then begin
      best_h := h;
      best := k
    end
  done;
  !best

let shard_of part p =
  if part.p_shards = 1 then 0 else shard_of_cell part (cell_of part p)

(* --------------------------------------------------------- shard state *)

type shard = {
  mutable sh_session : Session.t;  (* replaced online by the supervisor *)
  sh_journal : string option;  (* the session's live journal path *)
  sh_tasks : int array;  (* local task id -> global task id *)
  (* Shard-local worker-index bookkeeping.  [sh_globals.(l - 1)] is the
     global arrival index behind the shard's local arrival [l]; grown on
     demand (the router is the only writer). *)
  mutable sh_globals : int array;
  mutable sh_local_fed : int;  (* local arrivals routed (live + skipped) *)
  mutable sh_skip : int;  (* restored arrivals still to skip on re-feed *)
  sh_recruited : (int, unit) Hashtbl.t;
      (* local arrival indices that answered in a previous incarnation
         (rebuilt from the restored arrangement; empty on fresh create) *)
  mutable sh_complete : bool;  (* merge-layer view of shard completion *)
  (* --- supervision state (only maintained on a supervised server) --- *)
  mutable sh_arrivals : Worker.t option array;
      (* original arrival behind each routed local index, retained so a
         restored shard can be re-fed what its mailbox lost *)
  sh_captured : Session.decision option ref;
      (* last decision the session made, written pre-append via the
         [on_decision] hook: covers the one arrival whose append became
         durable but whose merge insert a crash interrupted *)
  mutable sh_decided : int;
      (* highest local index with a merge-layer entry (under [t_cmutex]) *)
  mutable sh_quarantined : bool;
}

type entry =
  | P_dec of int * Session.decision  (* shard, shard-local decision *)
  | P_skip of int * int  (* shard, local arrival index *)
  | P_ack  (* arrival fed after global completion: acknowledge only *)
  | P_dead of int
      (* shard; arrival shed or owned by a quarantined shard — released
         as an explicit unassigned degraded ack so the merge layer never
         hangs on a dead shard *)

type msg = { mg : int; mq : bool; mw : Worker.t }
(* [mq] — quiet: a supervised re-feed of an arrival whose decision is
   already merged; the session must re-consume it (to advance its state
   deterministically) but no merge entry is inserted. *)

(* What every shard runs, and how its journal is written: a manifest's
   content (a plain journal's header stands in for one). *)
type manifest = {
  shards : int;
  mailbox : int;
  fsync : bool;
  group_commit : int;
  header : Session.header;
}

type t = {
  t_mode : mode;
  t_part : partition;
  t_shards : shard array;
  t_direct : Session.t option;
      (* an unsupervised single shard's session: [feed] is its own, with
         no routing, re-indexing or merge layer in between *)
  t_config : manifest;  (* as restore re-attached it *)
  t_resumed_at : int;
  (* Merge layer.  [t_cmutex] guards [t_pending] (shard domains insert,
     the caller releases); every other mutable field is owned by the
     calling thread. *)
  t_cmutex : Mutex.t;
  t_pending : (int, entry) Hashtbl.t;
  mutable t_next_emit : int;  (* next global index to release *)
  mutable t_fed : int;  (* global arrivals accepted by [feed] *)
  mutable t_consumed : int;
  mutable t_replayed : int;
  mutable t_latency : int;
  mutable t_incomplete : int;  (* shards not yet complete *)
  mutable t_pool : msg Ltc_util.Pool.Workers.t option;
  mutable t_closed : bool;
  (* --- supervision --- *)
  t_super : Supervisor.t option;
  t_fresh : int -> Session.t;
      (* fresh supervised session for shard [k] — the recovery fallback
         when a shard journal vanished or never became durable *)
}

let shards t = t.t_part.p_shards
let mode t = t.t_mode
let algorithm_name t =
  t.t_config.header.Session.algorithm.Ltc_algo.Algorithm.name
let consumed t =
  match t.t_direct with Some s -> Session.consumed s | None -> t.t_consumed

let resumed_at t = t.t_resumed_at
let replayed t = t.t_replayed

let completed t =
  match t.t_direct with
  | Some s -> Session.completed s
  | None -> t.t_incomplete = 0

let latency t =
  match t.t_direct with Some s -> Session.latency s | None -> t.t_latency
let shard_of_point t loc = shard_of t.t_part loc

let stalls t =
  match t.t_pool with
  | None -> 0
  | Some pool -> Ltc_util.Pool.Workers.stalls pool

let supervised t = t.t_super <> None
let restarts t = match t.t_super with None -> 0 | Some s -> Supervisor.restarts s

let shard_restarts t =
  match t.t_super with
  | None -> Array.make (Array.length t.t_shards) 0
  | Some s -> Supervisor.shard_restarts s

let quarantined t =
  match t.t_super with None -> 0 | Some s -> Supervisor.quarantined s

let shed t = match t.t_super with None -> 0 | Some s -> Supervisor.shed s

let degraded_total t =
  Array.fold_left
    (fun acc sh -> acc + Session.degraded_total sh.sh_session)
    0 t.t_shards

let shard_consumed t =
  Array.map (fun sh -> Session.consumed sh.sh_session) t.t_shards

let rng_states t =
  Array.map (fun sh -> Session.rng_states sh.sh_session) t.t_shards

let shard_task_counts t =
  Array.map (fun sh -> Array.length sh.sh_tasks) t.t_shards

let journal_bytes t =
  Array.fold_left
    (fun acc sh -> acc + Session.journal_bytes sh.sh_session)
    0 t.t_shards

let arrangement t =
  match t.t_direct with
  | Some s -> Session.arrangement s
  | None ->
    (* Per-shard arrangements carry local worker indices and local task
       ids; mapping both and stably sorting by global arrival index
       reconstructs exactly the insertion order an un-sharded session would
       have used (each arrival lands on one shard, and within an arrival
       the shard preserved policy order). *)
    let entries =
      Array.to_list t.t_shards
      |> List.concat_map (fun sh ->
             List.map
               (fun (a : Arrangement.assignment) ->
                 (sh.sh_globals.(a.Arrangement.worker - 1),
                  sh.sh_tasks.(a.Arrangement.task)))
               (Arrangement.to_list (Session.arrangement sh.sh_session)))
    in
    let entries =
      List.stable_sort (fun (g1, _) (g2, _) -> compare g1 g2) entries
    in
    List.fold_left
      (fun acc (worker, task) -> Arrangement.add acc ~worker ~task)
      Arrangement.empty entries

(* ------------------------------------------------------------- manifest *)

let manifest_magic = "ltc-shard-manifest v1"

let is_manifest path =
  Sys.file_exists path
  && (not (Sys.is_directory path))
  &&
  match In_channel.with_open_text path In_channel.input_line with
  | Some line -> String.trim line = manifest_magic
  | None -> false

(* A manifest is the journal header's lines (Session.emit_header) with
   the server's own around them, in the order manifests have always had.
   Its codec line is always binary and read by nothing — every shard
   journal names its own codec — but older readers expect it. *)
let manifest_keys =
  [
    "shards"; "mailbox"; "algorithm"; "seed"; "accept_rate";
    "checkpoint_every"; "fsync"; "codec"; "group_commit"; "deadline";
  ]

let write_manifest ~path m =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      let sink = Out_channel.output_string oc in
      sink (manifest_magic ^ "\n");
      Session.emit_header sink ~keys:manifest_keys
        ~extra:
          [
            ("shards", string_of_int m.shards);
            ("mailbox", string_of_int m.mailbox);
            ("fsync", if m.fsync then "1" else "0");
            ("codec", "binary");
            ("group_commit", string_of_int m.group_commit);
          ]
        m.header);
  Sys.rename tmp path

let read_manifest ~path =
  In_channel.with_open_text path @@ fun ic ->
  let src = Serialize.source_of_channel ic in
  (match Serialize.next_line_opt src with
  | Some line when String.trim line = manifest_magic -> ()
  | Some _ | None ->
    Serialize.parse_error ~line:(Serialize.line_number src)
      "%s is not a shard manifest (missing %S)" path manifest_magic);
  let header, int = Session.parse_header src ~keys:manifest_keys in
  (* The bounds [create] enforces, refused as a parse error naming the
     line rather than deep inside a restore. *)
  let shards = int ~min:1 "shards" in
  let mailbox = int ~min:1 "mailbox" in
  let fsync = int "fsync" <> 0 in
  let group_commit = int ~min:1 "group_commit" in
  { shards; mailbox; fsync; group_commit; header }

(* -------------------------------------------------------------- building *)

let shard_journal_path ~base ~shard = Printf.sprintf "%s.shard%d" base shard

(* Every shard's tasks in one pass over the instance, each task hashed
   once: entry [k] is shard [k]'s global task ids in ascending order (its
   local id -> global id map) and those tasks renumbered to local ids
   0.. — order-preserving, so ascending-id tie-breaks inside the shard
   session match the un-sharded session's. *)
let split_tasks part (instance : Instance.t) =
  let tasks = instance.Instance.tasks in
  let globals = Array.make part.p_shards [] in
  for i = Array.length tasks - 1 downto 0 do
    let task = tasks.(i) in
    let k = shard_of part task.Task.loc in
    globals.(k) <- task.Task.id :: globals.(k)
  done;
  Array.map
    (fun ids ->
      let globals = Array.of_list ids in
      ( globals,
        Array.mapi
          (fun local g ->
            let task = tasks.(g) in
            Task.make ?epsilon:task.Task.epsilon ~id:local ~loc:task.Task.loc
              ())
          globals ))
    globals

let sub_instance (instance : Instance.t) tasks =
  Instance.create ~accuracy:instance.Instance.accuracy
    ~scoring:instance.Instance.scoring
    ~candidate_radius:instance.Instance.candidate_radius ~tasks ~workers:[||]
    ~epsilon:instance.Instance.epsilon ()

let shard_seeds ~seed n =
  let rng = Ltc_util.Rng.create ~seed in
  Array.init n (fun _ -> Ltc_util.Rng.split_seed rng)

let make_shard ~session ~journal ~tasks_globals ~restored ~supervised
    ~captured =
  let recruited = Hashtbl.create 16 in
  let skip = if restored then Session.consumed session else 0 in
  if restored then
    List.iter
      (fun (a : Arrangement.assignment) ->
        Hashtbl.replace recruited a.Arrangement.worker ())
      (Arrangement.to_list (Session.arrangement session));
  {
    sh_session = session;
    sh_journal = journal;
    sh_tasks = tasks_globals;
    sh_globals = Array.make (max 16 skip) 0;
    sh_local_fed = 0;
    sh_skip = skip;
    sh_recruited = recruited;
    sh_complete = Session.completed session;
    sh_arrivals = (if supervised then Array.make (max 16 skip) None else [||]);
    sh_captured = captured;
    sh_decided = 0;
    sh_quarantined = false;
  }

(* Insert a merge entry for a shard-local arrival and advance the shard's
   decided watermark, atomically w.r.t. the merge layer. *)
let add_entry t sh ~local g entry =
  Mutex.lock t.t_cmutex;
  Hashtbl.replace t.t_pending g entry;
  if local > sh.sh_decided then sh.sh_decided <- local;
  Mutex.unlock t.t_cmutex

let scoped k f = Ltc_util.Fault.with_scope (Supervisor.scope ~shard:k) f

(* The message for [sh]'s routed local arrival [local]: the original
   arrival [w] renumbered to the shard's own index. *)
let message sh ~local ~quiet (w : Worker.t) =
  {
    mg = sh.sh_globals.(local - 1);
    mq = quiet;
    mw =
      Worker.make ~index:local ~loc:w.Worker.loc ~accuracy:w.Worker.accuracy
        ~capacity:w.Worker.capacity;
  }

(* Feed one message to shard [k]'s session and merge its decision unless
   it is quiet.  Whatever thread runs it — the caller inline or in
   recovery, or the shard's lane — a supervised server probes under the
   shard's fault scope: that thread is then the single writer of the
   ["shard<k>/..."] fault counters, so scripted per-shard hits are
   deterministic even with sibling lanes running. *)
let deliver t k msg =
  let sh = t.t_shards.(k) in
  let d =
    if supervised t then scoped k (fun () -> Session.feed sh.sh_session msg.mw)
    else Session.feed sh.sh_session msg.mw
  in
  if not msg.mq then
    add_entry t sh ~local:msg.mw.Worker.index msg.mg (P_dec (k, d))

let attach_pool t ~mailbox =
  match t.t_mode with
  | Inline -> ()
  | Domains ->
    t.t_pool <-
      Some
        (Ltc_util.Pool.Workers.create ~lanes:(Array.length t.t_shards)
           ~capacity:mailbox ~handler:(fun ~lane msg -> deliver t lane msg))

(* Shedding refuses arrivals at a full mailbox; an inline server (one
   shard always is) has none, so it would never shed. *)
let check_shed fn ~shards ~mode = function
  | Some c
    when c.Supervisor.overload = Supervisor.Shed
         && (shards = 1 || mode = Inline) ->
    invalid_arg
      (fn ^ ": overload shedding needs shard mailboxes (Domains, shards >= 2)")
  | _ -> ()

(* The [on_decision] capture hooks supervision relies on. *)
let capture_hooks super shards =
  let captured = Array.init shards (fun _ -> ref None) in
  let hook k =
    match super with
    | None -> None
    | Some _ -> Some (fun d -> captured.(k) := Some d)
  in
  (captured, hook)

(* A journal that never became durable (a create-time crash or an
   untouched shard) is missing or empty: its shard starts fresh, with the
   same seed. *)
let durable path = Sys.file_exists path && not (Session.is_empty_journal path)

(* Open every shard of [m]'s partition.  With [~resume:source], shard [k]
   restores from [source k] when that file is durable, journaling on to
   [journal_of k]; otherwise it starts fresh from [seeds.(k)] — also the
   recovery fallback if its journal vanishes. *)
let start ~mode ~supervise ?resume ~seeds ~journal_of m =
  let shards = m.shards and h = m.header in
  let instance = h.Session.instance in
  let super = Option.map (fun c -> Supervisor.create ~shards c) supervise in
  let captured, hook = capture_hooks super shards in
  let part = make_partition ~shards instance in
  let split = split_tasks part instance in
  let fresh k =
    let shard_instance =
      if shards = 1 then instance else sub_instance instance (snd split.(k))
    in
    Session.create ?accept_rate:h.Session.accept_rate
      ?deadline:h.Session.deadline ?on_decision:(hook k)
      ?journal:(journal_of k) ~checkpoint_every:h.Session.checkpoint_every
      ~fsync:m.fsync ~group_commit:m.group_commit
      ~algorithm:h.Session.algorithm ~seed:seeds.(k) shard_instance
  in
  let shards_arr =
    Array.init shards (fun k ->
        let source =
          Option.bind resume (fun source ->
              if durable (source k) then Some (source k) else None)
        in
        let session =
          match source with
          | Some path ->
            Session.restore ?on_decision:(hook k) ?journal:(journal_of k)
              ~fsync:m.fsync ~group_commit:m.group_commit ~path ()
          | None -> fresh k
        in
        make_shard ~session ~journal:(journal_of k)
          ~tasks_globals:(fst split.(k))
          ~restored:(source <> None) ~supervised:(super <> None)
          ~captured:captured.(k))
  in
  let t =
    {
      (* One shard has nothing to run beside the caller: always inline. *)
      t_mode = (if shards = 1 then Inline else mode);
      t_part = part;
      t_shards = shards_arr;
      t_direct =
        (if shards = 1 && super = None then Some shards_arr.(0).sh_session
         else None);
      t_config = m;
      t_resumed_at =
        Array.fold_left (fun acc sh -> acc + sh.sh_skip) 0 shards_arr;
      t_cmutex = Mutex.create ();
      t_pending = Hashtbl.create 64;
      t_next_emit = 1;
      t_fed = 0;
      t_consumed = 0;
      t_replayed = 0;
      t_latency = 0;
      t_incomplete =
        Array.fold_left
          (fun acc sh -> acc + if sh.sh_complete then 0 else 1)
          0 shards_arr;
      t_pool = None;
      t_closed = false;
      t_super = super;
      t_fresh = fresh;
    }
  in
  attach_pool t ~mailbox:m.mailbox;
  t

let create ?accept_rate ?deadline ?journal ?(checkpoint_every = 256)
    ?(fsync = false) ?(group_commit = 1) ?(mailbox = 64) ?(mode = Domains)
    ?supervise ~shards ~algorithm ~seed instance =
  if shards < 1 then
    invalid_arg "Shard_server.create: shards must be >= 1";
  if mailbox < 1 then
    invalid_arg "Shard_server.create: mailbox must be >= 1";
  (match supervise with
  | Some c when c.Supervisor.max_restarts > 0 && journal = None ->
    invalid_arg
      "Shard_server.create: supervision with restarts requires ~journal \
       (restore needs a shard journal; use max_restarts = 0 to \
       quarantine-on-crash without one)"
  | _ -> ());
  check_shed "Shard_server.create" ~shards ~mode supervise;
  (* Every shard session's own checks, before the manifest exists. *)
  Session.check_options ?accept_rate ?deadline ~checkpoint_every
    ~group_commit algorithm;
  let m =
    {
      shards;
      mailbox;
      fsync;
      group_commit;
      header =
        {
          Session.algorithm;
          seed;
          accept_rate;
          checkpoint_every;
          deadline;
          instance = Session.strip_workers instance;
        };
    }
  in
  (* A single shard is a plain session: the root seed, the whole instance,
     and its journal at [journal] itself, with no manifest. *)
  let solo = shards = 1 in
  (match journal with
  | Some path when not solo -> write_manifest ~path m
  | _ -> ());
  start ~mode ~supervise
    ~seeds:(if solo then [| seed |] else shard_seeds ~seed shards)
    ~journal_of:(fun k ->
      Option.map
        (fun base -> if solo then base else shard_journal_path ~base ~shard:k)
        journal)
    m

(* A shard journal must have been written by the configuration its
   manifest names, with the seed the manifest splits off for it: checked
   on every durable one before any is restored. *)
let check_shard_headers ~source ~seeds m =
  for k = 0 to m.shards - 1 do
    let path = source k in
    if durable path then
      List.iter2
        (fun (key, want) (_, got) ->
          if want <> got then
            raise
              (Session.Corrupt_journal
                 {
                   path;
                   message =
                     Printf.sprintf
                       "shard journal has %s %s where the manifest gives %s"
                       key got want;
                 }))
        (Session.header_lines { m.header with Session.seed = seeds.(k) })
        (Session.header_lines (Session.Journal.header ~path))
  done

let restore ?journal ?mailbox ?(mode = Domains) ?fsync ?group_commit
    ?supervise ~path () =
  (* Refused before any file is read or rewritten, as [create] refuses
     them before it writes one. *)
  (match group_commit with
  | Some g when g < 1 ->
    invalid_arg "Shard_server.restore: group_commit must be >= 1"
  | _ -> ());
  (match mailbox with
  | Some b when b < 1 -> invalid_arg "Shard_server.restore: mailbox must be >= 1"
  | _ -> ());
  let m, seeds, source, journal_of =
    if is_manifest path then begin
      if journal <> None then
        invalid_arg
          "Shard_server.restore: ~journal redirects a plain session journal; \
           a shard manifest keeps its shard journals in place";
      let m = read_manifest ~path in
      let seeds = shard_seeds ~seed:m.header.Session.seed m.shards in
      let source k = shard_journal_path ~base:path ~shard:k in
      check_shard_headers ~source ~seeds m;
      (m, seeds, source, fun k -> Some (source k))
    end
    else begin
      (* A plain session journal is a 1-shard server, with
         {!Session.restore}'s defaults. *)
      let header = Session.Journal.header ~path in
      ( { shards = 1; mailbox = 1; fsync = false; group_commit = 1; header },
        [| header.Session.seed |],
        (fun _ -> path),
        fun _ -> Some (Option.value journal ~default:path) )
    end
  in
  check_shed "Shard_server.restore" ~shards:m.shards ~mode supervise;
  start ~mode ~supervise ~resume:source ~seeds ~journal_of
    {
      m with
      fsync = Option.value fsync ~default:m.fsync;
      group_commit = Option.value group_commit ~default:m.group_commit;
      mailbox = Option.value mailbox ~default:m.mailbox;
    }

(* ------------------------------------------------------- feeding/merging *)

let map_tasks sh ids = List.map (fun local -> sh.sh_tasks.(local)) ids

(* Release the contiguous prefix of pending entries starting at
   [t_next_emit], folding each into the global merge state.  Called with
   [t_cmutex] held; only the feeding thread releases, so the global
   bookkeeping updates in strict arrival order. *)
let release t =
  let out = ref [] in
  let rec loop () =
    match Hashtbl.find_opt t.t_pending t.t_next_emit with
    | None -> ()
    | Some entry ->
      let g = t.t_next_emit in
      Hashtbl.remove t.t_pending g;
      t.t_next_emit <- g + 1;
      (match entry with
      | P_ack ->
        out :=
          {
            Session.worker = g;
            assigned = [];
            answered = [];
            completed = true;
            latency = t.t_latency;
            degraded = false;
          }
          :: !out
      | P_skip (k, local) ->
        (* Consumed (and journaled) by its shard in a previous
           incarnation: rebuild the merge bookkeeping, emit nothing. *)
        let sh = t.t_shards.(k) in
        t.t_consumed <- t.t_consumed + 1;
        t.t_replayed <- t.t_replayed + 1;
        if Hashtbl.mem sh.sh_recruited local then
          t.t_latency <- max t.t_latency g
      | P_dead _ ->
        (* Shed, or owned by a quarantined shard: an explicit unassigned
           degraded ack.  Nothing was consumed and the shard's tasks stay
           incomplete — the merge layer just refuses to hang on it. *)
        out :=
          {
            Session.worker = g;
            assigned = [];
            answered = [];
            completed = t.t_incomplete = 0;
            latency = t.t_latency;
            degraded = true;
          }
          :: !out
      | P_dec (k, d) ->
        let sh = t.t_shards.(k) in
        let was_complete = t.t_incomplete = 0 in
        if not was_complete then t.t_consumed <- t.t_consumed + 1;
        if d.Session.completed && not sh.sh_complete then begin
          sh.sh_complete <- true;
          t.t_incomplete <- t.t_incomplete - 1
        end;
        if d.Session.answered <> [] then t.t_latency <- max t.t_latency g;
        out :=
          {
            Session.worker = g;
            assigned = map_tasks sh d.Session.assigned;
            answered = map_tasks sh d.Session.answered;
            completed = t.t_incomplete = 0;
            latency = t.t_latency;
            degraded = d.Session.degraded;
          }
          :: !out);
      loop ()
  in
  loop ();
  List.rev !out

let locked_release t =
  Mutex.lock t.t_cmutex;
  let out = release t in
  Mutex.unlock t.t_cmutex;
  out

let add_pending t g entry =
  Mutex.lock t.t_cmutex;
  Hashtbl.replace t.t_pending g entry;
  Mutex.unlock t.t_cmutex

(* ---------------------------------------------------------- supervision *)

(* Assign the next shard-local index to [w] and record the routing (and,
   when supervised, the arrival itself, for crash-time re-feed). *)
let route t sh g (w : Worker.t) =
  let local = sh.sh_local_fed + 1 in
  sh.sh_local_fed <- local;
  if local > Array.length sh.sh_globals then begin
    let n = Array.length sh.sh_globals in
    let bigger = Array.make (2 * n) 0 in
    Array.blit sh.sh_globals 0 bigger 0 n;
    sh.sh_globals <- bigger;
    if supervised t then begin
      let bigger_a = Array.make (2 * n) None in
      Array.blit sh.sh_arrivals 0 bigger_a 0 n;
      sh.sh_arrivals <- bigger_a
    end
  end;
  sh.sh_globals.(local - 1) <- g;
  if supervised t then sh.sh_arrivals.(local - 1) <- Some w;
  local

(* Quarantine shard [k]: clear its lane's standing failure (so quiesce,
   shutdown and the siblings are unaffected) and give every routed-but-
   unmerged arrival an explicit unassigned-decision ack — the merge layer
   keeps releasing instead of waiting forever on a dead shard.  Arrivals
   routed to [k] from now on are acked the same way at the door. *)
let quarantine_now t k =
  let sh = t.t_shards.(k) in
  if not sh.sh_quarantined then begin
    sh.sh_quarantined <- true;
    (match t.t_pool with
    | Some pool -> Ltc_util.Pool.Workers.restart pool ~lane:k
    | None -> ());
    Mutex.lock t.t_cmutex;
    for local = sh.sh_decided + 1 to sh.sh_local_fed do
      Hashtbl.replace t.t_pending sh.sh_globals.(local - 1) (P_dead k)
    done;
    if sh.sh_local_fed > sh.sh_decided then sh.sh_decided <- sh.sh_local_fed;
    Mutex.unlock t.t_cmutex
  end

(* Restore shard [k]'s session from its journal and re-feed what the
   crash lost.  Runs on the calling domain under the shard's fault scope
   (recovery probes the same per-shard sites, so scripted restore-time
   faults stay deterministic); any exception here counts as another
   crash of the same shard. *)
let rec handle_crash t k =
  let super = Option.get t.t_super in
  match Supervisor.on_crash super ~shard:k with
  | `Quarantine -> quarantine_now t k
  | `Restart backoff_s -> (
    Ltc_util.Fault.sleep backoff_s;
    match revive t k with () -> () | exception _ -> handle_crash t k)

and revive t k =
  let sh = t.t_shards.(k) in
  let path =
    match sh.sh_journal with
    | Some path -> path
    | None -> invalid_arg "Shard_server: cannot revive without a journal"
  in
  let session =
    scoped k (fun () ->
        if not (durable path) then t.t_fresh k
        else
          Session.restore
            ~on_decision:(fun d -> sh.sh_captured := Some d)
            ~fsync:t.t_config.fsync ~group_commit:t.t_config.group_commit
            ~path ())
  in
  sh.sh_session <- session;
  let m = Session.consumed session in
  (* The one arrival whose append became durable but whose merge insert
     the crash interrupted: its pre-append capture stands in (the
     restored session cannot re-decide an index it already consumed). *)
  (match !(sh.sh_captured) with
  | Some d when d.Session.worker = sh.sh_decided + 1 && d.Session.worker <= m
    ->
    add_entry t sh ~local:d.Session.worker
      sh.sh_globals.(d.Session.worker - 1)
      (P_dec (k, d))
  | _ -> ());
  (* The lane parked on its failure; clearing it lets the same domain
     consume again.  What the crash took from its mailbox is among the
     retained arrivals the re-feed below sends again. *)
  (match t.t_pool with
  | Some pool -> Ltc_util.Pool.Workers.restart pool ~lane:k
  | None -> ());
  (* Re-feed, in order, everything routed past the durable prefix: quiet
     for arrivals whose decision is already merged (the session must
     re-consume them to reach the same state, but no entry is inserted),
     live for the rest. *)
  for local = m + 1 to sh.sh_local_fed do
    let w =
      match sh.sh_arrivals.(local - 1) with
      | Some w -> w
      | None ->
        invalid_arg "Shard_server: supervised re-feed lost an arrival"
    in
    let msg = message sh ~local ~quiet:(local <= sh.sh_decided) w in
    match t.t_pool with
    | Some pool -> Ltc_util.Pool.Workers.push pool ~lane:k msg
    | None -> deliver t k msg
  done

(* ----------------------------------------------------------------- feed *)

let feed_routed t (w : Worker.t) =
  if w.Worker.index <> t.t_fed + 1 then
    invalid_arg
      (Printf.sprintf "Shard_server.feed: expected arrival %d, got %d"
         (t.t_fed + 1) w.Worker.index);
  let g = t.t_fed + 1 in
  t.t_fed <- g;
  if completed t && Hashtbl.length t.t_pending = 0 then begin
    (* Globally complete and fully released: acknowledge without routing,
       consuming capacity or touching any shard — Session.feed parity. *)
    add_pending t g P_ack;
    locked_release t
  end
  else begin
    let k = shard_of_point t w.Worker.loc in
    let sh = t.t_shards.(k) in
    if sh.sh_skip > 0 then begin
      let local = route t sh g w in
      sh.sh_skip <- sh.sh_skip - 1;
      add_entry t sh ~local g (P_skip (k, local))
    end
    else if sh.sh_quarantined then
      (* Quarantined shard: ack at the door, never route. *)
      add_pending t g (P_dead k)
    else begin
      let local = route t sh g w in
      let msg = message sh ~local ~quiet:false w in
      let overload =
        match t.t_super with
        | None -> Supervisor.Block
        | Some s -> (Supervisor.config s).Supervisor.overload
      in
      match
        match (t.t_pool, overload) with
        | None, _ -> deliver t k msg
        | Some pool, Supervisor.Block ->
          Ltc_util.Pool.Workers.push pool ~lane:k msg
        | Some pool, Supervisor.Shed ->
          if not (Ltc_util.Pool.Workers.try_push pool ~lane:k msg) then begin
            (* Mailbox full: shed instead of blocking.  Un-route the
               arrival (its local index was never seen by the session)
               and ack it explicitly. *)
            sh.sh_local_fed <- local - 1;
            sh.sh_arrivals.(local - 1) <- None;
            Supervisor.note_shed (Option.get t.t_super);
            add_pending t g (P_dead k)
          end
      with
      | () -> ()
      | exception _ when supervised t ->
        (* The shard's session or lane failed on this arrival.  It is
           already routed, so recovery re-feeds it. *)
        handle_crash t k
    end;
    locked_release t
  end

let feed t (w : Worker.t) =
  if t.t_closed then invalid_arg "Shard_server.feed: server is closed";
  match t.t_direct with
  | Some s ->
    (* The session's own feed, skipping what it already consumed (the
       restored prefix included) wherever the re-fed stream starts. *)
    if w.Worker.index <= Session.consumed s then begin
      t.t_replayed <- t.t_replayed + 1;
      []
    end
    else [ Session.feed s w ]
  | None -> feed_routed t w

(* Wait for the lanes to go idle; a supervised server recovers (or
   quarantines) every lane that died with work in flight, an unsupervised
   one re-raises the first failure. *)
let rec drain t pool =
  Ltc_util.Pool.Workers.quiesce pool;
  let failed = ref None in
  for k = Array.length t.t_shards - 1 downto 0 do
    if Ltc_util.Pool.Workers.failure pool ~lane:k <> None then
      failed := Some k
  done;
  match !failed with
  | None -> ()
  | Some k when supervised t ->
    handle_crash t k;
    drain t pool
  | Some _ ->
    Option.iter
      (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
      (Ltc_util.Pool.Workers.first_failure pool)

let flush t =
  if t.t_closed then []
  else begin
    Option.iter (drain t) t.t_pool;
    locked_release t
  end

let close t =
  if not t.t_closed then begin
    (match t.t_pool with
    | None -> ()
    | Some pool ->
      (* Supervised: recover dead lanes so shutdown joins clean domains. *)
      if supervised t then drain t pool
      else Ltc_util.Pool.Workers.quiesce pool;
      Ltc_util.Pool.Workers.shutdown pool);
    t.t_closed <- true;
    Array.iter
      (fun sh ->
        (* A quarantined shard's session died mid-write; its journal tail
           is whatever was durable, and closing the dead handle could
           raise — abandon it like the chaos harness does. *)
        if not sh.sh_quarantined then Session.close sh.sh_session)
      t.t_shards
  end
