module Instance = Ltc_core.Instance
module Task = Ltc_core.Task
module Worker = Ltc_core.Worker
module Serialize = Ltc_core.Serialize
module Arrangement = Ltc_core.Arrangement

type mode = Inline | Domains

(* ------------------------------------------------------------- partition *)

(* The task plane is cut into grid cells exactly as Grid_index does it
   (same clamped-floor cell formula, cell side = candidate radius), and
   each cell picks its shard by rendezvous hashing: the shard whose mixed
   (cell, shard) hash is largest wins.  Deterministic, stateless, and
   stable under restore — the partition is a pure function of the
   instance's tasks and the shard count. *)
type partition = {
  p_shards : int;
  p_min_x : float;
  p_min_y : float;
  p_cell : float;
  p_cols : int;
  p_rows : int;
}

(* splitmix64 finalizer — the standard 64-bit avalanche mixer. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

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
  let base =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int cx) 0x9e3779b97f4a7c15L)
         (Int64.of_int cy))
  in
  let best = ref 0 in
  let best_h = ref Int64.min_int in
  for k = 0 to part.p_shards - 1 do
    let h = mix64 (Int64.logxor base (Int64.of_int ((k + 1) * 0x632be5ab))) in
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

type t = {
  t_mode : mode;
  t_part : partition;
  t_shards : shard array;
  t_direct : Session.t option;
      (* an unsupervised single shard's session: [feed] is its own, with
         no routing, re-indexing or merge layer in between *)
  t_algorithm : string;
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
  t_fsync : bool;
  t_group_commit : int;
  t_fresh : int -> Session.t;
      (* fresh supervised session for shard [k] — the recovery fallback
         when a shard journal vanished or never became durable *)
}

let shards t = t.t_part.p_shards
let mode t = t.t_mode
let algorithm_name t = t.t_algorithm
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

let shard_task_counts t =
  Array.map (fun sh -> Array.length sh.sh_tasks) t.t_shards

let per_shard_hdr t =
  Array.map (fun sh -> Session.feed_hdr sh.sh_session) t.t_shards

let merged_hdr t =
  let into = Ltc_util.Metrics.Hdr.create () in
  Array.iter
    (fun sh -> Ltc_util.Metrics.Hdr.merge ~into (Session.feed_hdr sh.sh_session))
    t.t_shards;
  into

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

type manifest = {
  mf_shards : int;
  mf_mailbox : int;
  mf_algorithm : string;
  mf_seed : int;
  mf_accept_rate : float option;
  mf_checkpoint_every : int;
  mf_fsync : bool;
  mf_group_commit : int;
  mf_deadline : (float * string) option;
  mf_instance : Instance.t;
}

let write_manifest ~path (m : manifest) =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      let out s = Out_channel.output_string oc s in
      out manifest_magic;
      out "\n";
      out (Printf.sprintf "shards %d\n" m.mf_shards);
      out (Printf.sprintf "mailbox %d\n" m.mf_mailbox);
      out (Printf.sprintf "algorithm %s\n" m.mf_algorithm);
      out (Printf.sprintf "seed %d\n" m.mf_seed);
      (match m.mf_accept_rate with
      | None -> out "accept_rate none\n"
      | Some q -> out (Printf.sprintf "accept_rate %.17g\n" q));
      out (Printf.sprintf "checkpoint_every %d\n" m.mf_checkpoint_every);
      out (Printf.sprintf "fsync %d\n" (if m.mf_fsync then 1 else 0));
      (* Always binary, and read by nothing: every shard journal names its
         own codec.  The line stays so older readers still parse the
         manifest. *)
      out "codec binary\n";
      out (Printf.sprintf "group_commit %d\n" m.mf_group_commit);
      (match m.mf_deadline with
      | None -> out "deadline none\n"
      | Some (budget_s, fallback) ->
        out (Printf.sprintf "deadline %.17g %s\n" budget_s fallback));
      Serialize.emit_instance out m.mf_instance);
  Sys.rename tmp path

let manifest_error src msg =
  raise
    (Serialize.Parse_error
       { line = Serialize.line_number src; message = msg })

let expect_field src key =
  let line = Serialize.next_line src in
  match Serialize.fields line with
  | k :: rest when k = key -> rest
  | _ -> manifest_error src (Printf.sprintf "expected %S line" key)

let one_field src key =
  match expect_field src key with
  | [ v ] -> v
  | _ -> manifest_error src (Printf.sprintf "malformed %S line" key)

let read_manifest ~path =
  In_channel.with_open_text path @@ fun ic ->
  let src = Serialize.source_of_channel ic in
  (match Serialize.next_line_opt src with
  | Some line when String.trim line = manifest_magic -> ()
  | Some _ | None ->
    manifest_error src
      (Printf.sprintf "%s is not a shard manifest (missing %S)" path
         manifest_magic));
  let int_of key v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> manifest_error src (Printf.sprintf "bad %s %S" key v)
  in
  (* The bounds [create] enforces, refused here as a parse error naming
     the line rather than deep inside a restore. *)
  let positive key =
    let v = one_field src key in
    let n = int_of key v in
    if n < 1 then
      manifest_error src (Printf.sprintf "bad %s %S (must be >= 1)" key v);
    n
  in
  let mf_shards = positive "shards" in
  let mf_mailbox = positive "mailbox" in
  let mf_algorithm = one_field src "algorithm" in
  let mf_seed = int_of "seed" (one_field src "seed") in
  let mf_accept_rate =
    match one_field src "accept_rate" with
    | "none" -> None
    | v -> (
      match float_of_string_opt v with
      | Some q when Float.is_finite q -> Some q
      | _ -> manifest_error src (Printf.sprintf "bad accept_rate %S" v))
  in
  let mf_checkpoint_every = positive "checkpoint_every" in
  let mf_fsync = int_of "fsync" (one_field src "fsync") <> 0 in
  (match one_field src "codec" with
  | "text" | "binary" -> ()
  | v ->
    manifest_error src
      (Printf.sprintf "unknown journal format %S (expected text|binary)" v));
  let mf_group_commit = positive "group_commit" in
  let mf_deadline =
    match expect_field src "deadline" with
    | [ "none" ] -> None
    | [ budget; fallback ] -> (
      match float_of_string_opt budget with
      | Some b when Float.is_finite b -> Some (b, fallback)
      | _ -> manifest_error src (Printf.sprintf "bad deadline %S" budget))
    | _ -> manifest_error src "malformed \"deadline\" line"
  in
  let mf_instance = Serialize.parse_instance src in
  {
    mf_shards;
    mf_mailbox;
    mf_algorithm;
    mf_seed;
    mf_accept_rate;
    mf_checkpoint_every;
    mf_fsync;
    mf_group_commit;
    mf_deadline;
    mf_instance;
  }

(* Offline manifest summary for [ltc journal inspect]: the configuration
   lines without the embedded instance. *)
type manifest_info = {
  mi_shards : int;
  mi_mailbox : int;
  mi_algorithm : string;
  mi_seed : int;
  mi_accept_rate : float option;
  mi_checkpoint_every : int;
  mi_fsync : bool;
  mi_group_commit : int;
  mi_deadline : (float * string) option;
  mi_tasks : int;
}

let manifest_info ~path =
  let m = read_manifest ~path in
  {
    mi_shards = m.mf_shards;
    mi_mailbox = m.mf_mailbox;
    mi_algorithm = m.mf_algorithm;
    mi_seed = m.mf_seed;
    mi_accept_rate = m.mf_accept_rate;
    mi_checkpoint_every = m.mf_checkpoint_every;
    mi_fsync = m.mf_fsync;
    mi_group_commit = m.mf_group_commit;
    mi_deadline = m.mf_deadline;
    mi_tasks = Instance.task_count m.mf_instance;
  }

(* -------------------------------------------------------------- building *)

let shard_journal base k = Printf.sprintf "%s.shard%d" base k
let shard_journal_path ~base ~shard = shard_journal base shard

(* Tasks of shard [k], in ascending global id order, renumbered to local
   ids 0.. — order-preserving, so ascending-id tie-breaks inside the
   shard session match the un-sharded session's. *)
let shard_tasks part (instance : Instance.t) k =
  let globals = ref [] in
  Array.iter
    (fun (task : Task.t) ->
      if shard_of part task.Task.loc = k then
        globals := task.Task.id :: !globals)
    instance.Instance.tasks;
  let globals = Array.of_list (List.rev !globals) in
  let tasks =
    Array.mapi
      (fun local g ->
        let task = instance.Instance.tasks.(g) in
        Task.make ?epsilon:task.Task.epsilon ~id:local ~loc:task.Task.loc ())
      globals
  in
  (globals, tasks)

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

let attach_pool t ~mailbox =
  match t.t_mode with
  | Inline -> ()
  | Domains ->
    let handler ~lane msg =
      let sh = t.t_shards.(lane) in
      let decide () = Session.feed sh.sh_session msg.mw in
      let d =
        match t.t_super with
        | None -> decide ()
        | Some _ ->
          (* Scoped probing: the lane is the single writer of its
             ["shard<k>/..."] fault counters, so scripted per-shard hits
             are deterministic even with sibling lanes running. *)
          Ltc_util.Fault.with_scope (Supervisor.scope ~shard:lane) decide
      in
      if not msg.mq then
        add_entry t sh ~local:msg.mw.Worker.index msg.mg (P_dec (lane, d))
    in
    t.t_pool <-
      Some
        (Ltc_util.Pool.Workers.create ~lanes:(Array.length t.t_shards)
           ~capacity:mailbox ~handler)

let build ~mode ~mailbox ~part ~algorithm ~super ~fsync ~group_commit ~fresh
    shards_arr =
  let resumed =
    Array.fold_left (fun acc sh -> acc + sh.sh_skip) 0 shards_arr
  in
  let incomplete =
    Array.fold_left
      (fun acc sh -> acc + if sh.sh_complete then 0 else 1)
      0 shards_arr
  in
  (* One shard has nothing to run beside the caller: always inline. *)
  let solo = Array.length shards_arr = 1 in
  let t =
    {
      t_mode = (if solo then Inline else mode);
      t_part = part;
      t_shards = shards_arr;
      t_direct =
        (if solo && super = None then Some shards_arr.(0).sh_session
         else None);
      t_algorithm = algorithm;
      t_resumed_at = resumed;
      t_cmutex = Mutex.create ();
      t_pending = Hashtbl.create 64;
      t_next_emit = 1;
      t_fed = 0;
      t_consumed = 0;
      t_replayed = 0;
      t_latency = 0;
      t_incomplete = incomplete;
      t_pool = None;
      t_closed = false;
      t_super = super;
      t_fsync = fsync;
      t_group_commit = group_commit;
      t_fresh = fresh;
    }
  in
  attach_pool t ~mailbox;
  t

(* Shedding refuses arrivals at a full mailbox; an inline single shard
   has none. *)
let check_shed fn ~shards = function
  | Some c when c.Supervisor.overload = Supervisor.Shed && shards = 1 ->
    invalid_arg (fn ^ ": overload shedding needs shard mailboxes (shards >= 2)")
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

(* Open every shard of [m]'s partition.  Shard [k] restores from
   [journal_of k] when [resume] finds it durable, else starts fresh from
   [seeds.(k)] — also the recovery fallback if that journal vanishes. *)
let start ~mode ~supervise ~resume ~seeds ~journal_of ~algorithm ~deadline
    (m : manifest) =
  let shards = m.mf_shards and instance = m.mf_instance in
  let super = Option.map (fun c -> Supervisor.create ~shards c) supervise in
  let captured, hook = capture_hooks super shards in
  let part = make_partition ~shards instance in
  let fresh k =
    let shard_instance =
      if shards = 1 then instance
      else sub_instance instance (snd (shard_tasks part instance k))
    in
    Session.create ?accept_rate:m.mf_accept_rate ?deadline
      ?on_decision:(hook k) ?journal:(journal_of k)
      ~checkpoint_every:m.mf_checkpoint_every ~fsync:m.mf_fsync
      ~group_commit:m.mf_group_commit ~algorithm
      ~seed:seeds.(k) shard_instance
  in
  let shards_arr =
    Array.init shards (fun k ->
        let journal = journal_of k in
        (* A journal that never became durable (create-time crash or an
           untouched shard) restarts fresh, with the same seed. *)
        let restored =
          match journal with
          | Some path ->
            resume && Sys.file_exists path
            && not (Session.is_empty_journal path)
          | None -> false
        in
        let session =
          if restored then
            Session.restore ?on_decision:(hook k) ~fsync:m.mf_fsync
              ~group_commit:m.mf_group_commit ~path:(Option.get journal) ()
          else fresh k
        in
        make_shard ~session ~journal
          ~tasks_globals:(fst (shard_tasks part instance k))
          ~restored ~supervised:(super <> None) ~captured:captured.(k))
  in
  build ~mode ~mailbox:m.mf_mailbox ~part
    ~algorithm:algorithm.Ltc_algo.Algorithm.name ~super ~fsync:m.mf_fsync
    ~group_commit:m.mf_group_commit ~fresh shards_arr

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
  check_shed "Shard_server.create" ~shards supervise;
  let m =
    {
      mf_shards = shards;
      mf_mailbox = mailbox;
      mf_algorithm = algorithm.Ltc_algo.Algorithm.name;
      mf_seed = seed;
      mf_accept_rate = accept_rate;
      mf_checkpoint_every = checkpoint_every;
      mf_fsync = fsync;
      mf_group_commit = group_commit;
      mf_deadline =
        Option.map
          (fun (dl : Session.deadline) ->
            (dl.Session.budget_s, dl.Session.fallback.Ltc_algo.Algorithm.name))
          deadline;
      mf_instance = instance;
    }
  in
  (* A single shard is a plain session: the root seed, the whole instance,
     and its journal at [journal] itself, with no manifest. *)
  let solo = shards = 1 in
  (match journal with
  | Some base when not solo ->
    write_manifest ~path:base
      { m with mf_instance = Session.strip_workers instance }
  | _ -> ());
  start ~mode ~supervise ~resume:false
    ~seeds:(if solo then [| seed |] else shard_seeds ~seed shards)
    ~journal_of:(fun k ->
      Option.map (fun base -> if solo then base else shard_journal base k)
        journal)
    ~algorithm ~deadline m

let restore_manifest ?mailbox ~mode ?fsync ?group_commit ?supervise ~path () =
  let m = read_manifest ~path in
  let algorithm =
    match Ltc_algo.Algorithm.find_opt m.mf_algorithm with
    | Some a -> a
    | None ->
      invalid_arg
        (Printf.sprintf "Shard_server.restore: unknown algorithm %S in %s"
           m.mf_algorithm path)
  in
  let deadline =
    Option.map
      (fun (budget_s, fallback_name) ->
        match Ltc_algo.Algorithm.find_opt fallback_name with
        | Some fallback -> { Session.budget_s; fallback }
        | None ->
          invalid_arg
            (Printf.sprintf
               "Shard_server.restore: unknown fallback %S in %s"
               fallback_name path))
      m.mf_deadline
  in
  check_shed "Shard_server.restore" ~shards:m.mf_shards supervise;
  start ~mode ~supervise ~resume:true
    ~seeds:(shard_seeds ~seed:m.mf_seed m.mf_shards)
    ~journal_of:(fun k -> Some (shard_journal path k))
    ~algorithm ~deadline
    {
      m with
      mf_fsync = Option.value fsync ~default:m.mf_fsync;
      mf_group_commit = Option.value group_commit ~default:m.mf_group_commit;
      mf_mailbox = Option.value mailbox ~default:m.mf_mailbox;
    }

let restore ?journal ?mailbox ?(mode = Domains) ?fsync ?group_commit
    ?supervise ~path () =
  if is_manifest path then begin
    if journal <> None then
      invalid_arg
        "Shard_server.restore: ~journal redirects a plain session journal; \
         a shard manifest keeps its shard journals in place";
    restore_manifest ?mailbox ~mode ?fsync ?group_commit ?supervise ~path ()
  end
  else begin
    (* A plain session journal is a 1-shard server. *)
    check_shed "Shard_server.restore" ~shards:1 supervise;
    let super = Option.map (fun c -> Supervisor.create ~shards:1 c) supervise in
    let captured, hook = capture_hooks super 1 in
    let tasks = (Session.Journal.inspect ~path).Session.Journal.tasks in
    let session =
      Session.restore ?on_decision:(hook 0) ?journal ?fsync ?group_commit
        ~path ()
    in
    let fresh _ =
      invalid_arg "Shard_server: a restored session journal has vanished"
    in
    build ~mode ~mailbox:1 ~part:(degenerate ~shards:1)
      ~algorithm:(Session.algorithm_name session) ~super
      ~fsync:(Option.value fsync ~default:false)
      ~group_commit:(Option.value group_commit ~default:1) ~fresh
      [|
        make_shard ~session
          ~journal:(Some (Option.value journal ~default:path))
          ~tasks_globals:(Array.init tasks Fun.id) ~restored:true
          ~supervised:(super <> None) ~captured:captured.(0);
      |]
  end

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

let scoped k f = Ltc_util.Fault.with_scope (Supervisor.scope ~shard:k) f

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
    | Some pool -> ignore (Ltc_util.Pool.Workers.restart pool ~lane:k)
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
        if (not (Sys.file_exists path)) || Session.is_empty_journal path
        then t.t_fresh k
        else
          Session.restore
            ~on_decision:(fun d -> sh.sh_captured := Some d)
            ~fsync:t.t_fsync ~group_commit:t.t_group_commit ~path ())
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
     consume again.  Its lost mailbox items are superseded by the
     retained-arrival re-feed below. *)
  (match t.t_pool with
  | Some pool -> ignore (Ltc_util.Pool.Workers.restart pool ~lane:k)
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
    let lw =
      Worker.make ~index:local ~loc:w.Worker.loc ~accuracy:w.Worker.accuracy
        ~capacity:w.Worker.capacity
    in
    let quiet = local <= sh.sh_decided in
    match t.t_pool with
    | Some pool ->
      Ltc_util.Pool.Workers.push pool ~lane:k
        { mg = sh.sh_globals.(local - 1); mq = quiet; mw = lw }
    | None ->
      let d = scoped k (fun () -> Session.feed sh.sh_session lw) in
      if not quiet then
        add_entry t sh ~local sh.sh_globals.(local - 1) (P_dec (k, d))
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
      let local_worker =
        Worker.make ~index:local ~loc:w.Worker.loc
          ~accuracy:w.Worker.accuracy ~capacity:w.Worker.capacity
      in
      match t.t_pool with
      | None -> (
        match
          if supervised t then
            scoped k (fun () -> Session.feed sh.sh_session local_worker)
          else Session.feed sh.sh_session local_worker
        with
        | d -> add_entry t sh ~local g (P_dec (k, d))
        | exception e when supervised t ->
          ignore e;
          (* this arrival is already routed, so recovery re-feeds it *)
          handle_crash t k)
      | Some pool -> (
        let msg = { mg = g; mq = false; mw = local_worker } in
        let overload =
          match t.t_super with
          | None -> Supervisor.Block
          | Some s -> (Supervisor.config s).Supervisor.overload
        in
        match overload with
        | Supervisor.Block -> (
          match Ltc_util.Pool.Workers.push pool ~lane:k msg with
          | () -> ()
          | exception e when supervised t ->
            ignore e;
            (* the lane failed before accepting this arrival; it is
               already routed, so recovery re-feeds it *)
            handle_crash t k)
        | Supervisor.Shed -> (
          match Ltc_util.Pool.Workers.try_push pool ~lane:k msg with
          | true -> ()
          | false ->
            (* Mailbox full: shed instead of blocking.  Un-route the
               arrival (its local index was never seen by the session)
               and ack it explicitly. *)
            sh.sh_local_fed <- local - 1;
            sh.sh_arrivals.(local - 1) <- None;
            Supervisor.note_shed (Option.get t.t_super);
            add_pending t g (P_dead k)
          | exception e when supervised t ->
            ignore e;
            handle_crash t k))
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
