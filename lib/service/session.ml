open Ltc_core
module Fault = Ltc_util.Fault
module B = Serialize.Binary

exception Corrupt_journal of { path : string; message : string }

let corrupt ~path fmt =
  Format.kasprintf
    (fun message -> raise (Corrupt_journal { path; message }))
    fmt

type decision = Ltc_algo.Engine.decision = {
  worker : int;
  assigned : int list;
  answered : int list;
  completed : bool;
  latency : int;
  degraded : bool;
}

type deadline = { budget_s : float; fallback : Ltc_algo.Algorithm.t }

type codec = Text | Binary

let codec_name = function Text -> "text" | Binary -> "binary"

(* Bytes buffered before a forced group commit.  Caps both the window of
   decisions a crash can lose and the size of any single write(2),
   whatever [group_commit] says. *)
let max_group_bytes = 1 lsl 18

(* A periodic checkpoint appends a partial snapshot record (see
   [journal_event]); every Nth one falls back to a full compaction so the
   file cannot grow without bound between restores. *)
let compact_after_snapshots = 16

type journal = {
  path : string;
  mutable oc : out_channel;
  mutable events_since_snapshot : int;
  checkpoint_every : int;
  fsync_on_commit : bool;
  group_commit : int;  (* records coalesced per write(2)/fsync *)
  group : B.buffer;
      (* records framed in place and not yet written; compaction renders
         its image here too, so framing allocates nothing once the buffer
         has grown to the largest group or image *)
  mutable pending : int;  (* record count sitting in [group] *)
  mutable disk_bytes : int;
      (* exact on-disk size, tracked incrementally: every byte reaches
         the file through the header write, [commit_group] or
         compaction, so sizing the journal never costs a flush+lseek on
         the commit path *)
  mutable snapshots_since_compact : int;
  header_bytes : string;
      (* the header is immutable for the life of the journal; rendering
         it once (the embedded instance is thousands of %.17g floats)
         keeps compaction off the printf hot path *)
}

type header = {
  algorithm : Ltc_algo.Algorithm.t;
  seed : int;
  accept_rate : float option;
  checkpoint_every : int;
  deadline : deadline option;
  instance : Instance.t;  (* task side only: workers stripped *)
}

type t = {
  header : header;  (* what the journal header records *)
  policy_rng : Ltc_util.Rng.t;
  noshow_rng : Ltc_util.Rng.t;
  engine : Ltc_algo.Engine.state;
      (* progress, arrangement, arrivals consumed, degraded count *)
  on_decision : decision -> unit;
  mutable journal : journal option;
  mutable closed : bool;
  m_feed : Ltc_util.Metrics.Histogram.t;
  m_bytes : Ltc_util.Metrics.Gauge.t;
  m_snapshots : Ltc_util.Metrics.Counter.t;
  m_retries : Ltc_util.Metrics.Counter.t;
}

let fp = Printf.sprintf "%.17g"

let service_metrics name =
  let labels = [ ("algo", name) ] in
  ( Ltc_util.Metrics.histogram ~help:"per-arrival feed latency (s)" ~labels
      "ltc_service_feed_seconds",
    Ltc_util.Metrics.gauge ~help:"journal file size (bytes)" ~labels
      "ltc_service_journal_bytes",
    Ltc_util.Metrics.counter ~help:"journal snapshots written" ~labels
      "ltc_service_snapshots_total",
    Ltc_util.Metrics.counter
      ~help:"transient journal I/O failures retried" ~labels
      "ltc_service_io_retries_total" )

(* The session never reads [instance.workers] (arrivals come from the
   stream), so it holds — and journals — the task side only.  Using the
   stripped instance for the live run too keeps live and restored sessions
   structurally identical.  Shard manifests embed the same task side. *)
let strip_workers (i : Instance.t) =
  if Array.length i.Instance.workers = 0 then i
  else
    Instance.create ~accuracy:i.Instance.accuracy ~scoring:i.Instance.scoring
      ~candidate_radius:i.Instance.candidate_radius ~tasks:i.Instance.tasks
      ~workers:[||] ~epsilon:i.Instance.epsilon ()

(* Both generators fork off one root so a session is a pure function of
   [seed]: the policy stream feeds seeded policies (Random), the no-show
   stream feeds the accept-rate draws.  Separate streams keep the two
   concerns independent: turning noise on or off never perturbs the
   policy's samples. *)
let derive_rngs ~seed =
  let root = Ltc_util.Rng.create ~seed in
  let policy_rng = Ltc_util.Rng.split root in
  let noshow_rng = Ltc_util.Rng.split root in
  (policy_rng, noshow_rng)

(* ----------------------------------------------------- crash-safe I/O *)

(* All journal writes funnel through here: the whole of [buf] as one
   [output], at a named fault site (so the chaos harness can tear or fail
   the write), wrapped in bounded-backoff retries for transient errors.
   A retried attempt re-probes the site — consecutive scripted
   [Io_error]s therefore exercise multi-retry — and is assumed to have
   written nothing (true for injected faults; the torn-suffix/diagnostic
   paths of [restore] cover real partial writes). *)
let guarded_write ~site ~retries oc buf =
  Fault.Retry.with_backoff
    ~on_retry:(fun ~attempt:_ _ -> Ltc_util.Metrics.Counter.incr retries)
    (fun () ->
      let len = B.length buf in
      match Fault.check_write site ~len with
      | None -> B.output oc buf len
      | Some n ->
        (* A torn write: persist a strict prefix, make it visible, die. *)
        B.output oc buf n;
        flush oc;
        Fault.crash site)

let fsync_channel oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Durability of the rename itself: without flushing the directory entry a
   power cut can forget the compaction, resurrecting the pre-compaction
   journal.  Best-effort — not every filesystem lets you fsync a
   directory fd, and a failure here only widens the crash window, it
   never corrupts — but it must not vanish silently either: each failure
   bumps [ltc_service_dir_fsync_errors_total] so operators can see the
   widened window.  The counter registers lazily, on the first failure,
   so healthy runs never list it. *)
let dir_fsync_errors =
  lazy
    (Ltc_util.Metrics.counter
       ~help:"directory fsync failures around journal compaction"
       "ltc_service_dir_fsync_errors_total")

let fsync_dir path =
  let failed () =
    Ltc_util.Metrics.Counter.incr (Lazy.force dir_fsync_errors)
  in
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> failed ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> failed ())

(* ------------------------------------------------------- journal format *)

(* A journal header and a shard manifest are the same grammar: a magic
   line, one [key value...] line per key of the file's key list, then the
   task-side instance.  The keys a [header] holds are rendered by
   [header_lines] and read back by [parse_header], which also runs the
   one check on what it reads; each file kind adds its own keys. *)

(* [h]'s own lines, in file order, each value spelled as the file has it.
   An old journal's checkpoint period below 1 is written as 1. *)
let header_lines h =
  [
    ("algorithm", h.algorithm.Ltc_algo.Algorithm.name);
    ("seed", string_of_int h.seed);
    ("accept_rate", match h.accept_rate with None -> "none" | Some q -> fp q);
    ("checkpoint_every", string_of_int (max 1 h.checkpoint_every));
    ( "deadline",
      match h.deadline with
      | None -> "none"
      | Some d -> fp d.budget_s ^ " " ^ d.fallback.Ltc_algo.Algorithm.name );
  ]

let emit_header sink ~keys ~extra h =
  let lines = header_lines h @ extra in
  List.iter (fun key -> sink (key ^ " " ^ List.assoc key lines ^ "\n")) keys;
  Serialize.emit_instance sink h.instance

(* A name read from a file, resolved to an online registry entry. *)
let resolve_online ~line what name =
  match Ltc_algo.Algorithm.find_opt name with
  | Some a when a.Ltc_algo.Algorithm.policy <> None -> a
  | Some _ -> Serialize.parse_error ~line "%s %S has no online policy" what name
  | None -> Serialize.parse_error ~line "unknown %s %S" what name

(* A finite float within [ok] (the bound [create] enforces). *)
let float_within ~line key v ~ok ~bound =
  match float_of_string_opt v with
  | Some x when Float.is_finite x ->
    if ok x then x
    else Serialize.parse_error ~line "bad %s %S (must be %s)" key v bound
  | Some _ | None -> Serialize.parse_error ~line "bad %s %S" key v

(* The integer on line [key] of a read header, at least [min]. *)
let key_int value ?(min = min_int) key =
  let line, v = value key in
  match int_of_string_opt v with
  | Some n when n >= min -> n
  | Some _ -> Serialize.parse_error ~line "bad %s %S (must be >= %d)" key v min
  | None -> Serialize.parse_error ~line "bad %s %S" key v

(* [parse_header], except that an old journal ([~old_journal]) may have
   a checkpoint period below 1. *)
let read_keyed ~old_journal src ~keys =
  let lines =
    List.map
      (fun key ->
        match Serialize.fields (Serialize.next_line src) with
        | k :: values when k = key -> (key, (Serialize.line_number src, values))
        | _ ->
          Serialize.parse_error ~line:(Serialize.line_number src)
            "expected %S line" key)
      keys
  in
  let value key =
    match List.assoc key lines with
    | line, [ v ] -> (line, v)
    | line, _ -> Serialize.parse_error ~line "malformed %S line" key
  in
  let int = key_int value in
  (* Both file kinds have a codec line: a journal's names its record
     codec, a manifest's is read by nothing. *)
  (match List.assoc_opt "codec" lines with
  | None | Some (_, [ ("text" | "binary") ]) -> ()
  | Some (line, _) ->
    Serialize.parse_error ~line "expected 'codec text|binary'");
  let algorithm =
    let line, name = value "algorithm" in
    resolve_online ~line "algorithm" name
  in
  let seed = int "seed" in
  let accept_rate =
    match value "accept_rate" with
    | _, "none" -> None
    | line, v ->
      Some
        (float_within ~line "accept_rate" v
           ~ok:(fun q -> q <= 1.0 && q > 0.0)
           ~bound:"in (0, 1]")
  in
  let checkpoint_every =
    int ~min:(if old_journal then min_int else 1) "checkpoint_every"
  in
  let deadline =
    (* A v1 journal has no deadline line: it never degrades. *)
    match List.assoc_opt "deadline" lines with
    | None | Some (_, [ "none" ]) -> None
    | Some (line, [ budget; fallback ]) ->
      Some
        {
          budget_s =
            float_within ~line "deadline" budget
              ~ok:(fun b -> b > 0.0)
              ~bound:"> 0";
          fallback = resolve_online ~line "fallback" fallback;
        }
    | Some (line, _) ->
      Serialize.parse_error ~line "malformed \"deadline\" line"
  in
  let instance = Serialize.parse_instance src in
  let header =
    { algorithm; seed; accept_rate; checkpoint_every; deadline; instance }
  in
  (header, value)

let parse_header src ~keys =
  let header, value = read_keyed ~old_journal:false src ~keys in
  (header, key_int value)

(* Every journal is written with a v4 header: the magic line, a [codec
   binary] line, then the lines a v2 header holds.  v4 has v3's keys; it
   marks a journal whose appended checkpoints may be partial snapshots,
   which a v3 journal never holds.  A v1/v2 header (or a v3 naming the
   text codec) marks a text journal, read only, through the import
   path. *)
let journal_keys version =
  (if version >= 3 then [ "codec" ] else [])
  @ [ "algorithm"; "seed"; "accept_rate"; "checkpoint_every" ]
  @ if version >= 2 then [ "deadline" ] else []

let magic_v4 = "ltc-journal v4\n"

let write_header sink h =
  sink magic_v4;
  emit_header sink ~keys:(journal_keys 4) ~extra:[ ("codec", "binary") ] h

(* The version, codec and header of the journal [src] reads. *)
let read_header src =
  let version =
    match Serialize.next_line src with
    | "ltc-journal v1" -> 1
    | "ltc-journal v2" -> 2
    | "ltc-journal v3" -> 3
    | "ltc-journal v4" -> 4
    | other ->
      Serialize.parse_error ~line:(Serialize.line_number src)
        "bad journal header %S" other
  in
  let header, value =
    read_keyed ~old_journal:true src ~keys:(journal_keys version)
  in
  let codec =
    if version < 3 || snd (value "codec") = "text" then Text else Binary
  in
  (version, codec, header)

(* The session's state as a checkpoint record: a full snapshot, or with
   [~full:false] a partial one, without the arrangement. *)
let snapshot_of ~full t =
  {
    B.s_consumed = Ltc_algo.Engine.consumed t.engine;
    s_policy = Ltc_util.Rng.state t.policy_rng;
    s_noshow = Ltc_util.Rng.state t.noshow_rng;
    s_progress = Ltc_algo.Engine.progress t.engine;
    s_arrangement =
      (if full then Some (Ltc_algo.Engine.arrangement t.engine) else None);
  }

(* Group commit: hand the whole buffered group to one write(2), then (if
   durability is on) one fsync for the lot.  The buffer is cleared only
   after the write succeeds, so a retried [Io_error] re-sends the same
   bytes; a crash mid-group loses the group as one unit — exactly the
   torn suffix [restore] already drops.  The fault sites are the same
   ones the unbatched path used ("journal.append", then
   "journal.append.fsync"), so chaos scripts keep their meaning: with
   [group_commit = 1] the site sequence is identical to the old
   per-event protocol. *)
let commit_group t j =
  if j.pending > 0 then begin
    let bytes = B.length j.group in
    guarded_write ~site:"journal.append" ~retries:t.m_retries j.oc j.group;
    B.clear j.group;
    j.pending <- 0;
    flush j.oc;
    if j.fsync_on_commit then begin
      Fault.check "journal.append.fsync";
      Fault.Retry.with_backoff
        ~on_retry:(fun ~attempt:_ _ ->
          Ltc_util.Metrics.Counter.incr t.m_retries)
        (fun () -> fsync_channel j.oc)
    end;
    j.disk_bytes <- j.disk_bytes + bytes;
    Ltc_util.Metrics.Gauge.set t.m_bytes (float_of_int j.disk_bytes)
  end

(* Compaction: atomically replace the journal at [path] with
   [header_bytes] + one snapshot of the current state, and reopen it for
   appending.  Recovery work is thereby bounded by [checkpoint_every]
   replayed arrivals regardless of session age.

   Crash safety: the replacement is rendered into [path.tmp], fsynced,
   renamed over [path], and the directory entry is fsynced.  A crash at
   any fault site leaves exactly one journal visible — the old one
   (before the rename) or the compacted one (after) — never both, and a
   torn temp file is invisible to [restore] (it opens [path], and stale
   [.tmp] debris is deleted on the next restore).

   The image is rendered into [buf], the journal's group buffer, which
   is empty here (the group was committed first): the header bytes and
   one framed full snapshot, written as one payload.  [buf] is empty
   again when this returns or raises.  Returns the append channel and
   the new file size. *)
let compact t ~path ~fsync ~header_bytes buf =
  let tmp = path ^ ".tmp" in
  let bytes =
    Fun.protect ~finally:(fun () -> B.clear buf) @@ fun () ->
    B.add_string buf header_bytes;
    B.add_record buf (B.Snapshot (snapshot_of ~full:true t));
    Fault.Retry.with_backoff
      ~on_retry:(fun ~attempt:_ _ -> Ltc_util.Metrics.Counter.incr t.m_retries)
      (fun () ->
        (* Each attempt rewrites the temp file from scratch ([open_out_bin]
           truncates), so a failed try never leaves half an attempt in
           front of a fresh one. *)
        let oc = open_out_bin tmp in
        try
          guarded_write ~site:"journal.checkpoint.write" ~retries:t.m_retries
            oc buf;
          Fault.check "journal.checkpoint.fsync";
          (* The rename below is atomic whether or not the temp file ever
             hits the platters, so process-crash safety never needs the
             fsync — it buys power-loss durability, which is exactly what
             [fsync] opts in to.  The fault sites stay probed either way so
             chaos plans keep their meaning. *)
          if fsync then fsync_channel oc else flush oc;
          close_out oc
        with e ->
          close_out_noerr oc;
          raise e);
    B.length buf
  in
  Fault.check "journal.checkpoint.rename";
  Sys.rename tmp path;
  Fault.check "journal.checkpoint.dir";
  if fsync then fsync_dir path;
  Ltc_util.Metrics.Counter.incr t.m_snapshots;
  Ltc_util.Metrics.Gauge.set t.m_bytes (float_of_int bytes);
  (open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path, bytes)

let checkpoint t =
  if t.closed then invalid_arg "Session.checkpoint: session is closed";
  match t.journal with
  | None -> ()
  | Some j ->
    Ltc_util.Trace.with_span "service:checkpoint" @@ fun () ->
    (* Buffered events become durable before the snapshot that includes
       them replaces the file. *)
    commit_group t j;
    close_out j.oc;
    let oc, bytes =
      compact t ~path:j.path ~fsync:j.fsync_on_commit
        ~header_bytes:j.header_bytes j.group
    in
    j.oc <- oc;
    j.events_since_snapshot <- 0;
    j.snapshots_since_compact <- 0;
    j.disk_bytes <- bytes

(* The fast path for a periodic checkpoint: a partial snapshot (progress,
   RNG states, arrivals consumed — no arrangement) is just another framed
   record riding the group buffer — one buffered write through the usual
   append fault sites instead of a rewrite + rename of the whole file.
   Its size does not grow with the session: the assignments made since
   the last full snapshot are the [answered] lists of the events the file
   already holds, and restore rebuilds the arrangement from them.  The
   scanner builds only the latest partial snapshot, so the earlier ones
   become dead weight that the next compaction (every
   [compact_after_snapshots]th checkpoint, any explicit {!checkpoint}, or
   {!restore}) sweeps out. *)
let append_snapshot t j =
  Ltc_util.Trace.with_span "service:checkpoint" @@ fun () ->
  B.add_record j.group (B.Snapshot (snapshot_of ~full:false t));
  j.pending <- j.pending + 1;
  j.events_since_snapshot <- 0;
  j.snapshots_since_compact <- j.snapshots_since_compact + 1;
  (* The checkpoint contract: everything up to and including the
     snapshot is committed before the session moves on. *)
  commit_group t j;
  Ltc_util.Metrics.Counter.incr t.m_snapshots

let journal_event t (w : Worker.t) d =
  match t.journal with
  | None -> ()
  | Some j ->
    B.add_record j.group
      (B.Event
         {
           B.e_worker = w;
           e_degraded = d.degraded;
           e_assigned = d.assigned;
           e_answered = d.answered;
         });
    j.pending <- j.pending + 1;
    j.events_since_snapshot <- j.events_since_snapshot + 1;
    if j.pending >= j.group_commit || B.length j.group >= max_group_bytes
    then commit_group t j;
    if j.events_since_snapshot >= j.checkpoint_every then
      if j.snapshots_since_compact >= compact_after_snapshots - 1 then
        checkpoint t
      else append_snapshot t j

(* ---------------------------------------------------------- construction *)

let policy_of (a : Ltc_algo.Algorithm.t) what =
  match a.Ltc_algo.Algorithm.policy with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "Session: %s cannot serve %s (offline algorithm)"
         a.Ltc_algo.Algorithm.name what)

let check_online a what =
  let (_ : Ltc_util.Rng.t -> Ltc_algo.Engine.policy) = policy_of a what in
  ()

let make_session ~header ~on_decision ~policy_rng ~noshow_rng ~progress
    ~arrangement ~consumed =
  let { algorithm; accept_rate; deadline; instance; _ } = header in
  let policy = policy_of algorithm "an arrival stream" in
  (* The fallback draws from the policy stream too, so a degraded
     decision is exactly what the fallback algorithm would have produced
     standalone given the same progress state. *)
  let degrade =
    Option.map
      (fun d ->
        {
          Ltc_algo.Engine.budget_s = d.budget_s;
          fallback_name = d.fallback.Ltc_algo.Algorithm.name;
          fallback = (policy_of d.fallback "as a deadline fallback") policy_rng;
        })
      deadline
  in
  let engine =
    Ltc_algo.Engine.start
      ~config:
        {
          Ltc_algo.Engine.accept_rate;
          rng = Some noshow_rng;
          degrade;
        }
      ~site:"session.decide" ~progress ~arrangement ~consumed
      ~name:algorithm.Ltc_algo.Algorithm.name (policy policy_rng) instance
  in
  let m_feed, m_bytes, m_snapshots, m_retries =
    service_metrics algorithm.Ltc_algo.Algorithm.name
  in
  {
    header;
    policy_rng;
    noshow_rng;
    engine;
    on_decision;
    journal = None;
    closed = false;
    m_feed;
    m_bytes;
    m_snapshots;
    m_retries;
  }

let check_options ?accept_rate ?deadline ~checkpoint_every ~group_commit
    algorithm =
  Option.iter (Ltc_algo.Engine.check_accept_rate "Session.create") accept_rate;
  if checkpoint_every < 1 then
    invalid_arg "Session.create: checkpoint_every must be >= 1";
  if group_commit < 1 then
    invalid_arg "Session.create: group_commit must be >= 1";
  check_online algorithm "an arrival stream";
  Option.iter
    (fun d ->
      Ltc_algo.Engine.check_budget "Session" d.budget_s;
      check_online d.fallback "as a deadline fallback")
    deadline

(* A journal appending through [oc] to a file of [disk_bytes] bytes that
   starts with [header_bytes], framing into the (empty) buffer [group]. *)
let open_journal ~path ~oc ~checkpoint_every ~fsync ~group_commit
    ~header_bytes ~disk_bytes group =
  {
    path;
    oc;
    events_since_snapshot = 0;
    checkpoint_every;
    fsync_on_commit = fsync;
    group_commit;
    group;
    pending = 0;
    disk_bytes;
    snapshots_since_compact = 0;
    header_bytes;
  }

let attach_journal t ~path ~fsync ~group_commit =
  let oc = open_out_bin path in
  let buf = Buffer.create 1024 in
  write_header (Buffer.add_string buf) t.header;
  let header_bytes = Buffer.contents buf in
  (* A plain (never torn) site: a crash here leaves the freshly-truncated
     file empty, which {!is_empty_journal} classifies as "no session yet"
     — so create-time crashes need no header-recovery logic anywhere. *)
  Fault.Retry.with_backoff
    ~on_retry:(fun ~attempt:_ _ -> Ltc_util.Metrics.Counter.incr t.m_retries)
    (fun () -> Fault.check "journal.header");
  output_string oc header_bytes;
  flush oc;
  let disk_bytes = String.length header_bytes in
  t.journal <-
    Some
      (open_journal ~path ~oc ~checkpoint_every:t.header.checkpoint_every
         ~fsync ~group_commit ~header_bytes ~disk_bytes (B.buffer ()));
  Ltc_util.Metrics.Gauge.set t.m_bytes (float_of_int disk_bytes)

let create ?accept_rate ?deadline ?(on_decision = fun _ -> ()) ?journal
    ?(checkpoint_every = 256) ?(fsync = false) ?(format = Binary)
    ?(group_commit = 1) ~algorithm ~seed instance =
  if format = Text then
    invalid_arg
      "Session.create: the text journal codec is read-only (old text \
       journals restore; new journals are binary)";
  check_options ?accept_rate ?deadline ~checkpoint_every ~group_commit
    algorithm;
  let instance = strip_workers instance in
  let policy_rng, noshow_rng = derive_rngs ~seed in
  let progress =
    Progress.create_per_task ~thresholds:(Instance.thresholds instance) ()
  in
  let t =
    make_session
      ~header:
        { algorithm; seed; accept_rate; checkpoint_every; deadline; instance }
      ~on_decision ~policy_rng ~noshow_rng ~progress
      ~arrangement:Arrangement.empty ~consumed:0
  in
  Option.iter (fun path -> attach_journal t ~path ~fsync ~group_commit) journal;
  t

(* ----------------------------------------------------------------- feed *)

let completed t = Progress.all_complete (Ltc_algo.Engine.progress t.engine)
let consumed t = Ltc_algo.Engine.consumed t.engine
let arrangement t = Ltc_algo.Engine.arrangement t.engine
let latency t = Arrangement.latency (arrangement t)
let algorithm_name t = t.header.algorithm.Ltc_algo.Algorithm.name
let degraded_total t = Ltc_algo.Engine.degraded t.engine

let rng_states t =
  (Ltc_util.Rng.state t.policy_rng, Ltc_util.Rng.state t.noshow_rng)

let journal_bytes t =
  match t.journal with
  | Some j when not t.closed -> j.disk_bytes
  | Some _ | None -> 0

let peak_memory_mb t = Ltc_algo.Engine.peak_memory_mb t.engine

(* [replay = Some degraded] re-executes a journaled event: the primary
   always runs (it consumed its RNG draws in the original timeline), and
   the journal — not the clock — decides whether the fallback overrode
   it.  [replay = None] is a live arrival deciding against the clock and
   probing the "session.decide" fault site — even without a deadline, so
   a scripted [Delay] merely advances the virtual clock: the fault is
   observed (and counted) but cannot change the decision stream. *)
let feed_mode t ~replay (w : Worker.t) =
  if t.closed then invalid_arg "Session.feed: session is closed";
  if completed t then
    (* Engine parity: the batch loop stops before consuming the arrival
       that follows completion, so a finished session acknowledges further
       workers without consuming capacity, RNG draws or journal space. *)
    {
      worker = w.index;
      assigned = [];
      answered = [];
      completed = true;
      latency = latency t;
      degraded = false;
    }
  else begin
    if w.index <> consumed t + 1 then
      invalid_arg
        (Printf.sprintf "Session.feed: expected arrival %d, got %d"
           (consumed t + 1) w.index);
    let timing = Ltc_util.Metrics.enabled () in
    let t0 = if timing then Some (Ltc_util.Timer.start ()) else None in
    let d = Ltc_algo.Engine.step ?forced:replay t.engine w in
    (* The hook fires before the journal write on purpose: a crash inside
       the append then loses the record but not the (deterministically
       reproducible) decision, which is how the chaos harness accounts
       for every arrival across incarnations. *)
    t.on_decision d;
    journal_event t w d;
    (match t0 with
    | Some t0 ->
      Ltc_util.Metrics.Histogram.observe t.m_feed (Ltc_util.Timer.elapsed_s t0)
    | None -> ());
    d
  end

let feed t w = feed_mode t ~replay:None w

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.journal with
    | None -> ()
    | Some j ->
      commit_group t j;
      flush j.oc;
      close_out j.oc
  end

(* -------------------------------------------------------------- restore *)

(* Scan the event tail.  Anything after the last complete record —
   a torn arrival or decision line, a half-written snapshot — is treated
   as lost to the crash and dropped; the stream replays it on resume.
   A broken record with intact records *after* it is a different story:
   that is interior corruption (bit rot, concurrent writers, manual
   edits), and silently dropping everything from the damage onwards would
   amputate acknowledged state — so it fails loudly, naming the byte
   offset, line and record index of the damage. *)
exception Torn_tail

let parse_snapshot src =
  let fail () = raise Torn_tail in
  let next () =
    match Serialize.next_line_opt src with Some l -> l | None -> fail ()
  in
  let s_consumed =
    match Serialize.fields (next ()) with
    | [ "consumed"; n ] -> (
      match int_of_string_opt n with Some n -> n | None -> fail ())
    | _ -> fail ()
  in
  let s_policy, s_noshow =
    match Serialize.fields (next ()) with
    | [ "rng"; p; q ] -> (
      match (Int64.of_string_opt p, Int64.of_string_opt q) with
      | Some p, Some q -> (p, q)
      | _ -> fail ())
    | _ -> fail ()
  in
  let s_progress =
    try Serialize.parse_progress src
    with Serialize.Parse_error _ -> fail ()
  in
  let s_arrangement =
    try Serialize.parse_arrangement src
    with Serialize.Parse_error _ -> fail ()
  in
  (match Serialize.next_line_opt src with
  | Some "end-snapshot" -> ()
  | Some _ | None -> fail ());
  {
    B.s_consumed;
    s_policy;
    s_noshow;
    s_progress;
    s_arrangement = Some s_arrangement;
  }

let parse_arrival_fields src rest =
  match rest with
  | [ index; x; y; accuracy; capacity ] -> (
    try
      Worker.make
        ~index:(Serialize.int_field src index)
        ~loc:
          (Ltc_geo.Point.make
             ~x:(Serialize.float_field src x)
             ~y:(Serialize.float_field src y))
        ~accuracy:(Serialize.float_field src accuracy)
        ~capacity:(Serialize.int_field src capacity)
    with Serialize.Parse_error _ | Invalid_argument _ -> raise Torn_tail)
  | _ -> raise Torn_tail

let parse_decision_fields (w : Worker.t) rest =
  let int s =
    match int_of_string_opt s with Some i -> i | None -> raise Torn_tail
  in
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | x :: rest -> take (k - 1) (int x :: acc) rest
    | [] -> raise Torn_tail
  in
  match rest with
  | index :: k :: rest ->
    if int index <> w.index then raise Torn_tail;
    let assigned, rest = take (int k) [] rest in
    (match rest with
    | m :: rest ->
      let answered, rest = take (int m) [] rest in
      if rest <> [ "." ] then raise Torn_tail;
      (assigned, answered)
    | [] -> raise Torn_tail)
  | _ -> raise Torn_tail

(* The offending bytes for an interior-corruption report, re-read from
   disk by offset (the scanning source cannot rewind). *)
let excerpt_at ~path ~offset =
  try
    In_channel.with_open_bin path (fun ic ->
        In_channel.seek ic (Int64.of_int offset);
        let buf = Bytes.create 60 in
        let n = In_channel.input ic buf 0 60 in
        let s = Bytes.sub_string buf 0 (max 0 n) in
        match String.index_opt s '\n' with
        | Some i -> String.sub s 0 i
        | None -> s)
  with Sys_error _ -> "<unreadable>"

(* A complete record the scan found: its number in the file (from 1) and
   the byte offset of its start.  [record] is [None] for a binary record a
   later snapshot supersedes: dropped, and never built if a snapshot. *)
type item = {
  kind : B.kind;
  index : int;
  offset : int;
  record : B.record option;
}

(* A text journal holds full snapshots only. *)
let built record ~index ~offset =
  let kind =
    match record with
    | B.Event _ -> B.Event_record
    | B.Snapshot _ -> B.Snapshot_record
  in
  { kind; index; offset; record = Some record }

(* One pass over a text journal body (the import path: nothing writes
   text any more): every complete record in order, tagged with the byte
   offset of its first line.  Stops silently at a torn suffix; raises
   {!Corrupt_journal} on interior damage.  Every record is built: a text
   session compacted at every checkpoint, so its journal holds at most
   one snapshot (only a conversion from binary wrote text journals with
   more). *)
let scan_text ~path src =
  let items = ref [] in
  let records = ref 0 in
  let torn_at = ref None in
  (try
     let continue = ref true in
     while !continue do
       match Serialize.next_line_opt src with
       | None -> continue := false
       | Some line -> (
         incr records;
         let offset = Serialize.line_offset src in
         match
           match Serialize.fields line with
           | [ "snapshot" ] ->
             let s = parse_snapshot src in
             items :=
               built (B.Snapshot s) ~index:!records ~offset :: !items
           | "w" :: rest -> (
             let w = parse_arrival_fields src rest in
             match Serialize.next_line_opt src with
             | Some dline -> (
               match Serialize.fields dline with
               | ("d" | "D") :: drest ->
                 let degraded = String.length dline > 0 && dline.[0] = 'D' in
                 let assigned, answered = parse_decision_fields w drest in
                 items :=
                   built
                     (B.Event
                        {
                          B.e_worker = w;
                          e_degraded = degraded;
                          e_assigned = assigned;
                          e_answered = answered;
                        })
                     ~index:!records ~offset
                   :: !items
               | _ -> raise Torn_tail)
             | None ->
               (* Arrival journaled, decision lost: the arrival was never
                  fully processed — drop it, the stream re-feeds it. *)
               raise Torn_tail)
           | _ -> raise Torn_tail
         with
         | () -> ()
         | exception Torn_tail ->
           (* Where did the record break?  If intact content follows, the
              damage is interior, not a torn suffix. *)
           let fail_line = Serialize.line_number src in
           let fail_offset = Serialize.line_offset src in
           (match Serialize.next_line_opt src with
           | None ->
             torn_at := Some offset;
             raise Torn_tail
           | Some _ ->
             corrupt ~path
               "corrupted record %d at byte %d (line %d): unparseable %S \
                followed by intact records — refusing to drop acknowledged \
                state"
               !records fail_offset fail_line
               (excerpt_at ~path ~offset:fail_offset)))
     done
   with Torn_tail -> ());
  (List.rev !items, !torn_at)

(* Same pass over a binary journal body, read in one piece and framed in
   place: each frame's payload is decoded where it sits in the body, so
   no record is copied out.  The CRC does the triage work the
   text scanner gets from its record grammar — an incomplete frame can
   only sit at end of file ([B.Torn]: expected crash damage, dropped),
   while a complete frame with wrong bytes, or a CRC-valid frame that
   fails to decode, is interior corruption wherever it sits.  So is a
   partial snapshot in a journal older than v4, which never wrote one.

   Every frame is CRC-checked and decoded once, in file order, so damage
   anywhere is reported where it is met.  An event is built as it is
   decoded: a restore keeps every event after the latest full snapshot —
   those before the latest partial one rebuild the arrangement, the rest
   replay — and in a v4 journal, whose only full snapshot compaction
   writes first, no event comes before it.  A snapshot is only checked,
   and built at the end if a restore needs it: the latest full snapshot
   and the latest partial one after it.  A full snapshot supersedes every
   record before it, a partial one only the partial before it; each
   record is dropped as soon as it is superseded. *)
let scan_binary ~path ~version ic =
  (* Byte [pos] of [body] is byte [base + pos] of the file. *)
  let base = pos_in ic in
  let body = really_input_string ic (in_channel_length ic - base) in
  (* (kind, index, offset, record) of every record, newest first; the
     record cell is emptied once the record is superseded. *)
  let scanned = ref [] in
  let since_base = ref [] in  (* record cells since the latest full one *)
  let partial = ref None in  (* the latest partial's cell since then *)
  let records = ref 0 in
  let torn_at = ref None in
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    let offset = base + !pos in
    match B.frame_at body !pos with
    | B.Eof -> continue := false
    | B.Torn ->
      torn_at := Some offset;
      continue := false
    | B.Invalid reason ->
      corrupt ~path
        "corrupted record %d at byte %d: %s — refusing to drop acknowledged \
         state"
        (!records + 1) offset reason
    | B.Frame len -> (
      let payload = !pos + 8 in
      pos := payload + len;
      incr records;
      match B.scan_payload body ~pos:payload ~len with
      | kind, built ->
        if kind = B.Partial_record && version < 4 then
          corrupt ~path
            "corrupted record %d at byte %d: a partial snapshot in a v%d \
             journal"
            !records offset version;
        let cell =
          ref
            (Some
               (match built with
               | Some record -> Lazy.from_val record
               | None -> lazy (B.record_of_payload body ~pos:payload ~len)))
        in
        (match kind with
        | B.Snapshot_record ->
          List.iter (fun c -> c := None) !since_base;
          since_base := [];
          partial := None
        | B.Partial_record ->
          Option.iter (fun c -> c := None) !partial;
          partial := Some cell
        | B.Event_record -> ());
        since_base := cell :: !since_base;
        scanned := (kind, !records, offset, cell) :: !scanned
      | exception Serialize.Parse_error { message; _ } ->
        corrupt ~path
          "corrupted record %d at byte %d: CRC-valid frame fails to decode \
           (%s)"
          !records offset message)
  done;
  let items =
    List.rev_map
      (fun (kind, index, offset, cell) ->
        { kind; index; offset; record = Option.map Lazy.force !cell })
      !scanned
  in
  (items, !torn_at)

(* [src] must wrap [ic]: the text scanner consumes lines through it, the
   binary scanner picks up the raw channel exactly where the (always
   line-oriented) header parse left it. *)
let scan_items ~path ~version ~codec ic src =
  match codec with
  | Text -> scan_text ~path src
  | Binary -> scan_binary ~path ~version ic

(* What a restore resumes from: the session state at the latest
   checkpoint — progress, RNG states, arrivals consumed and the
   arrangement — and the events after it, to replay.

   A full snapshot is that state by itself.  A partial one has all of it
   but the arrangement, which is the one before it (the latest full
   snapshot's, or empty) plus, in file order, every answer of the events
   between them.  Those events are not replayed, so what they build is
   checked first: their arrivals run on from the count before them, the
   partial's count is where they end, and each answer is one of its
   event's assigned tasks and a task of the instance.  A failed check
   names the record. *)
type resume = {
  checkpoint : (B.snapshot * Arrangement.t) option;
  tail : B.event list;
}

let collapse ~path ~n_tasks items =
  let refuse item fmt =
    corrupt ~path
      ("corrupted record %d at byte %d: " ^^ fmt)
      item.index item.offset
  in
  let rebuild (consumed, arrangement) (item, (e : B.event)) =
    let worker = e.B.e_worker.Worker.index in
    if worker <> consumed + 1 then
      refuse item "arrival %d follows arrival %d" worker consumed;
    let add arrangement task =
      if not (List.mem task e.B.e_assigned) then
        refuse item "arrival %d answered task %d, which it was not assigned"
          worker task;
      if task >= n_tasks then
        refuse item "arrival %d answered task %d of an instance with %d tasks"
          worker task n_tasks;
      Arrangement.add arrangement ~worker ~task
    in
    (worker, List.fold_left add arrangement e.B.e_answered)
  in
  let checkpoint, events_rev =
    List.fold_left
      (fun (checkpoint, events) item ->
        match item.record with
        | Some (B.Snapshot ({ B.s_arrangement = Some a; _ } as s)) ->
          (Some (s, a), [])
        | Some (B.Snapshot s) ->
          let before =
            match checkpoint with
            | Some ((b : B.snapshot), a) -> (b.B.s_consumed, a)
            | None -> (0, Arrangement.empty)
          in
          let consumed, a =
            List.fold_left rebuild before (List.rev events)
          in
          if s.B.s_consumed <> consumed then
            refuse item
              "a partial snapshot at arrival %d where the events before it \
               end at arrival %d"
              s.B.s_consumed consumed;
          (Some (s, a), [])
        | Some (B.Event e) -> (checkpoint, (item, e) :: events)
        | None -> (checkpoint, events))
      (None, []) items
  in
  { checkpoint; tail = List.rev_map snd events_rev }

let is_empty_journal path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> in_channel_length ic = 0)

(* The header the compacted journal starts with.  A v3 or v4 binary
   header is kept as the file has it (its first [header_end] bytes), with
   the magic line rewritten to v4 (same length): %.17g round-trips, so
   these are the bytes [write_header] would render, without rendering
   thousands of floats again.  Any other header is rendered as v4 binary:
   a text journal's (which the compaction thereby upgrades), a
   [checkpoint_every] below 1, or one torn inside its last line, which
   still parses. *)
let compacted_header ic ~header_end ~codec h =
  let kept =
    if codec = Binary && h.checkpoint_every >= 1 then begin
      seek_in ic 0;
      let bytes = really_input_string ic header_end in
      let magic = String.length magic_v4 in
      if
        String.ends_with ~suffix:"\n" bytes
        && List.mem (String.sub bytes 0 (min magic header_end))
             [ "ltc-journal v3\n"; magic_v4 ]
      then Some (magic_v4 ^ String.sub bytes magic (header_end - magic))
      else None
    end
    else None
  in
  match kept with
  | Some bytes -> bytes
  | None ->
    let buf = Buffer.create 1024 in
    write_header (Buffer.add_string buf) h;
    Buffer.contents buf

(* Open the journal at [path], read its header (refusing a malformed one
   as {!Corrupt_journal} naming the line) and hand the channel, positioned
   just past it, to [f]. *)
let with_journal ~path f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let src = Serialize.source_of_channel ic in
      let version, codec, header =
        try read_header src
        with Serialize.Parse_error { line; message } ->
          corrupt ~path "line %d: %s" line message
      in
      f ic src ~version ~codec header)

let restore ?(on_decision = fun _ -> ()) ?journal ?(fsync = false)
    ?(group_commit = 1) ~path () =
  if group_commit < 1 then
    invalid_arg "Session.restore: group_commit must be >= 1";
  Ltc_util.Trace.with_span "service:restore" @@ fun () ->
  (* The restored session journals to [journal_path] and never writes
     anywhere else: with a redirect, [path] is only read. *)
  let journal_path = Option.value journal ~default:path in
  (* Stale compaction debris: a crash between writing [journal_path.tmp]
     and the rename leaves the temp file next to the journal.  It is dead
     weight — possibly torn — and deleting it up front guarantees no later
     step can confuse the two. *)
  (let tmp = journal_path ^ ".tmp" in
   if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ());
  let header, header_bytes, { checkpoint; tail } =
    with_journal ~path @@ fun ic src ~version ~codec header ->
    let header_end = pos_in ic in
    let items, _torn_at = scan_items ~path ~version ~codec ic src in
    let n_tasks = Instance.task_count header.instance in
    ( header,
      compacted_header ic ~header_end ~codec header,
      collapse ~path ~n_tasks items )
  in
  (if header.deadline = None then
     match List.find_opt (fun (e : B.event) -> e.B.e_degraded) tail with
     | Some e ->
       let w : Worker.t = e.B.e_worker in
       corrupt ~path
         "arrival %d was decided by a deadline fallback but the header \
          configures no deadline"
         w.index
     | None -> ());
  let instance = header.instance in
  let policy_rng, noshow_rng, progress, arrangement, consumed =
    match checkpoint with
    | None ->
      let policy_rng, noshow_rng = derive_rngs ~seed:header.seed in
      let progress =
        Progress.create_per_task ~thresholds:(Instance.thresholds instance) ()
      in
      (policy_rng, noshow_rng, progress, Arrangement.empty, 0)
    | Some (s, arrangement) ->
      if Progress.n_tasks s.B.s_progress <> Instance.task_count instance then
        corrupt ~path "snapshot progress does not match the instance";
      ( Ltc_util.Rng.of_state s.B.s_policy,
        Ltc_util.Rng.of_state s.B.s_noshow,
        s.B.s_progress,
        arrangement,
        s.B.s_consumed )
  in
  let t =
    make_session ~header ~on_decision ~policy_rng ~noshow_rng ~progress
      ~arrangement ~consumed
  in
  (* Replay the tail by re-running the policy — required to advance the
     policy/no-show streams exactly as the original run did — and verify
     the recomputed decisions against the journaled ones: a divergence
     means the journal does not describe this code/instance and silently
     continuing would corrupt the run.  Degraded events force the
     fallback (the journal, not the clock, is the record of what
     happened). *)
  List.iter
    (fun (e : B.event) ->
      let w : Worker.t = e.B.e_worker in
      let d =
        try feed_mode t ~replay:(Some e.B.e_degraded) w
        with
        | Invalid_argument m | Ltc_algo.Engine.Invalid_decision m ->
          corrupt ~path "replaying arrival %d: %s" w.index m
      in
      if d.assigned <> e.B.e_assigned || d.answered <> e.B.e_answered then
        corrupt ~path
          "replayed decision for arrival %d diverges from the journal"
          w.index)
    tail;
  (* Re-attach the journal (same file unless redirected) by compacting
     into it immediately: torn tail bytes vanish, recovery stays bounded,
     and a text or v3 source comes out as v4 binary. *)
  let group = B.buffer () in
  let oc, disk_bytes =
    Ltc_util.Trace.with_span "service:checkpoint" @@ fun () ->
    compact t ~path:journal_path ~fsync ~header_bytes group
  in
  t.journal <-
    Some
      (open_journal ~path:journal_path ~oc
         ~checkpoint_every:(max 1 header.checkpoint_every)
         ~fsync ~group_commit ~header_bytes ~disk_bytes group);
  t

(* ------------------------------------------------ offline journal tools *)

module Journal = struct
  type info = {
    version : int;
    codec : codec;
    header : header;
    file_bytes : int;
    torn_bytes : int;
    snapshots : int;
    partial_snapshots : int;
    events : int;
    consumed : int;
    snapshot_offsets : int list;
  }

  let header ~path = with_journal ~path (fun _ _ ~version:_ ~codec:_ h -> h)

  (* Every complete record in file order (offsets attached), built only
     where a restore would build it, through the restore scanners: torn
     tails are dropped and interior corruption raises {!Corrupt_journal}
     with the same diagnostics. *)
  let inspect ~path =
    let version, codec, header, items, torn_at =
      with_journal ~path @@ fun ic src ~version ~codec header ->
      let items, torn_at = scan_items ~path ~version ~codec ic src in
      (version, codec, header, items, torn_at)
    in
    let file_bytes =
      In_channel.with_open_bin path (fun ic -> in_channel_length ic)
    in
    let snapshots, partial_snapshots, events, offsets_rev =
      List.fold_left
        (fun (s, p, e, offs) item ->
          match item.kind with
          | B.Snapshot_record -> (s + 1, p, e, item.offset :: offs)
          | B.Partial_record -> (s + 1, p + 1, e, item.offset :: offs)
          | B.Event_record -> (s, p, e + 1, offs))
        (0, 0, 0, []) items
    in
    let { checkpoint; tail } =
      collapse ~path ~n_tasks:(Instance.task_count header.instance) items
    in
    let consumed =
      (match checkpoint with Some (s, _) -> s.B.s_consumed | None -> 0)
      + List.length tail
    in
    {
      version;
      codec;
      header;
      file_bytes;
      torn_bytes =
        (match torn_at with None -> 0 | Some off -> file_bytes - off);
      snapshots;
      partial_snapshots;
      events;
      consumed;
      snapshot_offsets = List.rev offsets_rev;
    }
end
