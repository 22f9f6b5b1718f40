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

(* A periodic checkpoint appends a snapshot record (see [journal_event]);
   every Nth one falls back to a full compaction so the file cannot grow
   without bound between restores. *)
let compact_after_snapshots = 16

type journal = {
  path : string;
  mutable oc : out_channel;
  mutable events_since_snapshot : int;
  checkpoint_every : int;
  fsync_on_commit : bool;
  group_commit : int;  (* records coalesced per write(2)/fsync *)
  group : Buffer.t;  (* encoded but not yet written records *)
  scratch : Buffer.t;
      (* per-record staging for framing, reused across records so the hot
         append path allocates no fresh buffer per event *)
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

type t = {
  instance : Instance.t;  (* task side only: workers stripped *)
  algorithm : Ltc_algo.Algorithm.t;
  seed : int;
  accept_rate : float option;
  deadline : deadline option;
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
  (* Always-on decide-latency quantiles on the fault clock: virtual time
     when the clock is virtualised (loadgen), wall time otherwise. *)
  feed_hdr : Ltc_util.Metrics.Hdr.t;
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

(* All journal writes funnel through here: a named fault site (so the
   chaos harness can tear or fail the write), wrapped in bounded-backoff
   retries for transient errors.  A retried attempt re-probes the site —
   consecutive scripted [Io_error]s therefore exercise multi-retry — and
   is assumed to have written nothing (true for injected faults; the
   torn-suffix/diagnostic paths of [restore] cover real partial
   writes). *)
let guarded_write ~site ~retries oc payload =
  Fault.Retry.with_backoff
    ~on_retry:(fun ~attempt:_ _ -> Ltc_util.Metrics.Counter.incr retries)
    (fun () ->
      match Fault.check_write site ~len:(String.length payload) with
      | None -> output_string oc payload
      | Some n ->
        (* A torn write: persist a strict prefix, make it visible, die. *)
        output_substring oc payload 0 n;
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

(* The parsed/emitted journal header.  Every journal is written with a
   v3 header: the magic line, a [codec binary] line, then the lines a v2
   header holds.  A v1/v2 header (or a v3 naming the text codec) marks a
   text journal, read only, through the import path.  [h_version] and
   [h_codec] record what was actually parsed. *)
type header = {
  h_version : int;
  h_codec : codec;
  h_algorithm : string;
  h_seed : int;
  h_accept_rate : float option;
  h_checkpoint_every : int;
  h_deadline : (float * string) option;
  h_instance : Instance.t;
}

let header_of t ~checkpoint_every =
  {
    h_version = 3;
    h_codec = Binary;
    h_algorithm = t.algorithm.Ltc_algo.Algorithm.name;
    h_seed = t.seed;
    h_accept_rate = t.accept_rate;
    h_checkpoint_every = checkpoint_every;
    h_deadline =
      Option.map
        (fun d -> (d.budget_s, d.fallback.Ltc_algo.Algorithm.name))
        t.deadline;
    h_instance = t.instance;
  }

(* Renders a v3 binary header whatever [h] was parsed from: [h_version]
   and [h_codec] are not written back. *)
let write_header sink (h : header) =
  let pf fmt = Printf.ksprintf sink fmt in
  pf "ltc-journal v3\ncodec binary\n";
  pf "algorithm %s\n" h.h_algorithm;
  pf "seed %d\n" h.h_seed;
  (match h.h_accept_rate with
  | None -> pf "accept_rate none\n"
  | Some q -> pf "accept_rate %s\n" (fp q));
  pf "checkpoint_every %d\n" h.h_checkpoint_every;
  (match h.h_deadline with
  | None -> pf "deadline none\n"
  | Some (budget_s, fallback) -> pf "deadline %s %s\n" (fp budget_s) fallback);
  Serialize.emit_instance sink h.h_instance

let snapshot_of t =
  {
    B.s_consumed = Ltc_algo.Engine.consumed t.engine;
    s_policy = Ltc_util.Rng.state t.policy_rng;
    s_noshow = Ltc_util.Rng.state t.noshow_rng;
    s_progress = Ltc_algo.Engine.progress t.engine;
    s_arrangement = Ltc_algo.Engine.arrangement t.engine;
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
    let payload = Buffer.contents j.group in
    guarded_write ~site:"journal.append" ~retries:t.m_retries j.oc payload;
    Buffer.clear j.group;
    j.pending <- 0;
    flush j.oc;
    if j.fsync_on_commit then begin
      Fault.check "journal.append.fsync";
      Fault.Retry.with_backoff
        ~on_retry:(fun ~attempt:_ _ ->
          Ltc_util.Metrics.Counter.incr t.m_retries)
        (fun () -> fsync_channel j.oc)
    end;
    j.disk_bytes <- j.disk_bytes + String.length payload;
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
   [.tmp] debris is deleted on the next restore).  Returns the append
   channel and the new file size. *)
let compact t ~path ~fsync ~header_bytes =
  let tmp = path ^ ".tmp" in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header_bytes;
  B.add_record_frame buf (B.Snapshot (snapshot_of t));
  let payload = Buffer.contents buf in
  Fault.Retry.with_backoff
    ~on_retry:(fun ~attempt:_ _ -> Ltc_util.Metrics.Counter.incr t.m_retries)
    (fun () ->
      (* Each attempt rewrites the temp file from scratch ([open_out_bin]
         truncates), so a failed try never leaves half an attempt in
         front of a fresh one. *)
      let oc = open_out_bin tmp in
      try
        guarded_write ~site:"journal.checkpoint.write" ~retries:t.m_retries
          oc payload;
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
  Fault.check "journal.checkpoint.rename";
  Sys.rename tmp path;
  Fault.check "journal.checkpoint.dir";
  if fsync then fsync_dir path;
  Ltc_util.Metrics.Counter.incr t.m_snapshots;
  Ltc_util.Metrics.Gauge.set t.m_bytes (float_of_int (String.length payload));
  ( open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path,
    String.length payload )

let checkpoint t =
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
        ~header_bytes:j.header_bytes
    in
    j.oc <- oc;
    j.events_since_snapshot <- 0;
    j.snapshots_since_compact <- 0;
    j.disk_bytes <- bytes

(* Frame [record] into the group buffer via the journal's reusable
   scratch (the hot path appends thousands of records; a fresh staging
   buffer per record is measurable allocator traffic). *)
let add_framed j record =
  Buffer.clear j.scratch;
  B.emit_record j.scratch record;
  B.add_frame j.group (Buffer.contents j.scratch)

(* The fast path for a periodic checkpoint: the snapshot is just another
   framed record riding the group buffer — one buffered write through the
   usual append fault sites instead of a rewrite + rename of the whole
   file.  The scanner keeps only the latest snapshot, so the earlier ones
   become dead weight that the next compaction (every
   [compact_after_snapshots]th checkpoint, any explicit {!checkpoint}, or
   {!restore}) sweeps out. *)
let append_snapshot t j =
  add_framed j (B.Snapshot (snapshot_of t));
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
    add_framed j
      (B.Event
         {
           B.e_worker = w;
           e_degraded = d.degraded;
           e_assigned = d.assigned;
           e_answered = d.answered;
         });
    j.pending <- j.pending + 1;
    j.events_since_snapshot <- j.events_since_snapshot + 1;
    if j.pending >= j.group_commit || Buffer.length j.group >= max_group_bytes
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

let check_deadline d =
  Ltc_algo.Engine.check_budget "Session" d.budget_s;
  check_online d.fallback "as a deadline fallback"

let make_session ~instance ~algorithm ~seed ~accept_rate ~deadline
    ~on_decision ~policy_rng ~noshow_rng ~progress ~arrangement ~consumed =
  let policy = policy_of algorithm "an arrival stream" in
  Option.iter check_deadline deadline;
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
          tracker = None;
          degrade;
        }
      ~site:"session.decide" ~progress ~arrangement ~consumed
      ~name:algorithm.Ltc_algo.Algorithm.name (policy policy_rng) instance
  in
  let m_feed, m_bytes, m_snapshots, m_retries =
    service_metrics algorithm.Ltc_algo.Algorithm.name
  in
  {
    instance;
    algorithm;
    seed;
    accept_rate;
    deadline;
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
    feed_hdr = Ltc_util.Metrics.Hdr.create ();
  }

let check_options ?accept_rate ?deadline ~checkpoint_every ~group_commit
    algorithm =
  Option.iter (Ltc_algo.Engine.check_accept_rate "Session.create") accept_rate;
  if checkpoint_every < 1 then
    invalid_arg "Session.create: checkpoint_every must be >= 1";
  if group_commit < 1 then
    invalid_arg "Session.create: group_commit must be >= 1";
  check_online algorithm "an arrival stream";
  Option.iter check_deadline deadline

(* A journal appending through [oc] to a file of [disk_bytes] bytes that
   starts with [header_bytes]. *)
let open_journal ~path ~oc ~checkpoint_every ~fsync ~group_commit
    ~header_bytes ~disk_bytes =
  {
    path;
    oc;
    events_since_snapshot = 0;
    checkpoint_every;
    fsync_on_commit = fsync;
    group_commit;
    group = Buffer.create 4096;
    scratch = Buffer.create 256;
    pending = 0;
    disk_bytes;
    snapshots_since_compact = 0;
    header_bytes;
  }

let attach_journal t ~path ~checkpoint_every ~fsync ~group_commit =
  let oc = open_out_bin path in
  let buf = Buffer.create 1024 in
  write_header (Buffer.add_string buf) (header_of t ~checkpoint_every);
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
      (open_journal ~path ~oc ~checkpoint_every ~fsync ~group_commit
         ~header_bytes ~disk_bytes);
  Ltc_util.Metrics.Gauge.set t.m_bytes (float_of_int disk_bytes)

let create ?accept_rate ?deadline ?(on_decision = fun _ -> ()) ?journal
    ?(checkpoint_every = 256) ?(fsync = false) ?(format = Binary)
    ?(group_commit = 1) ~algorithm ~seed instance =
  if format = Text then
    invalid_arg
      "Session.create: the text journal codec is read-only (restore or \
       convert old text journals; new journals are binary)";
  check_options ?accept_rate ?deadline ~checkpoint_every ~group_commit
    algorithm;
  let instance = strip_workers instance in
  let policy_rng, noshow_rng = derive_rngs ~seed in
  let progress =
    Progress.create_per_task ~thresholds:(Instance.thresholds instance) ()
  in
  let t =
    make_session ~instance ~algorithm ~seed ~accept_rate ~deadline
      ~on_decision ~policy_rng ~noshow_rng ~progress
      ~arrangement:Arrangement.empty ~consumed:0
  in
  (match journal with
  | None -> ()
  | Some path ->
    attach_journal t ~path ~checkpoint_every ~fsync ~group_commit);
  t

(* ----------------------------------------------------------------- feed *)

let completed t = Progress.all_complete (Ltc_algo.Engine.progress t.engine)
let consumed t = Ltc_algo.Engine.consumed t.engine
let arrangement t = Ltc_algo.Engine.arrangement t.engine
let latency t = Arrangement.latency (arrangement t)
let algorithm_name t = t.algorithm.Ltc_algo.Algorithm.name
let degraded_total t = Ltc_algo.Engine.degraded t.engine

let rng_states t =
  (Ltc_util.Rng.state t.policy_rng, Ltc_util.Rng.state t.noshow_rng)

let feed_hdr t = t.feed_hdr

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
    let clock0 = Fault.Clock.now_s () in
    let d = Ltc_algo.Engine.step ?forced:replay t.engine w in
    (* Replays re-run decisions outside their original timeline, so only
       live arrivals contribute quantile samples. *)
    if replay = None then
      Ltc_util.Metrics.Hdr.observe t.feed_hdr
        (Float.max 0.0 (Fault.Clock.now_s () -. clock0));
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

let parse_header ~path src =
  let line_no () = Serialize.line_number src in
  let expect what =
    match Serialize.next_line_opt src with
    | Some line -> line
    | None -> corrupt ~path "truncated header: expected %s" what
  in
  let version =
    match expect "the journal magic" with
    | "ltc-journal v1" -> 1
    | "ltc-journal v2" -> 2
    | "ltc-journal v3" -> 3
    | other -> corrupt ~path "bad journal header %S" other
  in
  let h_codec =
    (* v1/v2 predate the codec line and are implicitly text; v3 names
       its codec right after the magic. *)
    if version < 3 then Text
    else
      match Serialize.fields (expect "a codec line") with
      | [ "codec"; "text" ] -> Text
      | [ "codec"; "binary" ] -> Binary
      | _ ->
        corrupt ~path "line %d: expected 'codec text|binary'" (line_no ())
  in
  let h_algorithm =
    match Serialize.fields (expect "an algorithm line") with
    | [ "algorithm"; name ] -> name
    | _ -> corrupt ~path "line %d: expected 'algorithm <name>'" (line_no ())
  in
  let h_seed =
    match Serialize.fields (expect "a seed line") with
    | [ "seed"; s ] -> Serialize.int_field src s
    | _ -> corrupt ~path "line %d: expected 'seed <int>'" (line_no ())
  in
  let h_accept_rate =
    match Serialize.fields (expect "an accept_rate line") with
    | [ "accept_rate"; "none" ] -> None
    | [ "accept_rate"; q ] -> Some (Serialize.float_field src q)
    | _ ->
      corrupt ~path "line %d: expected 'accept_rate none|<float>'" (line_no ())
  in
  let h_checkpoint_every =
    match Serialize.fields (expect "a checkpoint_every line") with
    | [ "checkpoint_every"; n ] -> Serialize.int_field src n
    | _ ->
      corrupt ~path "line %d: expected 'checkpoint_every <int>'" (line_no ())
  in
  let h_deadline =
    (* v1 journals predate deadlines; their sessions never degrade. *)
    if version < 2 then None
    else
      match Serialize.fields (expect "a deadline line") with
      | [ "deadline"; "none" ] -> None
      | [ "deadline"; budget; fallback ] ->
        Some (Serialize.float_field src budget, fallback)
      | _ ->
        corrupt ~path "line %d: expected 'deadline none|<float> <name>'"
          (line_no ())
  in
  let h_instance = Serialize.parse_instance src in
  {
    h_version = version;
    h_codec;
    h_algorithm;
    h_seed;
    h_accept_rate;
    h_checkpoint_every;
    h_deadline;
    h_instance;
  }

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
  { B.s_consumed; s_policy; s_noshow; s_progress; s_arrangement }

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

(* A complete record the scan found, with the byte offset of its start.
   [record] is [None] for a binary record a later snapshot supersedes:
   checked, never built. *)
type item = { kind : B.kind; offset : int; record : B.record option }

let built record offset =
  let kind =
    match record with
    | B.Event _ -> B.Event_record
    | B.Snapshot _ -> B.Snapshot_record
  in
  { kind; offset; record = Some record }

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
             items := built (B.Snapshot s) offset :: !items
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
                     offset
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

(* Same pass over a binary journal body: framed records streamed straight
   off the channel, no line splitting.  The CRC does the triage work the
   text scanner gets from its record grammar — an incomplete frame can
   only sit at end of file ([B.Torn]: expected crash damage, dropped),
   while a complete frame with wrong bytes, or a CRC-valid frame that
   fails to decode, is interior corruption wherever it sits.

   Every frame is CRC-checked and its payload checked in file order, so
   damage anywhere is reported where it is met.  Only the latest snapshot
   and the events after it are then built (every record with [~all]):
   each earlier snapshot and event is superseded, and building it would
   be thrown away. *)
let scan_binary ~path ~all ic =
  let superseded = ref [] in  (* checked only, newest first *)
  let live = ref [] in  (* (kind, payload, offset) since the latest snapshot *)
  let records = ref 0 in
  let torn_at = ref None in
  let continue = ref true in
  while !continue do
    let offset = pos_in ic in
    match B.input_frame ic with
    | B.Eof -> continue := false
    | B.Torn ->
      torn_at := Some offset;
      continue := false
    | B.Invalid reason ->
      corrupt ~path
        "corrupted record %d at byte %d: %s — refusing to drop acknowledged \
         state"
        (!records + 1) offset reason
    | B.Frame payload -> (
      incr records;
      match B.check_payload payload with
      | kind ->
        if kind = B.Snapshot_record && not all then begin
          superseded :=
            List.rev_append
              (List.rev_map
                 (fun (kind, _, offset) -> { kind; offset; record = None })
                 !live)
              !superseded;
          live := []
        end;
        live := (kind, payload, offset) :: !live
      | exception Serialize.Parse_error { message; _ } ->
        corrupt ~path
          "corrupted record %d at byte %d: CRC-valid frame fails to decode \
           (%s)"
          !records offset message)
  done;
  let kept =
    List.rev_map
      (fun (kind, payload, offset) ->
        { kind; offset; record = Some (B.record_of_payload payload) })
      !live
  in
  (List.rev_append !superseded kept, !torn_at)

(* [src] must wrap [ic]: the text scanner consumes lines through it, the
   binary scanner picks up the raw channel exactly where the (always
   line-oriented) header parse left it. *)
let scan_items ~path ~all ~codec ic src =
  match codec with
  | Text -> scan_text ~path src
  | Binary -> scan_binary ~path ~all ic

(* Latest snapshot wins; events after it form the replay tail. *)
let collapse items =
  let best, tail_rev =
    List.fold_left
      (fun (best, tail) item ->
        match item.record with
        | Some (B.Snapshot s) -> (Some s, [])
        | Some (B.Event e) -> (best, e :: tail)
        | None -> (best, tail))
      (None, []) items
  in
  (best, List.rev tail_rev)

let is_empty_journal path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> in_channel_length ic = 0)

(* The header the compacted journal starts with.  A v3 binary header is
   kept as the file has it (its first [header_end] bytes): %.17g
   round-trips, so these are the bytes [write_header] would render,
   without rendering thousands of floats again.  Any other header is
   rendered as v3 binary: a text journal's (which the compaction thereby
   upgrades), a [checkpoint_every] below 1, or one torn inside its last
   line, which still parses. *)
let compacted_header ic ~header_end (h : header) =
  let kept =
    if h.h_codec = Binary && h.h_checkpoint_every >= 1 then begin
      seek_in ic 0;
      let bytes = really_input_string ic header_end in
      if String.ends_with ~suffix:"\n" bytes then Some bytes else None
    end
    else None
  in
  match kept with
  | Some bytes -> bytes
  | None ->
    let buf = Buffer.create 1024 in
    write_header (Buffer.add_string buf)
      { h with h_checkpoint_every = max 1 h.h_checkpoint_every };
    Buffer.contents buf

let restore ?(on_decision = fun _ -> ()) ?journal ?(fsync = false)
    ?(group_commit = 1) ~path () =
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
  let header, header_bytes, snapshot, tail =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let src = Serialize.source_of_channel ic in
        let header =
          try parse_header ~path src
          with Serialize.Parse_error { line; message } ->
            corrupt ~path "line %d: %s" line message
        in
        let header_end = pos_in ic in
        let items, _torn_at =
          scan_items ~path ~all:false ~codec:header.h_codec ic src
        in
        let snapshot, tail = collapse items in
        (header, compacted_header ic ~header_end header, snapshot, tail))
  in
  let algorithm =
    match Ltc_algo.Algorithm.find_opt header.h_algorithm with
    | Some a -> a
    | None -> corrupt ~path "unknown algorithm %S" header.h_algorithm
  in
  let deadline =
    Option.map
      (fun (budget_s, name) ->
        match Ltc_algo.Algorithm.find_opt name with
        | Some fallback -> { budget_s; fallback }
        | None -> corrupt ~path "unknown fallback algorithm %S" name)
      header.h_deadline
  in
  (if deadline = None then
     match List.find_opt (fun (e : B.event) -> e.B.e_degraded) tail with
     | Some e ->
       let w : Worker.t = e.B.e_worker in
       corrupt ~path
         "arrival %d was decided by a deadline fallback but the header \
          configures no deadline"
         w.index
     | None -> ());
  let instance = header.h_instance in
  let policy_rng, noshow_rng, progress, arrangement, consumed =
    match snapshot with
    | None ->
      let policy_rng, noshow_rng = derive_rngs ~seed:header.h_seed in
      let progress =
        Progress.create_per_task ~thresholds:(Instance.thresholds instance) ()
      in
      (policy_rng, noshow_rng, progress, Arrangement.empty, 0)
    | Some s ->
      if Progress.n_tasks s.B.s_progress <> Instance.task_count instance then
        corrupt ~path "snapshot progress does not match the instance";
      ( Ltc_util.Rng.of_state s.B.s_policy,
        Ltc_util.Rng.of_state s.B.s_noshow,
        s.B.s_progress,
        s.B.s_arrangement,
        s.B.s_consumed )
  in
  let t =
    try
      make_session ~instance ~algorithm ~seed:header.h_seed
        ~accept_rate:header.h_accept_rate ~deadline ~on_decision ~policy_rng
        ~noshow_rng ~progress ~arrangement ~consumed
    with Invalid_argument m -> corrupt ~path "%s" m
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
     and a text source comes out as v3 binary. *)
  let oc, disk_bytes =
    Ltc_util.Trace.with_span "service:checkpoint" @@ fun () ->
    compact t ~path:journal_path ~fsync ~header_bytes
  in
  t.journal <-
    Some
      (open_journal ~path:journal_path ~oc
         ~checkpoint_every:(max 1 header.h_checkpoint_every)
         ~fsync ~group_commit:(max 1 group_commit) ~header_bytes ~disk_bytes);
  t

(* ------------------------------------------------ offline journal tools *)

module Journal = struct
  type info = {
    version : int;
    codec : codec;
    algorithm : string;
    seed : int;
    accept_rate : float option;
    checkpoint_every : int;
    deadline : (float * string) option;
    tasks : int;
    file_bytes : int;
    torn_bytes : int;
    snapshots : int;
    events : int;
    consumed : int;
    snapshot_offsets : int list;
  }

  (* Header + every complete record in file order (offsets attached):
     all of them built with [~all:true], else only what restore builds.
     Shares the restore scanners, so torn tails are dropped and interior
     corruption raises {!Corrupt_journal} with the same diagnostics. *)
  let read ~all ~path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let src = Serialize.source_of_channel ic in
        let header =
          try parse_header ~path src
          with Serialize.Parse_error { line; message } ->
            corrupt ~path "line %d: %s" line message
        in
        let items, torn_at =
          scan_items ~path ~all ~codec:header.h_codec ic src
        in
        (header, items, torn_at))

  let inspect ~path =
    let header, items, torn_at = read ~all:false ~path in
    let file_bytes =
      In_channel.with_open_bin path (fun ic -> in_channel_length ic)
    in
    let snapshots, events, offsets_rev =
      List.fold_left
        (fun (s, e, offs) item ->
          match item.kind with
          | B.Snapshot_record -> (s + 1, e, item.offset :: offs)
          | B.Event_record -> (s, e + 1, offs))
        (0, 0, []) items
    in
    let best, tail = collapse items in
    let consumed =
      (match best with Some s -> s.B.s_consumed | None -> 0)
      + List.length tail
    in
    {
      version = header.h_version;
      codec = header.h_codec;
      algorithm = header.h_algorithm;
      seed = header.h_seed;
      accept_rate = header.h_accept_rate;
      checkpoint_every = header.h_checkpoint_every;
      deadline = header.h_deadline;
      tasks = Instance.task_count header.h_instance;
      file_bytes;
      torn_bytes =
        (match torn_at with None -> 0 | Some off -> file_bytes - off);
      snapshots;
      events;
      consumed;
      snapshot_offsets = List.rev offsets_rev;
    }

  (* Record-level transcoding to binary: every complete record re-encoded,
     order and content preserved — so restore from the converted file
     replays the exact same snapshot + tail and lands on the same
     fingerprint.  A torn tail (already lost to the crash) is not carried
     over; the header is rendered at the current version. *)
  let convert ~src ~dst =
    let header, items, _torn_at = read ~all:true ~path:src in
    let buf = Buffer.create 65536 in
    write_header (Buffer.add_string buf) header;
    List.iter
      (fun item -> Option.iter (B.add_record_frame buf) item.record)
      items;
    Out_channel.with_open_bin dst (fun oc ->
        Out_channel.output_string oc (Buffer.contents buf))
end
