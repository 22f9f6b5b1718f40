(* Reference journal scanners: the two-pass restore read that Session's
   one-pass scan replaced, kept as the oracle for it.  The scan lists
   every complete record in file order, tagged with its index and byte
   offset, building each event, the latest full snapshot and the latest
   partial one after it; [collapse] then walks that list a second time to
   rebuild the arrangement from the events before the partial snapshot.
   Both raise [Session.Corrupt_journal] with the messages restore and
   inspect give. *)

open Ltc_core
open Ltc_service
module B = Serialize.Binary

let corrupt ~path fmt =
  Format.kasprintf
    (fun message -> raise (Session.Corrupt_journal { path; message }))
    fmt

(* ------------------------------------------------------------- header *)

(* The version, codec and header of the journal at [path], and the
   channel positioned just past the header.  The header itself comes
   from [Session.Journal.header], so a damaged one is refused with the
   session's own message. *)
let with_journal ~path f =
  let header = Session.Journal.header ~path in
  In_channel.with_open_bin path @@ fun ic ->
  let src = Serialize.source_of_channel ic in
  let version =
    match Serialize.next_line src with
    | "ltc-journal v1" -> 1
    | "ltc-journal v2" -> 2
    | "ltc-journal v3" -> 3
    | "ltc-journal v4" -> 4
    | other -> failwith ("Restore_oracle: bad magic line " ^ other)
  in
  let key_lines =
    List.init
      ((if version >= 3 then 1 else 0) + 4 + if version >= 2 then 1 else 0)
      (fun _ -> Serialize.fields (Serialize.next_line src))
  in
  ignore (Serialize.parse_instance src);
  let codec =
    match key_lines with
    | [ "codec"; "binary" ] :: _ when version >= 3 -> Session.Binary
    | _ -> Session.Text
  in
  f ic src ~version ~codec header

(* -------------------------------------------------------- text records *)

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

(* ---------------------------------------------------------- the scans *)

(* A complete record the scan found: its number in the file (from 1) and
   the byte offset of its start.  [record] is [None] for a binary record a
   later snapshot supersedes: dropped, and never built if a snapshot. *)
type item = {
  kind : B.kind;
  index : int;
  offset : int;
  record : B.record option;
}

let built record ~index ~offset =
  let kind =
    match record with
    | B.Event _ -> B.Event_record
    | B.Snapshot _ -> B.Snapshot_record
  in
  { kind; index; offset; record = Some record }

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
             | None -> raise Torn_tail)
           | _ -> raise Torn_tail
         with
         | () -> ()
         | exception Torn_tail ->
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

(* Every frame is CRC-checked and decoded in file order; each event is
   built, each snapshot only checked and built at the end if no later
   record superseded it. *)
let scan_binary ~path ~version ic =
  let base = pos_in ic in
  let body = really_input_string ic (in_channel_length ic - base) in
  let scanned = ref [] in
  let since_base = ref [] in
  let partial = ref None in
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
      match B.check_payload body ~pos:payload ~len with
      | kind ->
        if kind = B.Partial_record && version < 4 then
          corrupt ~path
            "corrupted record %d at byte %d: a partial snapshot in a v%d \
             journal"
            !records offset version;
        let cell =
          ref (Some (lazy (B.record_of_payload body ~pos:payload ~len)))
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

let scan_items ~path ~version ~codec ic src =
  match codec with
  | Session.Text -> scan_text ~path src
  | Session.Binary -> scan_binary ~path ~version ic

(* ------------------------------------------------------------ collapse *)

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

(* ------------------------------------------------------------- entries *)

(* What restore resumes from: the header and the checkpoint and tail the
   two passes find. *)
let resume ~path =
  with_journal ~path @@ fun ic src ~version ~codec header ->
  let items, _ = scan_items ~path ~version ~codec ic src in
  ( header,
    collapse ~path ~n_tasks:(Instance.task_count header.Session.instance) items
  )

(* [Session.Journal.inspect]'s record, from the two passes. *)
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
    collapse ~path
      ~n_tasks:(Instance.task_count header.Session.instance)
      items
  in
  let consumed =
    (match checkpoint with Some (s, _) -> s.B.s_consumed | None -> 0)
    + List.length tail
  in
  {
    Session.Journal.version;
    codec;
    header;
    file_bytes;
    torn_bytes = (match torn_at with None -> 0 | Some off -> file_bytes - off);
    snapshots;
    partial_snapshots;
    events;
    consumed;
    snapshot_offsets = List.rev offsets_rev;
  }

(* The byte offset of the first record, just past the header. *)
let body_start ~path =
  with_journal ~path @@ fun ic _ ~version:_ ~codec:_ _ -> pos_in ic
