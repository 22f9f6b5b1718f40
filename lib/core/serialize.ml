exception Parse_error of { line : int; message : string }

let parse_error ~line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

let fp = Printf.sprintf "%.17g"

type sink = string -> unit

(* ------------------------------------------------------------- writing *)

(* All writers emit through a string sink so channels and buffers share the
   same code path. *)
let emit_instance sink (instance : Instance.t) =
  let pf fmt = Printf.ksprintf sink fmt in
  pf "ltc-instance v1\n";
  pf "epsilon %s\n" (fp instance.epsilon);
  (match instance.accuracy with
  | Accuracy.Sigmoid { dmax } -> pf "accuracy sigmoid %s\n" (fp dmax)
  | Accuracy.Historical -> pf "accuracy historical\n"
  | Accuracy.Custom { name; _ } ->
    invalid_arg
      (Printf.sprintf
         "Serialize: custom accuracy model %S cannot be saved" name));
  (match instance.scoring with
  | Quality.Hoeffding -> pf "scoring hoeffding\n"
  | Quality.Sum_accuracy { threshold } ->
    pf "scoring sum_accuracy %s\n" (fp threshold));
  (match instance.candidate_radius with
  | None -> pf "radius none\n"
  | Some r -> pf "radius %s\n" (fp r));
  pf "tasks %d\n" (Array.length instance.tasks);
  Array.iter
    (fun (task : Task.t) ->
      match task.epsilon with
      | None ->
        pf "t %d %s %s\n" task.id
          (fp task.loc.Ltc_geo.Point.x)
          (fp task.loc.Ltc_geo.Point.y)
      | Some e ->
        pf "t %d %s %s %s\n" task.id
          (fp task.loc.Ltc_geo.Point.x)
          (fp task.loc.Ltc_geo.Point.y)
          (fp e))
    instance.tasks;
  pf "workers %d\n" (Array.length instance.workers);
  Array.iter
    (fun (w : Worker.t) ->
      pf "w %d %s %s %s %d\n" w.index
        (fp w.loc.Ltc_geo.Point.x)
        (fp w.loc.Ltc_geo.Point.y)
        (fp w.accuracy) w.capacity)
    instance.workers

let emit_arrangement sink arrangement =
  let pf fmt = Printf.ksprintf sink fmt in
  pf "ltc-arrangement v1\n";
  pf "assignments %d\n" (Arrangement.size arrangement);
  List.iter
    (fun (a : Arrangement.assignment) -> pf "a %d %d\n" a.worker a.task)
    (Arrangement.to_list arrangement)

let write_instance oc instance = emit_instance (output_string oc) instance
let write_arrangement oc a = emit_arrangement (output_string oc) a

(* ------------------------------------------------------------- reading *)

(* A source of significant lines (comments and blanks stripped), tracking
   line numbers and byte offsets for error reporting.  [next_raw] returns
   each raw line together with the byte offset of its first character, so
   consumers embedded in binary-ish streams (the service journal) can
   report corruption positions exactly. *)
type source = {
  next_raw : unit -> (string * int) option;
  mutable line_no : int;
  mutable line_offset : int;
}

let source_of_channel ic =
  let next_raw () =
    let off = pos_in ic in
    Option.map (fun l -> (l, off)) (In_channel.input_line ic)
  in
  { next_raw; line_no = 0; line_offset = 0 }

let source_of_string s =
  let lines = ref (String.split_on_char '\n' s) in
  let offset = ref 0 in
  let next_raw () =
    match !lines with
    | [] -> None
    | l :: rest ->
      lines := rest;
      let off = !offset in
      offset := off + String.length l + 1;
      Some (l, off)
  in
  { next_raw; line_no = 0; line_offset = 0 }

let rec next_line_opt src =
  match src.next_raw () with
  | None -> None
  | Some (line, offset) ->
    src.line_no <- src.line_no + 1;
    src.line_offset <- offset;
    let line =
      match String.index_opt line '#' with
      | None -> line
      | Some i -> String.sub line 0 i
    in
    let line = String.trim line in
    if line = "" then next_line_opt src else Some line

let next_line src =
  match next_line_opt src with
  | None -> parse_error ~line:src.line_no "unexpected end of input"
  | Some line -> line

let line_number src = src.line_no
let line_offset src = src.line_offset

let fields line = String.split_on_char ' ' line |> List.filter (( <> ) "")

(* Every float in these formats (coordinates, epsilon, dmax, radius,
   accuracies, thresholds, scores, rates) is finite; [float_of_string]
   also takes "nan" and "inf", which no later check would catch. *)
let float_field src s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> f
  | Some _ -> parse_error ~line:src.line_no "expected a finite float, got %S" s
  | None -> parse_error ~line:src.line_no "expected a float, got %S" s

let int_field src s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> parse_error ~line:src.line_no "expected an integer, got %S" s

let parse_instance src =
  (match next_line src with
  | "ltc-instance v1" -> ()
  | other -> parse_error ~line:src.line_no "bad header %S" other);
  let epsilon =
    match fields (next_line src) with
    | [ "epsilon"; e ] -> float_field src e
    | _ -> parse_error ~line:src.line_no "expected 'epsilon <float>'"
  in
  let accuracy =
    match fields (next_line src) with
    | [ "accuracy"; "sigmoid"; dmax ] ->
      Accuracy.Sigmoid { dmax = float_field src dmax }
    | [ "accuracy"; "historical" ] -> Accuracy.Historical
    | _ -> parse_error ~line:src.line_no "expected an accuracy line"
  in
  let scoring =
    match fields (next_line src) with
    | [ "scoring"; "hoeffding" ] -> Quality.Hoeffding
    | [ "scoring"; "sum_accuracy"; t ] ->
      Quality.Sum_accuracy { threshold = float_field src t }
    | _ -> parse_error ~line:src.line_no "expected a scoring line"
  in
  let radius =
    match fields (next_line src) with
    | [ "radius"; "none" ] -> None
    | [ "radius"; x ] -> Some (float_field src x)
    | _ -> parse_error ~line:src.line_no "expected a radius line"
  in
  let n_tasks =
    match fields (next_line src) with
    | [ "tasks"; n ] -> int_field src n
    | _ -> parse_error ~line:src.line_no "expected 'tasks <count>'"
  in
  let tasks =
    Array.init n_tasks (fun _ ->
        match fields (next_line src) with
        | [ "t"; id; x; y ] ->
          Task.make ~id:(int_field src id)
            ~loc:(Ltc_geo.Point.make ~x:(float_field src x) ~y:(float_field src y))
            ()
        | [ "t"; id; x; y; eps ] ->
          Task.make
            ~epsilon:(float_field src eps)
            ~id:(int_field src id)
            ~loc:(Ltc_geo.Point.make ~x:(float_field src x) ~y:(float_field src y))
            ()
        | _ -> parse_error ~line:src.line_no "expected a task line")
  in
  let n_workers =
    match fields (next_line src) with
    | [ "workers"; n ] -> int_field src n
    | _ -> parse_error ~line:src.line_no "expected 'workers <count>'"
  in
  let workers =
    Array.init n_workers (fun _ ->
        match fields (next_line src) with
        | [ "w"; index; x; y; accuracy; capacity ] ->
          Worker.make ~index:(int_field src index)
            ~loc:(Ltc_geo.Point.make ~x:(float_field src x) ~y:(float_field src y))
            ~accuracy:(float_field src accuracy)
            ~capacity:(int_field src capacity)
        | _ -> parse_error ~line:src.line_no "expected a worker line")
  in
  Instance.create ~accuracy ~scoring ~candidate_radius:radius ~tasks ~workers
    ~epsilon ()

let parse_arrangement src =
  (match next_line src with
  | "ltc-arrangement v1" -> ()
  | other -> parse_error ~line:src.line_no "bad header %S" other);
  let n =
    match fields (next_line src) with
    | [ "assignments"; n ] -> int_field src n
    | _ -> parse_error ~line:src.line_no "expected 'assignments <count>'"
  in
  let arrangement = ref Arrangement.empty in
  for _ = 1 to n do
    match fields (next_line src) with
    | [ "a"; worker; task ] ->
      arrangement :=
        Arrangement.add !arrangement ~worker:(int_field src worker)
          ~task:(int_field src task)
    | _ -> parse_error ~line:src.line_no "expected an assignment line"
  done;
  !arrangement

let read_instance ic = parse_instance (source_of_channel ic)
let read_arrangement ic = parse_arrangement (source_of_channel ic)

(* ------------------------------------------------------------- helpers *)

let with_file_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let with_file_in path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

let save_instance ~path instance =
  with_file_out path (fun oc -> write_instance oc instance)

let load_instance ~path = with_file_in path read_instance

let save_arrangement ~path arrangement =
  with_file_out path (fun oc -> write_arrangement oc arrangement)

let load_arrangement ~path = with_file_in path read_arrangement

let to_string_with emit x =
  let buf = Buffer.create 4096 in
  emit (Buffer.add_string buf) x;
  Buffer.contents buf

let instance_to_string instance = to_string_with emit_instance instance
let instance_of_string s = parse_instance (source_of_string s)
let arrangement_to_string a = to_string_with emit_arrangement a
let arrangement_of_string s = parse_arrangement (source_of_string s)

(* ---------------------------------------------------- snapshot payloads *)

(* The progress block old text journals embed in each snapshot, read
   back when the service imports one.  Its floats were written with the
   same round-trip precision as instances, so a restored tracker answers
   [sum_remaining]/[max_remaining] bit-identically. *)

let parse_progress src =
  (match next_line src with
  | "ltc-progress v1" -> ()
  | other -> parse_error ~line:src.line_no "bad header %S" other);
  let n =
    match fields (next_line src) with
    | [ "tasks"; n ] -> int_field src n
    | _ -> parse_error ~line:src.line_no "expected 'tasks <count>'"
  in
  let sum_remaining =
    match fields (next_line src) with
    | [ "sum_remaining"; x ] -> float_field src x
    | _ -> parse_error ~line:src.line_no "expected 'sum_remaining <float>'"
  in
  let thresholds = Array.make n 0.0 in
  let scores = Array.make n 0.0 in
  for task = 0 to n - 1 do
    match fields (next_line src) with
    | [ "p"; threshold; score ] ->
      thresholds.(task) <- float_field src threshold;
      scores.(task) <- float_field src score
    | _ -> parse_error ~line:src.line_no "expected a progress line"
  done;
  match Progress.of_snapshot { Progress.thresholds; scores; sum_remaining } with
  | progress -> progress
  | exception Invalid_argument message ->
    parse_error ~line:src.line_no "invalid progress snapshot: %s" message

let progress_of_string s = parse_progress (source_of_string s)

(* --------------------------------------------------------- binary codec *)

module Binary = struct
  (* CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the same
     checksum gzip and PNG use — computed slicing-by-8: eight derived
     tables let one loop iteration fold eight input bytes, and the state
     lives in a native [int] (every intermediate fits in 32 bits, so
     63-bit arithmetic agrees with the 32-bit definition) rather than a
     boxed [Int32].  Snapshot-sized payloads made the naive
     byte-at-a-time version the single hottest spot on the journal
     commit path.  The tables are built at start-up, not lazily: shard
     domains compute their first CRCs at the same time, and forcing one
     lazy value from two domains at once raises
     [CamlinternalLazy.Undefined]. *)
  let crc_tables =
    let t = Array.make_matrix 8 256 0 in
    for n = 0 to 255 do
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      t.(0).(n) <- !c
    done;
    (* t.(k) advances a byte through the CRC k extra positions:
       t.(k).(n) = crc-shift-by-one-byte of t.(k-1).(n). *)
    for k = 1 to 7 do
      for n = 0 to 255 do
        let p = t.(k - 1).(n) in
        t.(k).(n) <- (p lsr 8) lxor t.(0).(p land 0xff)
      done
    done;
    t

  let crc32 s =
    let t = crc_tables in
    let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3)
    and t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
    let byte k = Char.code (String.unsafe_get s k) in
    let len = String.length s in
    let c = ref 0xFFFFFFFF in
    let i = ref 0 in
    while !i + 8 <= len do
      let k = !i in
      let lo =
        !c
        lxor (byte k
              lor (byte (k + 1) lsl 8)
              lor (byte (k + 2) lsl 16)
              lor (byte (k + 3) lsl 24))
      in
      let hi =
        byte (k + 4)
        lor (byte (k + 5) lsl 8)
        lor (byte (k + 6) lsl 16)
        lor (byte (k + 7) lsl 24)
      in
      c :=
        Array.unsafe_get t7 (lo land 0xff)
        lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
        lxor Array.unsafe_get t5 ((lo lsr 16) land 0xff)
        lxor Array.unsafe_get t4 ((lo lsr 24) land 0xff)
        lxor Array.unsafe_get t3 (hi land 0xff)
        lxor Array.unsafe_get t2 ((hi lsr 8) land 0xff)
        lxor Array.unsafe_get t1 ((hi lsr 16) land 0xff)
        lxor Array.unsafe_get t0 ((hi lsr 24) land 0xff);
      i := k + 8
    done;
    while !i < len do
      c := Array.unsafe_get t0 ((!c lxor byte !i) land 0xff) lxor (!c lsr 8);
      incr i
    done;
    Int32.of_int (lnot !c land 0xFFFFFFFF)

  (* ------------------------------------------------------- primitives *)

  (* Binary decode errors reuse Parse_error with line 0: framing has
     already located the record by byte offset, so the line field carries
     no information here. *)
  let bin_error fmt = parse_error ~line:0 fmt

  let add_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

  (* Unsigned LEB128; every integer in a journal record (indices, counts,
     capacities, task ids) is non-negative. *)
  let add_varint buf n =
    if n < 0 then invalid_arg "Serialize.Binary.add_varint: negative";
    let rec go n =
      if n < 0x80 then Buffer.add_char buf (Char.chr n)
      else begin
        Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
        go (n lsr 7)
      end
    in
    go n

  let add_f64 buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)
  let add_i64 buf n = Buffer.add_int64_le buf n

  type cursor = { data : string; mutable pos : int }

  let cursor data = { data; pos = 0 }
  let at_end c = c.pos >= String.length c.data

  let u8 c =
    if at_end c then bin_error "unexpected end of binary payload";
    let b = Char.code c.data.[c.pos] in
    c.pos <- c.pos + 1;
    b

  (* A top-level loop, not a local closure over [c] (allocated on every
     call): a snapshot holds two varints per assignment, tens of
     thousands of them. *)
  let rec varint_from c shift acc =
    if shift > 62 then bin_error "varint overflows the integer range";
    let b = u8 c in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint_from c (shift + 7) acc

  let varint c = varint_from c 0 0

  let i64 c =
    if c.pos + 8 > String.length c.data then
      bin_error "unexpected end of binary payload";
    let v = String.get_int64_le c.data c.pos in
    c.pos <- c.pos + 8;
    v

  let f64 c = Int64.float_of_bits (i64 c)

  (* ---------------------------------------------------------- records *)

  type event = {
    e_worker : Worker.t;
    e_degraded : bool;
    e_assigned : int list;
    e_answered : int list;
  }

  type snapshot = {
    s_consumed : int;
    s_policy : int64;
    s_noshow : int64;
    s_progress : Progress.t;
    s_arrangement : Arrangement.t option;
  }

  type record = Event of event | Snapshot of snapshot

  let tag_event = Char.code 'E'
  let tag_snapshot = Char.code 'S'
  let tag_partial = Char.code 'P'

  let add_int_list buf l =
    add_varint buf (List.length l);
    List.iter (add_varint buf) l

  let read_int_list ~build c =
    let n = varint c in
    if n > String.length c.data then
      bin_error "list length %d exceeds the payload" n;
    if build then List.init n (fun _ -> varint c)
    else begin
      for _ = 1 to n do
        ignore (varint c)
      done;
      []
    end

  let skip c len =
    if c.pos + len > String.length c.data then
      bin_error "unexpected end of binary payload";
    c.pos <- c.pos + len

  let f64_at data pos = Int64.float_of_bits (String.get_int64_le data pos)

  let emit_record buf = function
    | Event e ->
      let w = e.e_worker in
      add_u8 buf tag_event;
      add_varint buf w.Worker.index;
      add_f64 buf w.Worker.loc.Ltc_geo.Point.x;
      add_f64 buf w.Worker.loc.Ltc_geo.Point.y;
      add_f64 buf w.Worker.accuracy;
      add_varint buf w.Worker.capacity;
      add_u8 buf (if e.e_degraded then 1 else 0);
      add_int_list buf e.e_assigned;
      add_int_list buf e.e_answered
    | Snapshot s ->
      add_u8 buf
        (if Option.is_some s.s_arrangement then tag_snapshot else tag_partial);
      add_varint buf s.s_consumed;
      add_i64 buf s.s_policy;
      add_i64 buf s.s_noshow;
      let snap = Progress.snapshot s.s_progress in
      let n = Array.length snap.Progress.thresholds in
      add_varint buf n;
      add_f64 buf snap.Progress.sum_remaining;
      for task = 0 to n - 1 do
        add_f64 buf snap.Progress.thresholds.(task);
        add_f64 buf snap.Progress.scores.(task)
      done;
      Option.iter
        (fun arrangement ->
          add_varint buf (Arrangement.size arrangement);
          List.iter
            (fun (a : Arrangement.assignment) ->
              add_varint buf a.Arrangement.worker;
              add_varint buf a.Arrangement.task)
            (Arrangement.to_list arrangement))
        s.s_arrangement

  (* The one record grammar.  A partial snapshot ('P') is a full one
     ('S') without the arrangement section.  [~build:false] walks the
     same bytes under the same rules (tag, varints, list bounds,
     [Worker.make]'s rules, [Progress.check_snapshot], trailing bytes)
     and fails with the same message at the same byte, but builds no
     list, [Progress.t] or [Arrangement.t]; it returns [None].  Restore
     checks the records a later snapshot supersedes this way. *)
  let decode ~build payload =
    let c = cursor payload in
    let record =
      match u8 c with
      | tag when tag = tag_event ->
        let index = varint c in
        let x = f64 c in
        let y = f64 c in
        let accuracy = f64 c in
        let capacity = varint c in
        let e_degraded =
          match u8 c with
          | 0 -> false
          | 1 -> true
          | b -> bin_error "bad degraded flag byte 0x%02x" b
        in
        let e_assigned = read_int_list ~build c in
        let e_answered = read_int_list ~build c in
        let e_worker =
          try
            Worker.make ~index
              ~loc:(Ltc_geo.Point.make ~x ~y)
              ~accuracy ~capacity
          with Invalid_argument m -> bin_error "invalid worker: %s" m
        in
        if build then
          Some (Event { e_worker; e_degraded; e_assigned; e_answered })
        else None
      | tag when tag = tag_snapshot || tag = tag_partial ->
        let s_consumed = varint c in
        let s_policy = i64 c in
        let s_noshow = i64 c in
        let n = varint c in
        if n > String.length payload then
          bin_error "snapshot task count %d exceeds the payload" n;
        let sum_remaining = f64 c in
        (* The (threshold, score) pairs, read in place: pair [task] sits
           at [base + 16 task]. *)
        let base = c.pos in
        skip c (16 * n);
        let threshold task = f64_at payload (base + (16 * task)) in
        let score task = f64_at payload (base + (16 * task) + 8) in
        let s_progress =
          match
            if build then
              Some
                (Progress.of_snapshot
                   {
                     Progress.thresholds = Array.init n threshold;
                     scores = Array.init n score;
                     sum_remaining;
                   })
            else begin
              Progress.check_snapshot ~n ~threshold ~score ~sum_remaining;
              None
            end
          with
          | p -> p
          | exception Invalid_argument m ->
            bin_error "invalid progress snapshot: %s" m
        in
        let s_arrangement =
          if tag = tag_partial then None
          else begin
            let n_assignments = varint c in
            if n_assignments > String.length payload then
              bin_error "assignment count %d exceeds the payload"
                n_assignments;
            let arrangement = ref Arrangement.empty in
            for _ = 1 to n_assignments do
              let worker = varint c in
              let task = varint c in
              if build then
                arrangement := Arrangement.add !arrangement ~worker ~task
            done;
            Some !arrangement
          end
        in
        Option.map
          (fun s_progress ->
            Snapshot
              { s_consumed; s_policy; s_noshow; s_progress; s_arrangement })
          s_progress
      | tag -> bin_error "unknown record tag 0x%02x" tag
    in
    if not (at_end c) then
      bin_error "%d trailing bytes after the record"
        (String.length payload - c.pos);
    record

  let record_of_payload payload = Option.get (decode ~build:true payload)

  type kind = Event_record | Snapshot_record | Partial_record

  let check_payload payload =
    ignore (decode ~build:false payload);
    (* [decode] accepted the tag byte, so it is one of the three. *)
    match Char.code payload.[0] with
    | tag when tag = tag_event -> Event_record
    | tag when tag = tag_snapshot -> Snapshot_record
    | _ -> Partial_record

  let scan_payload payload =
    if String.length payload > 0 && Char.code payload.[0] = tag_event then
      (Event_record, Some (record_of_payload payload))
    else (check_payload payload, None)

  (* ---------------------------------------------------------- framing *)

  (* Frame layout: [u32le payload length][u32le crc32(payload)][payload].
     The length prefix makes replay a streaming read with no line
     splitting; the CRC separates interior corruption (a complete frame
     whose bytes are wrong) from a torn tail (a frame the crash cut
     short, necessarily at end of file). *)

  let max_frame_bytes = 1 lsl 26 (* 64 MiB — far beyond any real record *)

  let add_frame buf payload =
    if String.length payload > max_frame_bytes then
      invalid_arg "Serialize.Binary.add_frame: payload too large";
    Buffer.add_int32_le buf (Int32.of_int (String.length payload));
    Buffer.add_int32_le buf (crc32 payload);
    Buffer.add_string buf payload

  let add_record_frame buf record =
    let scratch = Buffer.create 256 in
    emit_record scratch record;
    add_frame buf (Buffer.contents scratch)

  type frame =
    | Frame of string  (** complete, CRC-verified payload *)
    | Eof  (** clean end of input, on a frame boundary *)
    | Torn  (** incomplete frame at end of input — crash damage *)
    | Invalid of string  (** complete frame with wrong bytes — corruption *)

  (* [input ic] returns 0 only at end of file, so a short read below
     really is a torn tail, not a transient condition. *)
  let read_exact ic buf len =
    let rec go off =
      if off >= len then off
      else
        match input ic buf off (len - off) with
        | 0 -> off
        | n -> go (off + n)
    in
    go 0

  let input_frame ic =
    let header = Bytes.create 8 in
    match read_exact ic header 8 with
    | 0 -> Eof
    | n when n < 8 -> Torn
    | _ ->
      let len = Int32.to_int (Bytes.get_int32_le header 0) in
      let expected = Bytes.get_int32_le header 4 in
      if len < 0 || len > max_frame_bytes then
        Invalid (Printf.sprintf "implausible frame length %d" len)
      else begin
        let payload = Bytes.create len in
        if read_exact ic payload len < len then Torn
        else begin
          let payload = Bytes.unsafe_to_string payload in
          let actual = crc32 payload in
          if actual <> expected then
            Invalid
              (Printf.sprintf "CRC mismatch: stored %08lx, computed %08lx"
                 expected actual)
          else Frame payload
        end
      end

  let frame_of_string s pos =
    if pos >= String.length s then Eof
    else if pos + 8 > String.length s then Torn
    else
      let len = Int32.to_int (String.get_int32_le s pos) in
      let expected = String.get_int32_le s (pos + 4) in
      if len < 0 || len > max_frame_bytes then
        Invalid (Printf.sprintf "implausible frame length %d" len)
      else if pos + 8 + len > String.length s then Torn
      else
        let payload = String.sub s (pos + 8) len in
        let actual = crc32 payload in
        if actual <> expected then
          Invalid
            (Printf.sprintf "CRC mismatch: stored %08lx, computed %08lx"
               expected actual)
        else Frame payload
end
