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

let count_field src s =
  match int_field src s with
  | n when n >= 0 -> n
  | n -> parse_error ~line:src.line_no "expected a count >= 0, got %d" n

(* [count] records, read in order by [read] into an array that grows as
   they arrive (exactly sized when there are at most 4096): no array is
   sized by a count the file might not back. *)
let records ~count read =
  let a = ref [||] in
  for i = 0 to count - 1 do
    let r = read () in
    if i = Array.length !a then begin
      let b = Array.make (min count (max 4096 (2 * i))) r in
      Array.blit !a 0 b 0 i;
      a := b
    end;
    !a.(i) <- r
  done;
  !a

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
    | [ "tasks"; n ] -> count_field src n
    | _ -> parse_error ~line:src.line_no "expected 'tasks <count>'"
  in
  let tasks =
    records ~count:n_tasks (fun () ->
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
    | [ "workers"; n ] -> count_field src n
    | _ -> parse_error ~line:src.line_no "expected 'workers <count>'"
  in
  let workers =
    records ~count:n_workers (fun () ->
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
    | [ "assignments"; n ] -> count_field src n
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
    | [ "tasks"; n ] -> count_field src n
    | _ -> parse_error ~line:src.line_no "expected 'tasks <count>'"
  in
  let sum_remaining =
    match fields (next_line src) with
    | [ "sum_remaining"; x ] -> float_field src x
    | _ -> parse_error ~line:src.line_no "expected 'sum_remaining <float>'"
  in
  let rows =
    records ~count:n (fun () ->
        match fields (next_line src) with
        | [ "p"; threshold; score ] ->
          let threshold = float_field src threshold in
          (threshold, float_field src score)
        | _ -> parse_error ~line:src.line_no "expected a progress line")
  in
  let thresholds = Array.map fst rows and scores = Array.map snd rows in
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

  (* The one CRC loop: bytes [pos, pos + len) of [s], as an unsigned
     32-bit [int].  Each step loads its eight bytes as one little-endian
     [int64] (unboxed: the load is a compiler primitive) and splits it
     into the two 32-bit halves the tables fold.  The frame buffer passes
     its bytes here unconverted ([Bytes.unsafe_to_string]: nothing writes
     them during the call). *)
  let crc32_range s pos len =
    let t = crc_tables in
    let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3)
    and t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
    if pos < 0 || len < 0 || pos > String.length s - len then
      invalid_arg "Serialize.Binary.crc32_range";
    let stop = pos + len in
    let c = ref 0xFFFFFFFF in
    let i = ref pos in
    while !i + 8 <= stop do
      let v = String.get_int64_le s !i in
      let lo = !c lxor (Int64.to_int v land 0xFFFFFFFF) in
      let hi = Int64.to_int (Int64.shift_right_logical v 32) in
      c :=
        Array.unsafe_get t7 (lo land 0xff)
        lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
        lxor Array.unsafe_get t5 ((lo lsr 16) land 0xff)
        lxor Array.unsafe_get t4 ((lo lsr 24) land 0xff)
        lxor Array.unsafe_get t3 (hi land 0xff)
        lxor Array.unsafe_get t2 ((hi lsr 8) land 0xff)
        lxor Array.unsafe_get t1 ((hi lsr 16) land 0xff)
        lxor Array.unsafe_get t0 ((hi lsr 24) land 0xff);
      i := !i + 8
    done;
    while !i < stop do
      let byte = Char.code (String.unsafe_get s !i) in
      c := Array.unsafe_get t0 ((!c lxor byte) land 0xff) lxor (!c lsr 8);
      incr i
    done;
    lnot !c land 0xFFFFFFFF

  let crc32 s = Int32.of_int (crc32_range s 0 (String.length s))

  (* ---------------------------------------------------- frame buffer *)

  (* Bytes plus a length.  Records are encoded straight into it, each
     behind the header of its frame, and the whole buffer goes to one
     [output]; a journal keeps one for its life, so once it has grown to
     the largest group or compaction it allocates nothing more. *)
  type buffer = { mutable bytes : Bytes.t; mutable len : int }

  let buffer () = { bytes = Bytes.create 4096; len = 0 }
  let length b = b.len
  let clear b = b.len <- 0
  let contents b = Bytes.sub_string b.bytes 0 b.len

  let output oc b n =
    if n < 0 || n > b.len then invalid_arg "Serialize.Binary.output";
    Stdlib.output oc b.bytes 0 n

  (* Room for [n] more bytes, doubling. *)
  let reserve b n =
    let need = b.len + n in
    if need > Bytes.length b.bytes then begin
      let cap = ref (2 * Bytes.length b.bytes) in
      while !cap < need do
        cap := 2 * !cap
      done;
      let bytes = Bytes.create !cap in
      Bytes.blit b.bytes 0 bytes 0 b.len;
      b.bytes <- bytes
    end

  let add_string b s =
    let n = String.length s in
    reserve b n;
    Bytes.blit_string s 0 b.bytes b.len n;
    b.len <- b.len + n

  (* ------------------------------------------------------- primitives *)

  (* Binary decode errors reuse Parse_error with line 0: framing has
     already located the record by byte offset, so the line field carries
     no information here. *)
  let bin_error fmt = parse_error ~line:0 fmt

  let add_u8 b n =
    reserve b 1;
    Bytes.unsafe_set b.bytes b.len (Char.unsafe_chr (n land 0xff));
    b.len <- b.len + 1

  (* Unsigned LEB128; every integer in a journal record (indices, counts,
     capacities, task ids) is non-negative.  [put_varint] writes at [pos]
     and returns the position after; a non-negative [int] takes at most 9
     bytes. *)
  let rec put_varint bytes pos n =
    if n < 0x80 then begin
      Bytes.unsafe_set bytes pos (Char.unsafe_chr n);
      pos + 1
    end
    else begin
      Bytes.unsafe_set bytes pos (Char.unsafe_chr (0x80 lor (n land 0x7f)));
      put_varint bytes (pos + 1) (n lsr 7)
    end

  let rec varint_size n = if n < 0x80 then 1 else 1 + varint_size (n lsr 7)

  let negative_varint () = invalid_arg "Serialize.Binary.add_varint: negative"

  let add_varint b n =
    if n < 0 then negative_varint ();
    reserve b 9;
    b.len <- put_varint b.bytes b.len n

  (* Inlined, so that a float read out of a float record (a worker's
     location) is written without first being boxed. *)
  let[@inline] add_i64 b n =
    reserve b 8;
    Bytes.set_int64_le b.bytes b.len n;
    b.len <- b.len + 8

  let[@inline] add_f64 b f =
    reserve b 8;
    Bytes.set_int64_le b.bytes b.len (Int64.bits_of_float f);
    b.len <- b.len + 8

  (* A read window [first, limit) over a string: a whole payload, or one
     frame's payload inside a journal body read in one piece. *)
  type cursor = { data : string; first : int; limit : int; mutable pos : int }

  let window data ~pos ~len =
    if pos < 0 || len < 0 || pos > String.length data - len then
      invalid_arg "Serialize.Binary: payload window out of bounds";
    { data; first = pos; limit = pos + len; pos }

  let cursor data = window data ~pos:0 ~len:(String.length data)
  let at_end c = c.pos >= c.limit
  let payload_length c = c.limit - c.first

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
    if c.pos + 8 > c.limit then bin_error "unexpected end of binary payload";
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

  let rec add_varints b = function
    | [] -> ()
    | n :: rest ->
      add_varint b n;
      add_varints b rest

  let add_int_list b l =
    add_varint b (List.length l);
    add_varints b l

  (* The (threshold, score) pairs, 16 bytes a task, written in place from
     the progress tracker's own arrays. *)
  let add_progress b progress =
    let p = Progress.borrow_snapshot progress in
    let thresholds = p.Progress.thresholds and scores = p.Progress.scores in
    let n = Array.length thresholds in
    add_varint b n;
    add_f64 b p.Progress.sum_remaining;
    reserve b (16 * n);
    let bytes = b.bytes and base = b.len in
    for task = 0 to n - 1 do
      let at = base + (16 * task) in
      Bytes.set_int64_le bytes at (Int64.bits_of_float thresholds.(task));
      Bytes.set_int64_le bytes (at + 8) (Int64.bits_of_float scores.(task))
    done;
    b.len <- base + (16 * n)

  (* The arrangement section: the count, then (worker, task) varint pairs
     oldest first.  The arrangement keeps its assignments newest first, so
     the pairs are sized in one walk and written back to front in a
     second, with no reversed copy. *)
  let rec assignments_size acc = function
    | [] -> acc
    | (a : Arrangement.assignment) :: rest ->
      if a.worker < 0 || a.task < 0 then negative_varint ();
      assignments_size (acc + varint_size a.worker + varint_size a.task) rest

  let rec put_assignments_back bytes stop = function
    | [] -> ()
    | (a : Arrangement.assignment) :: rest ->
      let task_at = stop - varint_size a.task in
      ignore (put_varint bytes task_at a.task);
      let worker_at = task_at - varint_size a.worker in
      ignore (put_varint bytes worker_at a.worker);
      put_assignments_back bytes worker_at rest

  let add_arrangement b arrangement =
    add_varint b (Arrangement.size arrangement);
    let newest_first = Arrangement.to_rev_list arrangement in
    let size = assignments_size 0 newest_first in
    reserve b size;
    put_assignments_back b.bytes (b.len + size) newest_first;
    b.len <- b.len + size

  let add_payload b = function
    | Event e ->
      let w = e.e_worker in
      add_u8 b tag_event;
      add_varint b w.Worker.index;
      add_f64 b w.Worker.loc.Ltc_geo.Point.x;
      add_f64 b w.Worker.loc.Ltc_geo.Point.y;
      add_f64 b w.Worker.accuracy;
      add_varint b w.Worker.capacity;
      add_u8 b (if e.e_degraded then 1 else 0);
      add_int_list b e.e_assigned;
      add_int_list b e.e_answered
    | Snapshot s ->
      add_u8 b
        (match s.s_arrangement with
        | Some _ -> tag_snapshot
        | None -> tag_partial);
      add_varint b s.s_consumed;
      add_i64 b s.s_policy;
      add_i64 b s.s_noshow;
      add_progress b s.s_progress;
      Option.iter (add_arrangement b) s.s_arrangement

  (* ---------------------------------------------------------- framing *)

  (* Frame layout: [u32le payload length][u32le crc32(payload)][payload].
     The length prefix makes replay a streaming read with no line
     splitting; the CRC separates interior corruption (a complete frame
     whose bytes are wrong) from a torn tail (a frame the crash cut
     short, necessarily at end of file). *)

  let max_frame_bytes = 1 lsl 26 (* 64 MiB — far beyond any real record *)

  (* The one framer: reserve the header, encode the payload behind it,
     then patch in its length and CRC.  A record that fails to encode
     leaves the buffer as it was. *)
  let add_record b record =
    let start = b.len in
    reserve b 8;
    b.len <- start + 8;
    (match add_payload b record with
    | () -> ()
    | exception e ->
      b.len <- start;
      raise e);
    let len = b.len - start - 8 in
    if len > max_frame_bytes then begin
      b.len <- start;
      invalid_arg "Serialize.Binary.add_record: payload too large"
    end;
    let crc = crc32_range (Bytes.unsafe_to_string b.bytes) (start + 8) len in
    Bytes.set_int32_le b.bytes start (Int32.of_int len);
    Bytes.set_int32_le b.bytes (start + 4) (Int32.of_int crc)

  (* ---------------------------------------------------------- decoding *)

  (* The one record grammar.  A partial snapshot ('P') is a full one
     ('S') without the arrangement section.  [~build:false] walks the
     same bytes under the same rules (tag, varints, list bounds,
     [Worker.make]'s rules, [Progress.check_snapshot], trailing bytes)
     and fails with the same message at the same byte, but builds no
     list, [Progress.t] or [Arrangement.t]; it returns [None].  Restore
     checks the records a later snapshot supersedes this way.  Every
     bound is the payload's window, not the string's. *)
  let read_int_list ~build c =
    let n = varint c in
    if n > payload_length c then
      bin_error "list length %d exceeds the payload" n;
    if build then List.init n (fun _ -> varint c)
    else begin
      for _ = 1 to n do
        ignore (varint c)
      done;
      []
    end

  let skip c len =
    if c.pos + len > c.limit then bin_error "unexpected end of binary payload";
    c.pos <- c.pos + len

  let[@inline] f64_at data pos =
    Int64.float_of_bits (String.get_int64_le data pos)

  (* The float arrays a snapshot's (threshold, score) pairs are copied
     into, so that [Progress.check_snapshot] and [Progress.of_snapshot]
     read them as plain float arrays and no value is boxed on the way.  A
     scan reuses one for every snapshot it meets: the arrays are
     reallocated only when the task count changes. *)
  type scratch = {
    mutable thresholds : float array;
    mutable scores : float array;
  }

  let scratch () = { thresholds = [||]; scores = [||] }

  (* The pairs at [base], 16 bytes a task, read into [scratch]. *)
  let progress_pairs scratch data base n ~sum_remaining =
    if Array.length scratch.thresholds <> n then begin
      scratch.thresholds <- Array.create_float n;
      scratch.scores <- Array.create_float n
    end;
    let thresholds = scratch.thresholds and scores = scratch.scores in
    for task = 0 to n - 1 do
      let at = base + (16 * task) in
      Array.unsafe_set thresholds task (f64_at data at);
      Array.unsafe_set scores task (f64_at data (at + 8))
    done;
    { Progress.thresholds; scores; sum_remaining }

  let decode ~scratch ~build c =
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
        if n > payload_length c then
          bin_error "snapshot task count %d exceeds the payload" n;
        let sum_remaining = f64 c in
        let base = c.pos in
        skip c (16 * n);
        let pairs = progress_pairs scratch c.data base n ~sum_remaining in
        let s_progress =
          match
            if build then Some (Progress.of_snapshot pairs)
            else begin
              Progress.check_snapshot pairs;
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
            if n_assignments > payload_length c then
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
      bin_error "%d trailing bytes after the record" (c.limit - c.pos);
    record

  let record_of_payload data ~pos ~len =
    let c = window data ~pos ~len in
    Option.get (decode ~scratch:(scratch ()) ~build:true c)

  type kind = Event_record | Snapshot_record | Partial_record

  (* [decode] accepted the tag byte, so it is one of the three. *)
  let kind_at data pos =
    match Char.code data.[pos] with
    | tag when tag = tag_event -> Event_record
    | tag when tag = tag_snapshot -> Snapshot_record
    | _ -> Partial_record

  let check_payload data ~pos ~len =
    ignore (decode ~scratch:(scratch ()) ~build:false (window data ~pos ~len));
    kind_at data pos

  type scanned = Built of event | Checked of { kind : kind; consumed : int }

  let scan_payload scratch data ~pos ~len =
    let c = window data ~pos ~len in
    let event = len > 0 && Char.code data.[pos] = tag_event in
    match decode ~scratch ~build:event c with
    | Some (Event e) -> Built e
    | Some (Snapshot _) | None ->
      (* A checked snapshot: its count is the varint behind the tag. *)
      let consumed = varint { c with pos = pos + 1 } in
      Checked { kind = kind_at data pos; consumed }

  type frame =
    | Frame of int
    | Eof
    | Torn
    | Invalid of string

  let frame_at s pos =
    if pos >= String.length s then Eof
    else if pos + 8 > String.length s then Torn
    else
      let len = Int32.to_int (String.get_int32_le s pos) in
      let expected = String.get_int32_le s (pos + 4) in
      if len < 0 || len > max_frame_bytes then
        Invalid (Printf.sprintf "implausible frame length %d" len)
      else if pos + 8 + len > String.length s then Torn
      else
        let actual = crc32_range s (pos + 8) len in
        if actual <> Int32.to_int expected land 0xFFFFFFFF then
          Invalid
            (Printf.sprintf "CRC mismatch: stored %08lx, computed %08lx"
               expected (Int32.of_int actual))
        else Frame len
end
