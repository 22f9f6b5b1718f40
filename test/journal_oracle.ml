(* Reference journal record encoder: the Buffer-based one that
   Serialize.Binary's in-place frame buffer replaced, kept as the byte
   oracle for it.  Each record is staged in its own Buffer, copied out,
   and framed into another, with the progress arrays copied by
   [Progress.snapshot] and the arrangement copied by
   [Arrangement.to_list]; the CRC is the bitwise definition, not the
   table-driven loop under test.  Every journal byte pinned in the test
   suite was recorded with this encoder. *)

open Ltc_core
module B = Serialize.Binary

(* IEEE 802.3 CRC32, one bit at a time, from the definition. *)
let crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  Int32.of_int (lnot !c land 0xFFFFFFFF)

let add_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

let add_varint buf n =
  if n < 0 then invalid_arg "Journal_oracle.add_varint: negative";
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

let add_int_list buf l =
  add_varint buf (List.length l);
  List.iter (add_varint buf) l

(* The unframed record payload. *)
let emit_record buf = function
  | B.Event e ->
    let w = e.B.e_worker in
    add_u8 buf (Char.code 'E');
    add_varint buf w.Worker.index;
    add_f64 buf w.Worker.loc.Ltc_geo.Point.x;
    add_f64 buf w.Worker.loc.Ltc_geo.Point.y;
    add_f64 buf w.Worker.accuracy;
    add_varint buf w.Worker.capacity;
    add_u8 buf (if e.B.e_degraded then 1 else 0);
    add_int_list buf e.B.e_assigned;
    add_int_list buf e.B.e_answered
  | B.Snapshot s ->
    add_u8 buf
      (Char.code (if Option.is_some s.B.s_arrangement then 'S' else 'P'));
    add_varint buf s.B.s_consumed;
    add_i64 buf s.B.s_policy;
    add_i64 buf s.B.s_noshow;
    let snap = Progress.snapshot s.B.s_progress in
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
      s.B.s_arrangement

let payload record =
  let buf = Buffer.create 256 in
  emit_record buf record;
  Buffer.contents buf

(* [u32le length][u32le crc32][payload]: any payload, well-formed or not. *)
let add_frame buf payload =
  Buffer.add_int32_le buf (Int32.of_int (String.length payload));
  Buffer.add_int32_le buf (crc32 payload);
  Buffer.add_string buf payload

let add_record_frame buf record = add_frame buf (payload record)
