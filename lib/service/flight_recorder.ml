type record = {
  seq : int;
  offered_s : float;
  actual_s : float;
  done_s : float;
  latency_s : float;
  assigned : int;
  degraded : bool;
  journal_bytes : int;
}

(* The ring grows by doubling as records arrive and wraps only once it
   holds [capacity]: until then the records sit in [ring.(0 ..
   appended - 1)], so [appended mod] its length is the next slot either
   way. *)
type t = {
  capacity : int;
  mutable ring : record array;
  mutable appended : int;  (* total records ever appended *)
}

let dummy =
  {
    seq = 0;
    offered_s = 0.0;
    actual_s = 0.0;
    done_s = 0.0;
    latency_s = 0.0;
    assigned = 0;
    degraded = false;
    journal_bytes = 0;
  }

let create ~capacity =
  if capacity < 1 then
    invalid_arg "Flight_recorder.create: capacity must be >= 1";
  { capacity; ring = [||]; appended = 0 }

let record t r =
  let len = Array.length t.ring in
  if t.appended = len && len < t.capacity then begin
    let ring = Array.make (min t.capacity (max 16 (2 * len))) dummy in
    Array.blit t.ring 0 ring 0 len;
    t.ring <- ring
  end;
  t.ring.(t.appended mod Array.length t.ring) <- r;
  t.appended <- t.appended + 1

let capacity t = t.capacity
let length t = min t.appended t.capacity
let total t = t.appended
let dropped t = max 0 (t.appended - t.capacity)

let iter f t =
  let cap = Array.length t.ring in
  let n = length t in
  let first = t.appended - n in
  for i = first to t.appended - 1 do
    f t.ring.(i mod cap)
  done

(* %.9f keeps sub-nanosecond timeline resolution while staying locale- and
   platform-stable (no %g exponent-form variation across libcs). *)
let record_json r =
  Printf.sprintf
    "{\"seq\":%d,\"offered_s\":%.9f,\"actual_s\":%.9f,\"done_s\":%.9f,\"latency_s\":%.9f,\"assigned\":%d,\"degraded\":%b,\"journal_bytes\":%d}"
    r.seq r.offered_s r.actual_s r.done_s r.latency_s r.assigned r.degraded
    r.journal_bytes

let to_ndjson t =
  let buf = Buffer.create 4096 in
  iter
    (fun r ->
      Buffer.add_string buf (record_json r);
      Buffer.add_char buf '\n')
    t;
  Buffer.contents buf

let dump t ~path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_ndjson t))

let to_chrome_json t =
  let events = ref [] in
  let add ev_name ev_start_s ev_duration_s ev_args =
    events :=
      { Ltc_util.Trace.ev_name; ev_start_s; ev_duration_s; ev_args }
      :: !events
  in
  iter
    (fun r ->
      let seq = ("seq", string_of_int r.seq) in
      if r.actual_s > r.offered_s then
        add "queued" r.offered_s (r.actual_s -. r.offered_s) [ seq ];
      add "decide" r.actual_s
        (Float.max 0.0 (r.done_s -. r.actual_s))
        [
          seq;
          ("assigned", string_of_int r.assigned);
          ("degraded", string_of_bool r.degraded);
        ])
    t;
  Ltc_util.Trace.chrome_json (List.rev !events)
