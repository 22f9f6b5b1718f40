type span = {
  id : int;
  parent : int;
  depth : int;
  name : string;
  start_s : float;
  duration_s : float;
}

let dummy =
  { id = -1; parent = -1; depth = 0; name = ""; start_s = 0.0; duration_s = 0.0 }

(* Spans may open and close on pool worker domains (see Pool): ids come from
   an atomic, the open-span stack is domain-local, and the completed-span
   ring is guarded by a mutex.  The disabled path stays a single atomic
   load. *)
let enabled_flag = Atomic.make false
let epoch = ref 0.0

let ring_mutex = Mutex.create ()
(* Protected by [ring_mutex]. *)
let ring = ref (Array.make 1024 dummy)
let completed = ref 0  (* total completed spans since clear *)

let next_id = Atomic.make 0

(* Ids of open spans, innermost first; nesting is per-domain. *)
let stack_key : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let enabled () = Atomic.get enabled_flag

let set_enabled b =
  if b && not (Atomic.get enabled_flag) then epoch := Unix.gettimeofday ();
  Atomic.set enabled_flag b

let clear () =
  Mutex.lock ring_mutex;
  completed := 0;
  Atomic.set next_id 0;
  Domain.DLS.get stack_key := [];
  Mutex.unlock ring_mutex

let set_capacity n =
  if n <= 0 then invalid_arg "Trace.set_capacity: capacity must be positive";
  Mutex.lock ring_mutex;
  ring := Array.make n dummy;
  completed := 0;
  Atomic.set next_id 0;
  Domain.DLS.get stack_key := [];
  Mutex.unlock ring_mutex

let with_span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let stack = Domain.DLS.get stack_key in
    let parent = match !stack with [] -> -1 | p :: _ -> p in
    let depth = List.length !stack in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let duration_s = Float.max 0.0 (Unix.gettimeofday () -. t0) in
        (match !stack with s :: rest when s = id -> stack := rest | _ -> ());
        Mutex.lock ring_mutex;
        let r = !ring in
        r.(!completed mod Array.length r) <-
          {
            id;
            parent;
            depth;
            name;
            start_s = Float.max 0.0 (t0 -. !epoch);
            duration_s;
          };
        incr completed;
        Mutex.unlock ring_mutex)
      f
  end

let dropped () =
  Mutex.lock ring_mutex;
  let d = max 0 (!completed - Array.length !ring) in
  Mutex.unlock ring_mutex;
  d

let spans () =
  Mutex.lock ring_mutex;
  let r = !ring in
  let n = min !completed (Array.length r) in
  let out = ref [] in
  for i = 0 to n - 1 do
    out := r.(i) :: !out
  done;
  Mutex.unlock ring_mutex;
  List.sort (fun a b -> compare a.id b.id) !out

let to_json () =
  let span_json s =
    Printf.sprintf
      "{\"id\":%d,\"parent\":%d,\"depth\":%d,\"name\":\"%s\",\"start_s\":%.9f,\"duration_s\":%.9f}"
      s.id s.parent s.depth (String.escaped s.name) s.start_s s.duration_s
  in
  "[" ^ String.concat "," (List.map span_json (spans ())) ^ "]"

type event = {
  ev_name : string;
  ev_start_s : float;
  ev_duration_s : float;
  ev_args : (string * string) list;
}

(* Chrome trace-event JSON array: one complete ("X") event per entry with
   microsecond timestamps, loadable as-is in chrome://tracing and
   Perfetto.  Every event shares one pid/tid; the viewer reconstructs the
   nesting from ts/dur containment. *)
let chrome_json events =
  let ev e =
    Printf.sprintf
      "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{%s}}"
      (String.escaped e.ev_name)
      (e.ev_start_s *. 1e6)
      (e.ev_duration_s *. 1e6)
      (String.concat ","
         (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) e.ev_args))
  in
  "[" ^ String.concat ",\n " (List.map ev events) ^ "]\n"

let to_chrome_json () =
  chrome_json
    (List.map
       (fun s ->
         {
           ev_name = s.name;
           ev_start_s = s.start_s;
           ev_duration_s = s.duration_s;
           ev_args =
             [
               ("id", string_of_int s.id);
               ("parent", string_of_int s.parent);
               ("depth", string_of_int s.depth);
             ];
         })
       (spans ()))
