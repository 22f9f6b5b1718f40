type action = Crash | Io_error | Torn_write of int | Delay of float

type fault = { site : string; hit : int; action : action }
type plan = fault list

exception Injected_crash of { site : string; hit : int }
exception Injected_io of { site : string; hit : int }

type stats = {
  crashes : int;
  io_errors : int;
  torn_writes : int;
  delays : int;
}

let no_stats = { crashes = 0; io_errors = 0; torn_writes = 0; delays = 0 }

(* One mutable cell per pending fault so firing is O(matching faults) per
   probe and a fault can never fire twice. *)
type armed_fault = { f : fault; mutable fired : bool }

type state = {
  (* Armed faults indexed by (site, hit) so each probe is O(1) — loadgen
     arms one Delay per arrival, and a linear scan would make every probe
     O(|plan|). *)
  index : (string * int, armed_fault) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
  mutable stats : stats;
  (* [None]: real time.  [Some t]: virtual time, advanced explicitly. *)
  mutable vnow : float option;
}

(* All of [state] is guarded by [lock]: probes may run concurrently from
   shard domains once a plan is armed.  Exceptions are raised and the
   virtual clock advanced only *outside* the critical section, so a fired
   Crash can never leak the lock. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

let state =
  {
    index = Hashtbl.create 64;
    counters = Hashtbl.create 16;
    stats = no_stats;
    vnow = None;
  }

(* The hot-path switch: a single atomic load + branch while disarmed. *)
let is_armed = Atomic.make false

(* ----------------------------------------------------------------- scope *)

(* A domain-local site prefix: while a scope [s] is set, every probe for
   [site] is accounted against ["s/site"] instead.  The supervised sharded
   server scopes each shard domain to its shard name, giving every shard a
   single-writer (hence deterministic) hit sequence that plans can target
   individually.  Unscoped domains — everything outside supervision —
   behave exactly as before. *)
let scope_key : string option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let scope_site ~scope site = scope ^ "/" ^ site

let resolve site =
  match Domain.DLS.get scope_key with
  | None -> site
  | Some scope -> scope_site ~scope site

let with_scope scope f =
  let prev = Domain.DLS.get scope_key in
  Domain.DLS.set scope_key (Some scope);
  Fun.protect ~finally:(fun () -> Domain.DLS.set scope_key prev) f

let current_scope () = Domain.DLS.get scope_key

(* --------------------------------------------------------------- arming *)

let arm plan =
  locked (fun () ->
      Hashtbl.reset state.index;
      (* First fault wins on a duplicate (site, hit) pair, like the
         previous list scan. *)
      List.iter
        (fun f ->
          let key = (f.site, f.hit) in
          if not (Hashtbl.mem state.index key) then
            Hashtbl.add state.index key { f; fired = false })
        plan;
      Hashtbl.reset state.counters;
      state.stats <- no_stats);
  Atomic.set is_armed true

let disarm () = Atomic.set is_armed false
let armed () = Atomic.get is_armed

let hits site =
  let site = resolve site in
  locked (fun () ->
      match Hashtbl.find_opt state.counters site with
      | Some r -> !r
      | None -> 0)

let stats () = locked (fun () -> state.stats)

(* ----------------------------------------------------------- the probes *)

(* Called with [lock] held. *)
let bump site =
  match Hashtbl.find_opt state.counters site with
  | Some r ->
    incr r;
    !r
  | None ->
    Hashtbl.add state.counters site (ref 1);
    1

(* Called with [lock] held. *)
let pending site hit =
  match Hashtbl.find_opt state.index (site, hit) with
  | Some af when not af.fired -> Some af
  | _ -> None

module Clock = struct
  let now_s () =
    match locked (fun () -> state.vnow) with
    | Some t -> t
    | None -> Unix.gettimeofday ()

  let set_virtual t = locked (fun () -> state.vnow <- Some t)

  let advance dt =
    if dt < 0.0 then invalid_arg "Fault.Clock.advance: negative amount";
    locked (fun () ->
        match state.vnow with
        | None -> ()
        | Some t -> state.vnow <- Some (t +. dt))

  let clear () = locked (fun () -> state.vnow <- None)
  let is_virtual () = locked (fun () -> state.vnow <> None)
end

let sleep dt = if Clock.is_virtual () then Clock.advance dt else Unix.sleepf dt

(* What a probe decided to do, computed under the lock (counter bump,
   fired flag, stats) and executed after releasing it. *)
type decision = Pass | Raise_crash of int | Raise_io of int | Advance of float

(* Called with [lock] held. *)
let decide af ~hit =
  let s = state.stats in
  match af.f.action with
  | Crash ->
    af.fired <- true;
    state.stats <- { s with crashes = s.crashes + 1 };
    Raise_crash hit
  | Io_error ->
    af.fired <- true;
    state.stats <- { s with io_errors = s.io_errors + 1 };
    Raise_io hit
  | Delay dt ->
    af.fired <- true;
    state.stats <- { s with delays = s.delays + 1 };
    Advance dt
  | Torn_write _ ->
    (* Only [check_write] can honour a torn write; a plain site leaves it
       pending (it will never fire — the counter passes [hit] once). *)
    Pass

let execute site = function
  | Pass -> ()
  | Raise_crash hit -> raise (Injected_crash { site; hit })
  | Raise_io hit -> raise (Injected_io { site; hit })
  | Advance dt -> Clock.advance dt

let check site =
  if Atomic.get is_armed then begin
    let site = resolve site in
    locked (fun () ->
        let hit = bump site in
        match pending site hit with None -> Pass | Some af -> decide af ~hit)
    |> execute site
  end

let check_write site ~len =
  if not (Atomic.get is_armed) then None
  else begin
    let site = resolve site in
    let torn, dec =
      locked (fun () ->
          let hit = bump site in
          match pending site hit with
          | None -> (None, Pass)
          | Some af -> (
            match af.f.action with
            | Torn_write n ->
              af.fired <- true;
              let s = state.stats in
              state.stats <- { s with torn_writes = s.torn_writes + 1 };
              (* Keep a strict prefix so the record on disk is genuinely
                 torn. *)
              (Some (min n (max 0 (len - 1))), Pass)
            | Crash | Io_error | Delay _ -> (None, decide af ~hit)))
    in
    execute site dec;
    torn
  end

let crash site =
  let site = resolve site in
  let hit =
    locked (fun () ->
        match Hashtbl.find_opt state.counters site with
        | Some r -> !r
        | None -> 0)
  in
  raise (Injected_crash { site; hit })

(* ------------------------------------------------------ plan generation *)

let plan ?(crashes = 0) ?(io_errors = 0) ?(torn_writes = 0) ?(delays = 0)
    ?(horizon = 100) ~seed ~sites ~write_sites ~delay_sites () =
  if horizon < 1 then invalid_arg "Fault.plan: horizon must be >= 1";
  List.iter
    (fun (name, n) ->
      if n < 0 then
        invalid_arg
          (Printf.sprintf "Fault.plan: %s must be >= 0 (got %d)" name n))
    [
      ("crashes", crashes);
      ("io_errors", io_errors);
      ("torn_writes", torn_writes);
      ("delays", delays);
    ];
  let rng = Rng.create ~seed in
  let taken = Hashtbl.create 16 in
  let pick_slot pool =
    (* Distinct (site, hit) pairs so no fault shadows another; the pool is
       small and horizon large, so the rejection loop terminates fast. *)
    let rec go budget =
      let site = List.nth pool (Rng.int rng (List.length pool)) in
      let hit = 1 + Rng.int rng horizon in
      if Hashtbl.mem taken (site, hit) && budget > 0 then go (budget - 1)
      else begin
        Hashtbl.replace taken (site, hit) ();
        (site, hit)
      end
    in
    go 1000
  in
  let gen n pool action_of =
    if pool = [] then []
    else
      List.init n (fun _ ->
          let site, hit = pick_slot pool in
          { site; hit; action = action_of () })
  in
  let faults =
    gen crashes (sites @ write_sites) (fun () -> Crash)
    @ gen io_errors (sites @ write_sites) (fun () -> Io_error)
    @ gen torn_writes write_sites (fun () -> Torn_write (Rng.int rng 80))
    @ gen delays delay_sites (fun () -> Delay 0.25)
  in
  List.sort
    (fun a b ->
      match compare a.site b.site with 0 -> compare a.hit b.hit | c -> c)
    faults

(* ---------------------------------------------------------------- retry *)

module Retry = struct
  let attempts = 5

  let backoff_s k = Float.min 0.016 (0.001 *. (2.0 ** float_of_int (k - 1)))

  let is_transient = function
    | Injected_io _ -> true
    | Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK | ENOSPC), _, _) -> true
    | _ -> false

  let with_backoff ?(on_retry = fun ~attempt:_ _ -> ()) f =
    let rec go attempt =
      try f ()
      with e when is_transient e && attempt < attempts ->
        on_retry ~attempt e;
        sleep (backoff_s attempt);
        go (attempt + 1)
    in
    go 1
end
