let default_jobs () = Domain.recommended_domain_count ()

(* The calling domain and [min jobs n - 1] spawned ones claim indices from
   one cursor.  A claimed index above a recorded failure is abandoned and
   its domain stops claiming; one below it still runs.  The lowest failing
   index is therefore always claimed and run, so the exception re-raised
   does not depend on how the indices were interleaved. *)
let run ~jobs n f =
  if n < 0 then invalid_arg "Pool.run: negative range";
  if jobs <= 1 || n <= 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let rec record i e bt =
      match Atomic.get failure with
      | Some (j, _, _) when j < i -> ()
      | seen ->
        if not (Atomic.compare_and_set failure seen (Some (i, e, bt))) then
          record i e bt
    in
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then
        match Atomic.get failure with
        | Some (j, _, _) when j < i -> ()
        | _ ->
          (match f i with
          | v -> results.(i) <- Some v
          | exception e -> record i e (Printexc.get_raw_backtrace ()));
          claim ()
    in
    let domains = Array.init (min jobs n - 1) (fun _ -> Domain.spawn claim) in
    claim ();
    Array.iter Domain.join domains;
    match Atomic.get failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map Option.get results
  end

(* ------------------------------------------------------ persistent lanes *)

(* Unlike [run] above — where every domain claims indices from one shared
   cursor — a [Workers.t] pins work to lanes: each lane owns a
   bounded FIFO mailbox and a long-lived domain draining it through one
   handler.  This is the shape the sharded service runtime needs (a shard's
   session must only ever be touched by its own domain), so the service
   layer builds on this instead of bypassing the pool. *)
module Workers = struct
  type 'a lane = {
    ring : 'a option array;  (* mailbox slots, ring buffer *)
    mutable head : int;      (* next slot to pop *)
    mutable len : int;
    mutable pushed : int;    (* total accepted by [push] *)
    mutable done_ : int;     (* total handled or discarded *)
    mutable failure : (exn * Printexc.raw_backtrace) option;
    mutable domain : unit Domain.t option;
  }

  type 'a t = {
    capacity : int;
    handler : lane:int -> 'a -> unit;
    lanes : 'a lane array;
    mutex : Mutex.t;  (* guards every mutable lane field + [stop] *)
    not_full : Condition.t;
    not_empty : Condition.t;
    idle : Condition.t;  (* some lane caught up: done_ = pushed *)
    stalls : int Atomic.t;
    mutable stop : bool;
  }

  let stalls t = Atomic.get t.stalls
  let lanes t = Array.length t.lanes

  (* Called with [t.mutex] held.  Discards everything still queued on a
     failed lane, counting the items handled so [quiesce] terminates and
     blocked pushers wake up instead of waiting on a dead consumer. *)
  let discard_queue t lane =
    if lane.len > 0 then begin
      let cap = Array.length lane.ring in
      for i = 0 to lane.len - 1 do
        lane.ring.((lane.head + i) mod cap) <- None
      done;
      lane.done_ <- lane.done_ + lane.len;
      lane.head <- (lane.head + lane.len) mod cap;
      lane.len <- 0;
      Condition.broadcast t.not_full
    end;
    if lane.done_ = lane.pushed then Condition.broadcast t.idle

  let lane_loop t k =
    let lane = t.lanes.(k) in
    Mutex.lock t.mutex;
    let rec loop () =
      if lane.failure <> None then begin
        discard_queue t lane;
        if t.stop then Mutex.unlock t.mutex
        else begin
          Condition.wait t.not_empty t.mutex;
          loop ()
        end
      end
      else if lane.len > 0 then begin
        let item = Option.get lane.ring.(lane.head) in
        lane.ring.(lane.head) <- None;
        lane.head <- (lane.head + 1) mod Array.length lane.ring;
        lane.len <- lane.len - 1;
        Condition.broadcast t.not_full;
        Mutex.unlock t.mutex;
        (match t.handler ~lane:k item with
        | () -> Mutex.lock t.mutex
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock t.mutex;
          if lane.failure = None then lane.failure <- Some (e, bt);
          discard_queue t lane);
        lane.done_ <- lane.done_ + 1;
        if lane.done_ = lane.pushed then Condition.broadcast t.idle;
        loop ()
      end
      else if t.stop then Mutex.unlock t.mutex
      else begin
        Condition.wait t.not_empty t.mutex;
        loop ()
      end
    in
    loop ()

  let create ~lanes ~capacity ~handler =
    if lanes < 1 then invalid_arg "Pool.Workers.create: lanes must be >= 1";
    if capacity < 1 then
      invalid_arg "Pool.Workers.create: capacity must be >= 1";
    let t =
      {
        capacity;
        handler;
        lanes =
          Array.init lanes (fun _ ->
              {
                ring = Array.make capacity None;
                head = 0;
                len = 0;
                pushed = 0;
                done_ = 0;
                failure = None;
                domain = None;
              });
        mutex = Mutex.create ();
        not_full = Condition.create ();
        not_empty = Condition.create ();
        idle = Condition.create ();
        stalls = Atomic.make 0;
        stop = false;
      }
    in
    Array.iteri
      (fun k lane -> lane.domain <- Some (Domain.spawn (fun () -> lane_loop t k)))
      t.lanes;
    t

  let push t ~lane item =
    if lane < 0 || lane >= Array.length t.lanes then
      invalid_arg "Pool.Workers.push: no such lane";
    let l = t.lanes.(lane) in
    Mutex.lock t.mutex;
    if t.stop then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.Workers: used after shutdown"
    end;
    let stalled = ref false in
    while l.len = t.capacity && l.failure = None do
      if not !stalled then begin
        stalled := true;
        Atomic.incr t.stalls
      end;
      Condition.wait t.not_full t.mutex
    done;
    match l.failure with
    | Some (e, bt) ->
      Mutex.unlock t.mutex;
      Printexc.raise_with_backtrace e bt
    | None ->
      l.ring.((l.head + l.len) mod t.capacity) <- Some item;
      l.len <- l.len + 1;
      l.pushed <- l.pushed + 1;
      Condition.broadcast t.not_empty;
      Mutex.unlock t.mutex

  let try_push t ~lane item =
    if lane < 0 || lane >= Array.length t.lanes then
      invalid_arg "Pool.Workers.try_push: no such lane";
    let l = t.lanes.(lane) in
    Mutex.lock t.mutex;
    if t.stop then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.Workers: used after shutdown"
    end;
    match l.failure with
    | Some (e, bt) ->
      Mutex.unlock t.mutex;
      Printexc.raise_with_backtrace e bt
    | None when l.len = t.capacity ->
      Mutex.unlock t.mutex;
      false
    | None ->
      l.ring.((l.head + l.len) mod t.capacity) <- Some item;
      l.len <- l.len + 1;
      l.pushed <- l.pushed + 1;
      Condition.broadcast t.not_empty;
      Mutex.unlock t.mutex;
      true

  let failure t ~lane =
    if lane < 0 || lane >= Array.length t.lanes then
      invalid_arg "Pool.Workers.failure: no such lane";
    Mutex.lock t.mutex;
    let f = t.lanes.(lane).failure in
    Mutex.unlock t.mutex;
    f

  let restart t ~lane =
    if lane < 0 || lane >= Array.length t.lanes then
      invalid_arg "Pool.Workers.restart: no such lane";
    let l = t.lanes.(lane) in
    Mutex.lock t.mutex;
    if t.stop then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.Workers: used after shutdown"
    end;
    l.failure <- None;
    (* The lane domain is parked on [not_empty]; wake it so it resumes
       consuming as soon as new items arrive (or immediately, if a racing
       push already queued some). *)
    Condition.broadcast t.not_empty;
    Mutex.unlock t.mutex

  let quiesce t =
    Mutex.lock t.mutex;
    while Array.exists (fun l -> l.done_ < l.pushed) t.lanes do
      Condition.wait t.idle t.mutex
    done;
    Mutex.unlock t.mutex

  let first_failure t =
    Mutex.lock t.mutex;
    let f =
      Array.fold_left
        (fun acc l -> match acc with Some _ -> acc | None -> l.failure)
        None t.lanes
    in
    Mutex.unlock t.mutex;
    f

  let shutdown t =
    Mutex.lock t.mutex;
    let fresh = not t.stop in
    t.stop <- true;
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full;
    Mutex.unlock t.mutex;
    if fresh then
      Array.iter
        (fun l ->
          Option.iter Domain.join l.domain;
          l.domain <- None)
        t.lanes;
    match first_failure t with
    | Some (e, bt) when fresh -> Printexc.raise_with_backtrace e bt
    | _ -> ()
end
