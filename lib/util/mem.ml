let bytes_per_word = Sys.word_size / 8

let words_to_mb words = float_of_int (words * bytes_per_word) /. (1024.0 *. 1024.0)

module Tracker = struct
  (* One accounting cell per domain that touched the tracker.  All cell
     fields are protected by the tracker mutex: the operations are a few
     integer updates, so an uncontended lock (the common case — algorithm
     runs own their tracker) costs nothing measurable, and cross-domain
     reads of [high_water_mb] are race-free. *)
  type cell = {
    domain : int;
    mutable current : int;
    mutable baseline : int;
    mutable peak : int;
  }

  type t = {
    mutex : Mutex.t;
    mutable cells : cell list;  (* newest first; typically length 1 *)
  }

  let create () = { mutex = Mutex.create (); cells = [] }

  let cell t =
    let id = (Domain.self () :> int) in
    let rec find = function
      | c :: _ when c.domain = id -> c
      | _ :: rest -> find rest
      | [] ->
        let c = { domain = id; current = 0; baseline = 0; peak = 0 } in
        t.cells <- c :: t.cells;
        c
    in
    find t.cells

  let refresh_peak c =
    let total = c.current + c.baseline in
    if total > c.peak then c.peak <- total

  let add_words t n =
    Mutex.lock t.mutex;
    let c = cell t in
    c.current <- c.current + n;
    refresh_peak c;
    Mutex.unlock t.mutex

  let remove_words t n =
    Mutex.lock t.mutex;
    let c = cell t in
    c.current <- max 0 (c.current - n);
    Mutex.unlock t.mutex

  let set_baseline_words t n =
    Mutex.lock t.mutex;
    let c = cell t in
    c.baseline <- n;
    refresh_peak c;
    Mutex.unlock t.mutex

  (* Merged peak: the sum of per-domain high-water marks.  Equal to the
     true peak when one domain uses the tracker (the engine's case), an
     upper bound on concurrent usage otherwise. *)
  let high_water_mb t =
    Mutex.lock t.mutex;
    let words = List.fold_left (fun acc c -> acc + c.peak) 0 t.cells in
    Mutex.unlock t.mutex;
    words_to_mb words
end
