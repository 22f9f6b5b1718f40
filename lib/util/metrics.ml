type labels = (string * string) list

(* Sweep cells run on pool domains (see Pool), so every mutation path must
   be domain-safe: counters and gauges are atomics, histograms and the
   registry take a mutex.  The disabled path stays a single atomic load. *)
let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

module Counter = struct
  type t = { c : int Atomic.t }

  let incr t = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add t.c 1)

  let add t n =
    if n < 0 then invalid_arg "Metrics.Counter.add: negative amount";
    if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add t.c n)

  let value t = Atomic.get t.c
end

module Gauge = struct
  type t = { g : float Atomic.t }

  let set t v = if Atomic.get enabled_flag then Atomic.set t.g v

  let add t v =
    if Atomic.get enabled_flag then begin
      let rec cas () =
        let cur = Atomic.get t.g in
        if not (Atomic.compare_and_set t.g cur (cur +. v)) then cas ()
      in
      cas ()
    end

  let value t = Atomic.get t.g
end

(* Forward reference to the lazily registered drop counter: [Histogram] is
   defined before the registry functions, so the binding is tied after
   [counter] exists (bottom of the registration section). *)
let note_dropped = ref (fun () -> ())

module Histogram = struct
  type t = {
    mutex : Mutex.t;
    bounds : float array;  (* strictly increasing finite upper bounds *)
    counts : int array;    (* per-bucket, length = |bounds| + 1 (+Inf last) *)
    mutable total : int;
    mutable hsum : float;
  }

  let observe t v =
    if Atomic.get enabled_flag then begin
      if not (Float.is_finite v) then !note_dropped ()
      else begin
        let n = Array.length t.bounds in
        let i = ref 0 in
        (* Linear scan: bucket lists are short and this stays allocation-free. *)
        while !i < n && v > Array.unsafe_get t.bounds !i do incr i done;
        Mutex.lock t.mutex;
        t.counts.(!i) <- t.counts.(!i) + 1;
        t.total <- t.total + 1;
        t.hsum <- t.hsum +. v;
        Mutex.unlock t.mutex
      end
    end

  let count t =
    Mutex.lock t.mutex;
    let n = t.total in
    Mutex.unlock t.mutex;
    n

  let sum t =
    Mutex.lock t.mutex;
    let s = t.hsum in
    Mutex.unlock t.mutex;
    s

  (* Coherent (counts, total, sum) triple for snapshot rendering. *)
  let read t =
    Mutex.lock t.mutex;
    let r = (Array.copy t.counts, t.total, t.hsum) in
    Mutex.unlock t.mutex;
    r
end

module Hdr = struct
  (* Log-bucketed (HDR-style) histogram with a guaranteed relative error.
     Bucket [i] covers [(min_value * gamma^i, min_value * gamma^(i+1)]]
     with [gamma = (1 + rel_error)^2]; reconstructing at the geometric
     midpoint [min_value * gamma^i * (1 + rel_error)] keeps the quantile
     estimate within [rel_error] of any value in the bucket.  Unlike
     {!Histogram} this is a standalone instrument — it is not registered
     and not gated on the enable flag, so a load generator can always
     rely on it. *)
  let rel_error = 0.01
  let min_value = 1e-9
  let max_value = 1e5
  let gamma = (1.0 +. rel_error) *. (1.0 +. rel_error)
  let inv_log_gamma = 1.0 /. log gamma
  let buckets =
    1 + int_of_float (ceil (log (max_value /. min_value) /. log gamma))

  type t = {
    mutex : Mutex.t;
    counts : int array;
    mutable total : int;
    mutable vsum : float;
    mutable n_dropped : int;
    mutable lo : float;  (* exact observed min, +Inf while empty *)
    mutable hi : float;  (* exact observed max, -Inf while empty *)
  }

  let create () =
    {
      mutex = Mutex.create ();
      counts = Array.make buckets 0;
      total = 0;
      vsum = 0.0;
      n_dropped = 0;
      lo = Float.infinity;
      hi = Float.neg_infinity;
    }

  (* Smallest [i] with [v <= min_value * gamma^(i+1)]; values outside
     [[min_value, max_value]] clamp into the edge buckets (the exact
     [lo]/[hi] bounds recover the true extremes at read time). *)
  let bucket_of v =
    let v = Float.min max_value (Float.max min_value v) in
    let i = int_of_float (ceil (log (v /. min_value) *. inv_log_gamma)) - 1 in
    if i < 0 then 0 else if i >= buckets then buckets - 1 else i

  let observe t v =
    if not (Float.is_finite v) then begin
      Mutex.lock t.mutex;
      t.n_dropped <- t.n_dropped + 1;
      Mutex.unlock t.mutex;
      !note_dropped ()
    end
    else begin
      let i = bucket_of v in
      Mutex.lock t.mutex;
      t.counts.(i) <- t.counts.(i) + 1;
      t.total <- t.total + 1;
      t.vsum <- t.vsum +. v;
      if v < t.lo then t.lo <- v;
      if v > t.hi then t.hi <- v;
      Mutex.unlock t.mutex
    end

  let locked t f =
    Mutex.lock t.mutex;
    let r = f () in
    Mutex.unlock t.mutex;
    r

  let count t = locked t (fun () -> t.total)
  let sum t = locked t (fun () -> t.vsum)
  let dropped t = locked t (fun () -> t.n_dropped)
  let min_observed t = locked t (fun () -> t.lo)
  let max_observed t = locked t (fun () -> t.hi)

  let mean t =
    locked t (fun () ->
        if t.total = 0 then Float.nan else t.vsum /. float_of_int t.total)

  let percentile t p =
    if not (Float.is_finite p) || p < 0.0 || p > 100.0 then
      invalid_arg "Metrics.Hdr.percentile: p must be in [0, 100]";
    locked t (fun () ->
        if t.total = 0 then Float.nan
        else begin
          let rank =
            max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.total)))
          in
          let i = ref 0 and seen = ref t.counts.(0) in
          while !seen < rank do
            incr i;
            seen := !seen + t.counts.(!i)
          done;
          let est =
            min_value *. (gamma ** float_of_int !i) *. (1.0 +. rel_error)
          in
          (* The true value lies in [[lo, hi]], so clamping only helps. *)
          Float.min t.hi (Float.max t.lo est)
        end)

  let merge ~into src =
    if into == src then invalid_arg "Metrics.Hdr.merge: into == src";
    let counts, total, vsum, n_dropped, lo, hi =
      locked src (fun () ->
          ( Array.copy src.counts,
            src.total,
            src.vsum,
            src.n_dropped,
            src.lo,
            src.hi ))
    in
    locked into (fun () ->
        Array.iteri (fun i n -> into.counts.(i) <- into.counts.(i) + n) counts;
        into.total <- into.total + total;
        into.vsum <- into.vsum +. vsum;
        into.n_dropped <- into.n_dropped + n_dropped;
        if lo < into.lo then into.lo <- lo;
        if hi > into.hi then into.hi <- hi)
end

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0 |]

type instrument =
  | C of Counter.t
  | G of Gauge.t
  | H of Histogram.t

type series = {
  s_name : string;
  s_labels : labels;  (* canonical: sorted by key *)
  s_help : string;
  s_inst : instrument;
}

(* Per-name metadata fixed by the first registration; later registrations
   (any label set) must agree on kind and buckets. *)
type meta = {
  m_kind : [ `Counter | `Gauge | `Histogram ];
  m_help : string;
  m_buckets : float array;  (* empty unless histogram *)
}

(* [registry_mutex] guards both tables; instruments themselves synchronise
   their own mutations, so the lock is only held for registration and for
   building snapshot series lists. *)
let registry_mutex = Mutex.create ()
let registry : (string * labels, series) Hashtbl.t = Hashtbl.create 64
let metas : (string, meta) Hashtbl.t = Hashtbl.create 64

let canonical_labels name labels =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  (match dup sorted with
  | Some k ->
    invalid_arg
      (Printf.sprintf "Metrics: duplicate label key %S on metric %S" k name)
  | None -> ());
  sorted

let kind_name = function
  | `Counter -> "counter"
  | `Gauge -> "gauge"
  | `Histogram -> "histogram"

let register ~name ~help ~labels ~kind ~buckets make =
  let labels = canonical_labels name labels in
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) @@ fun () ->
  (match Hashtbl.find_opt metas name with
  | None -> Hashtbl.add metas name { m_kind = kind; m_help = help; m_buckets = buckets }
  | Some m ->
    if m.m_kind <> kind then
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered as a %s" name
           (kind_name m.m_kind));
    if kind = `Histogram && m.m_buckets <> buckets then
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered with other buckets"
           name));
  match Hashtbl.find_opt registry (name, labels) with
  | Some s -> s.s_inst
  | None ->
    let inst = make () in
    let help =
      match Hashtbl.find_opt metas name with
      | Some m -> m.m_help
      | None -> help
    in
    Hashtbl.add registry (name, labels)
      { s_name = name; s_labels = labels; s_help = help; s_inst = inst };
    inst

let counter ?(help = "") ?(labels = []) name =
  match
    register ~name ~help ~labels ~kind:`Counter ~buckets:[||] (fun () ->
        C { Counter.c = Atomic.make 0 })
  with
  | C c -> c
  | G _ | H _ -> assert false

let gauge ?(help = "") ?(labels = []) name =
  match
    register ~name ~help ~labels ~kind:`Gauge ~buckets:[||] (fun () ->
        G { Gauge.g = Atomic.make 0.0 })
  with
  | G g -> g
  | C _ | H _ -> assert false

let histogram ?(help = "") ?(labels = []) ?(buckets = default_buckets) name =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: empty bucket list";
  Array.iteri
    (fun i b ->
      if not (Float.is_finite b) then
        invalid_arg "Metrics.histogram: buckets must be finite";
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: buckets must be strictly increasing")
    buckets;
  match
    register ~name ~help ~labels ~kind:`Histogram ~buckets (fun () ->
        H
          {
            Histogram.mutex = Mutex.create ();
            bounds = Array.copy buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            total = 0;
            hsum = 0.0;
          })
  with
  | H h -> h
  | C _ | G _ -> assert false

(* Registered on the first drop only, so snapshots stay unchanged for runs
   that never observe a non-finite value. *)
let dropped_counter =
  lazy
    (counter
       ~help:"non-finite observations dropped instead of recorded"
       "ltc_metrics_dropped_observations_total")

let () = note_dropped := fun () -> Counter.incr (Lazy.force dropped_counter)

let dropped_observations () =
  if Lazy.is_val dropped_counter then Counter.value (Lazy.force dropped_counter)
  else 0

let all_series () =
  Mutex.lock registry_mutex;
  let out = Hashtbl.fold (fun _ s acc -> s :: acc) registry [] in
  Mutex.unlock registry_mutex;
  out

let reset () =
  List.iter
    (fun s ->
      match s.s_inst with
      | C c -> Atomic.set c.Counter.c 0
      | G g -> Atomic.set g.Gauge.g 0.0
      | H h ->
        Mutex.lock h.Histogram.mutex;
        Array.fill h.Histogram.counts 0 (Array.length h.Histogram.counts) 0;
        h.Histogram.total <- 0;
        h.Histogram.hsum <- 0.0;
        Mutex.unlock h.Histogram.mutex)
    (all_series ())

(* ------------------------------------------------------------- snapshots *)

let sorted_series () =
  all_series ()
  |> List.sort (fun a b ->
         match compare a.s_name b.s_name with
         | 0 -> compare a.s_labels b.s_labels
         | c -> c)

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* Exposition format: label values are quoted by hand around the escaped
   text — [%S] would OCaml-escape the backslashes a second time — and pairs
   are sorted so inserted labels (histogram [le]) land deterministically. *)
let prom_labels = function
  | [] -> ""
  | labels ->
    let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label v ^ "\"") labels)
    ^ "}"

(* Labels with one extra pair appended (for histogram [le]). *)
let prom_labels_le labels le =
  prom_labels (labels @ [ ("le", le) ])

let to_prometheus () =
  let buf = Buffer.create 1024 in
  let last_name = ref "" in
  List.iter
    (fun s ->
      if s.s_name <> !last_name then begin
        last_name := s.s_name;
        if s.s_help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" s.s_name s.s_help);
        let kind =
          match s.s_inst with
          | C _ -> "counter"
          | G _ -> "gauge"
          | H _ -> "histogram"
        in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" s.s_name kind)
      end;
      match s.s_inst with
      | C c ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %d\n" s.s_name (prom_labels s.s_labels)
             (Counter.value c))
      | G g ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" s.s_name (prom_labels s.s_labels)
             (float_str (Gauge.value g)))
      | H h ->
        let counts, total, hsum = Histogram.read h in
        let cumulative = ref 0 in
        Array.iteri
          (fun i n ->
            cumulative := !cumulative + n;
            let le =
              if i < Array.length h.Histogram.bounds then
                float_str h.Histogram.bounds.(i)
              else "+Inf"
            in
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" s.s_name
                 (prom_labels_le s.s_labels le)
                 !cumulative))
          counts;
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" s.s_name (prom_labels s.s_labels)
             (float_str hsum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" s.s_name (prom_labels s.s_labels)
             total))
    (sorted_series ());
  Buffer.contents buf

let json_string s = "\"" ^ escape_label s ^ "\""

let json_float v = if Float.is_finite v then float_str v else "null"

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> json_string k ^ ":" ^ json_string v) labels)
  ^ "}"

let to_json () =
  let series_json s =
    let common kind =
      Printf.sprintf "\"name\":%s,\"type\":\"%s\",\"help\":%s,\"labels\":%s"
        (json_string s.s_name) kind (json_string s.s_help)
        (json_labels s.s_labels)
    in
    match s.s_inst with
    | C c ->
      Printf.sprintf "{%s,\"value\":%d}" (common "counter") (Counter.value c)
    | G g ->
      Printf.sprintf "{%s,\"value\":%s}" (common "gauge")
        (json_float (Gauge.value g))
    | H h ->
      let counts, total, hsum = Histogram.read h in
      let cumulative = ref 0 in
      let buckets =
        Array.to_list
          (Array.mapi
             (fun i n ->
               cumulative := !cumulative + n;
               let le =
                 if i < Array.length h.Histogram.bounds then
                   json_float h.Histogram.bounds.(i)
                 else "\"+Inf\""
               in
               Printf.sprintf "{\"le\":%s,\"count\":%d}" le !cumulative)
             counts)
      in
      Printf.sprintf "{%s,\"buckets\":[%s],\"sum\":%s,\"count\":%d}"
        (common "histogram")
        (String.concat "," buckets)
        (json_float hsum) total
  in
  "[" ^ String.concat "," (List.map series_json (sorted_series ())) ^ "]"
