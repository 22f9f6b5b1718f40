type aggregated = {
  algorithm : string;
  mean_latency : float;
  mean_runtime_s : float;
  mean_memory_mb : float;
  all_completed : bool;
}

type point = {
  label : string;
  algos : aggregated list;
}

type output = {
  title : string;
  header : string list;
  rows : Ltc_util.Table.cell list list;
  float_digits : int;
}

(* One derived seed per repetition, shared across x values: sweeping a
   parameter (e.g. epsilon) then compares the SAME workload at every x, as
   the paper does, instead of adding generation noise to the trend.  Seeds
   come from splitting one root stream, so they are a function of [seed]
   and [rep] alone — parallel scheduling cannot perturb them. *)
let rep_seeds ~seed ~reps =
  let root = Ltc_util.Rng.create ~seed in
  Array.init reps (fun _ -> Ltc_util.Rng.split_seed root)

(* Per-algorithm sweep metrics; attached to every run so a snapshot taken
   after a sweep carries the full measurement series. *)
let run_metrics algo =
  let labels = [ ("algo", algo) ] in
  ( Ltc_util.Metrics.counter ~help:"sweep runs executed" ~labels
      "ltc_runner_runs_total",
    Ltc_util.Metrics.histogram ~help:"wall time per sweep run (s)" ~labels
      "ltc_runner_runtime_seconds" )

(* Total algorithm executions in this process; feeds the bench harness's
   throughput report (--json). *)
let runs_total = Atomic.make 0
let runs_executed () = Atomic.get runs_total
let count_run () = ignore (Atomic.fetch_and_add runs_total 1)

(* One measurement: algorithm name, latency, wall time, memory, completed. *)
type run_result = {
  r_name : string;
  r_latency : float;
  r_runtime : float;
  r_memory : float;
  r_completed : bool;
}

let sweep ?(algorithms = Ltc_algo.Algorithm.paper) ?(jobs = 1) ~reps ~seed ~xs
    ~label ~instance_of () =
  if reps <= 0 then invalid_arg "Runner.sweep: reps must be positive";
  let xs = Array.of_list xs in
  let seeds = rep_seeds ~seed ~reps in
  (* Fan (x value, repetition) cells over the domain pool.  Each cell is a
     pure function of its derived seed — generation, the five algorithm
     runs, the memory estimate — so only the wall-clock [r_runtime] differs
     between parallel and sequential execution. *)
  let cell k =
    let x = xs.(k / reps) in
    let rseed = seeds.(k mod reps) in
    let instance = instance_of ~seed:rseed x in
    let instance_mb =
      Ltc_util.Mem.words_to_mb (Ltc_core.Instance.memory_words instance)
    in
    List.map
      (fun (algo : Ltc_algo.Algorithm.t) ->
        let outcome, runtime =
          Ltc_util.Timer.time (fun () ->
              Ltc_util.Trace.with_span ("sweep:" ^ algo.name) (fun () ->
                  algo.run ~seed:rseed instance))
        in
        count_run ();
        let m_runs, m_runtime = run_metrics algo.name in
        Ltc_util.Metrics.Counter.incr m_runs;
        Ltc_util.Metrics.Histogram.observe m_runtime runtime;
        {
          r_name = algo.name;
          r_latency = float_of_int outcome.Ltc_algo.Engine.latency;
          r_runtime = runtime;
          r_memory = instance_mb +. outcome.Ltc_algo.Engine.peak_memory_mb;
          r_completed = outcome.Ltc_algo.Engine.completed;
        })
      algorithms
  in
  let cells = Ltc_util.Pool.run ~jobs (Array.length xs * reps) cell in
  (* Aggregate sequentially in (x, rep, algorithm) order — the float
     summation order of the sequential loop, so means are bit-identical
     regardless of [jobs]. *)
  List.init (Array.length xs) (fun xi ->
      (* metric accumulators per algorithm name, in first-seen order *)
      let order = ref [] in
      let acc : (string, float ref * float ref * float ref * bool ref) Hashtbl.t
          =
        Hashtbl.create 8
      in
      for rep = 0 to reps - 1 do
        List.iter
          (fun r ->
            let lat, time, mem, comp =
              match Hashtbl.find_opt acc r.r_name with
              | Some slot -> slot
              | None ->
                let slot = (ref 0.0, ref 0.0, ref 0.0, ref true) in
                Hashtbl.add acc r.r_name slot;
                order := r.r_name :: !order;
                slot
            in
            lat := !lat +. r.r_latency;
            time := !time +. r.r_runtime;
            mem := !mem +. r.r_memory;
            comp := !comp && r.r_completed)
          cells.((xi * reps) + rep)
      done;
      let n = float_of_int reps in
      let algos =
        List.rev_map
          (fun name ->
            let lat, time, mem, comp = Hashtbl.find acc name in
            {
              algorithm = name;
              mean_latency = !lat /. n;
              mean_runtime_s = !time /. n;
              mean_memory_mb = !mem /. n;
              all_completed = !comp;
            })
          !order
      in
      { label = label xs.(xi); algos })

let table ~title ~x_header ~digits ~cell points =
  match points with
  | [] -> { title; header = [ x_header ]; rows = []; float_digits = digits }
  | first :: _ ->
    let names = List.map (fun a -> a.algorithm) first.algos in
    let header = x_header :: names in
    let rows =
      List.map
        (fun p ->
          Ltc_util.Table.Str p.label :: List.map (fun a -> cell a) p.algos)
        points
    in
    { title; header; rows; float_digits = digits }

let latency_cell a =
  if a.all_completed then Ltc_util.Table.Float a.mean_latency
  else
    (* A starred latency marks repetitions that ran out of workers. *)
    Ltc_util.Table.Str (Printf.sprintf "%.1f*" a.mean_latency)

let latency_table ~title ~x_header points =
  table ~title ~x_header ~digits:1 ~cell:latency_cell points

let runtime_table ~title ~x_header points =
  table ~title ~x_header ~digits:4
    ~cell:(fun a -> Ltc_util.Table.Float a.mean_runtime_s)
    points

let memory_table ~title ~x_header points =
  table ~title ~x_header ~digits:2
    ~cell:(fun a -> Ltc_util.Table.Float a.mean_memory_mb)
    points

let render o =
  Printf.sprintf "== %s ==\n%s" o.title
    (Ltc_util.Table.render ~float_digits:o.float_digits ~header:o.header
       o.rows)

(* Numeric prefix of a label ("2000 (|W|=8000)" -> 2000.). *)
let numeric_prefix s =
  let is_num c = (c >= '0' && c <= '9') || c = '.' || c = '-' || c = 'e' in
  let n = String.length s in
  let rec stop i = if i < n && is_num s.[i] then stop (i + 1) else i in
  let len = stop 0 in
  if len = 0 then None else float_of_string_opt (String.sub s 0 len)

let cell_value = function
  | Ltc_util.Table.Int i -> Some (float_of_int i)
  | Ltc_util.Table.Float f -> Some f
  | Ltc_util.Table.Str s -> numeric_prefix s

let to_plot o =
  match (o.header, o.rows) with
  | _ :: series_names, _ :: _ when series_names <> [] ->
    let x_of row_idx row =
      match row with
      | first :: _ -> (
        match cell_value first with
        | Some x -> x
        | None -> float_of_int row_idx)
      | [] -> float_of_int row_idx
    in
    let series =
      List.mapi
        (fun col name ->
          let points =
            List.mapi
              (fun row_idx row ->
                match List.nth_opt row (col + 1) with
                | Some cell -> (
                  match cell_value cell with
                  | Some y -> Some (x_of row_idx row, y)
                  | None -> None)
                | None -> None)
              o.rows
            |> List.filter_map Fun.id
          in
          { Ltc_util.Ascii_plot.name; points })
        series_names
    in
    let plot = Ltc_util.Ascii_plot.render ~title:o.title series in
    if plot = "" then None else Some plot
  | _ -> None

let csv_field s =
  let needs_quoting =
    String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s
  in
  if not needs_quoting then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let csv_cell = function
  | Ltc_util.Table.Str s -> csv_field s
  | Ltc_util.Table.Int i -> string_of_int i
  | Ltc_util.Table.Float f -> Printf.sprintf "%.17g" f

let to_csv o =
  let buf = Buffer.create 1024 in
  let emit fields =
    Buffer.add_string buf (String.concat "," fields);
    Buffer.add_char buf '\n'
  in
  emit (List.map csv_field o.header);
  List.iter (fun row -> emit (List.map csv_cell row)) o.rows;
  Buffer.contents buf

let slugify title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    title

let write_csv ~dir o =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (slugify o.title ^ ".csv") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv o));
  path

let print o = print_endline (render o)
