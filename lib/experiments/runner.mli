(** Sweep runner: the measurement loop behind every panel of Figs. 3-4.

    For each x-axis value the runner generates [reps] independent instances
    (fresh RNG stream per repetition, as the paper repeats every setting and
    averages), runs every algorithm on each, and aggregates the three
    metrics of the evaluation:

    - {b latency} — max arrival index of a recruited worker (Fig. 3a-d, 4a-d),
    - {b runtime} — wall-clock seconds (Fig. 3e-h, 4e-h),
    - {b memory} — instance footprint + the algorithm's own peak structures,
      in MB (Fig. 3i-l, 4i-l). *)

type aggregated = {
  algorithm : string;
  mean_latency : float;
  mean_runtime_s : float;
  mean_memory_mb : float;
  all_completed : bool;  (** false if any repetition failed to complete *)
}

type point = {
  label : string;  (** x-axis value, e.g. ["3000"] *)
  algos : aggregated list;  (** one entry per algorithm, in given order *)
}

type output = {
  title : string;
  header : string list;
  rows : Ltc_util.Table.cell list list;
  float_digits : int;  (** printed precision of [Float] cells *)
}
(** One printable table (one paper panel). *)

val sweep :
  ?algorithms:Ltc_algo.Algorithm.t list ->
  ?jobs:int ->
  reps:int ->
  seed:int ->
  xs:'a list ->
  label:('a -> string) ->
  instance_of:(seed:int -> 'a -> Ltc_core.Instance.t) ->
  unit ->
  point list
(** [instance_of ~seed x] must generate the instance for x-value [x] from
    the given per-repetition seed.  [algorithms] defaults to
    {!Ltc_algo.Algorithm.paper}; each entry's [run] receives the
    per-repetition seed, so seeded baselines stay a pure function of
    [(seed, rep)].

    [jobs] (default [1]) fans the (x value, repetition) cells over an
    {!Ltc_util.Pool} of that many domains.  Per-repetition seeds are split
    off one root stream up front and results are aggregated in input
    order, so latencies, memory and completion flags are bit-identical for
    every [jobs] — only the measured wall-clock runtimes vary, exactly as
    they do between two sequential runs.  [instance_of] and [algorithms]
    must be safe to call from multiple domains (pure generation from the
    seed, as all registered workloads are). *)

val runs_executed : unit -> int
(** Algorithm executions {!sweep} performed in this process (all sweeps);
    the bench harness's throughput denominator. *)

val latency_table : title:string -> x_header:string -> point list -> output
(** Latencies; cells of runs that did not always complete are suffixed
    with ["*"]. *)

val runtime_table : title:string -> x_header:string -> point list -> output
val memory_table : title:string -> x_header:string -> point list -> output

val render : output -> string
val print : output -> unit

val to_plot : output -> string option
(** ASCII chart of the table: first column as x (numeric prefix of the
    label, falling back to the row index), every other numeric column as a
    series.  [None] when the table has no plottable series. *)

val to_csv : output -> string
(** RFC-4180-style CSV: header row then data rows; fields containing
    commas, quotes or newlines are quoted, quotes doubled.  Floats keep
    full [%.17g] precision (CSV is for downstream plotting, not display). *)

val write_csv : dir:string -> output -> string
(** Writes the CSV under [dir] (created if missing) as
    [<slugified title>.csv] and returns the path. *)
