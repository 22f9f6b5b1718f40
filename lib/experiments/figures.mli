(** The experiment registry: one entry per column of Fig. 3 / Fig. 4 plus
    the ablations and the Hoeffding validation (see DESIGN.md §4).

    Every entry regenerates the paper panels at a configurable [scale]
    (density-preserving shrink of the workload; [1.0] = the paper's exact
    cardinalities) and [reps] repetitions (paper: 30).  Entries return
    printable tables — latency, runtime and memory, i.e. the three panel
    rows of the paper's figures. *)

type t = {
  id : string;          (** harness name, e.g. ["fig3-T"] *)
  panels : string;      (** the paper panels this regenerates *)
  description : string;
  default_scale : float;
      (** scale at which the experiment runs in a few minutes on a laptop *)
  run : jobs:int -> scale:float -> reps:int -> seed:int -> Runner.output list;
      (** [jobs] parallelizes the entry's independent
          measurement cells over that many domains (see
          {!Runner.sweep}).  Latency/memory/completion outputs are
          bit-identical for every [jobs]; wall-clock runtime columns vary
          run to run, as they do sequentially.  The sequentially-coupled
          [ext-inference] ignores [jobs] by design. *)
}

val all : t list
val find : string -> t option

val ids : unit -> string list
