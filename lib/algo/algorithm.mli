(** The algorithm registry — the one dispatch surface over every
    assignment algorithm in the repo.

    The CLI ([ltc run]/[ltc serve]), the sweep {!Runner} and the streaming
    service all resolve algorithms by name through {!find}; per-algorithm
    modules export bare [policy]/[run] values and register here.
    {!paper} lists the five algorithms of the paper's evaluation in the
    legend order of Figs. 3-4: Base-off, MCF-LTC, Random, LAF, AAM. *)

type kind = Offline | Online

type t = {
  name : string;
  kind : kind;
  run : seed:int -> Ltc_core.Instance.t -> Engine.outcome;
      (** One-shot batch run.  Deterministic algorithms ignore [seed];
          the seeded baseline (Random) derives its stream from it, so a
          sweep's per-repetition seed reaches every algorithm uniformly. *)
  policy : (Ltc_util.Rng.t -> Engine.policy) option;
      (** Arrival-at-a-time form for the streaming service: the service
          owns the generator (journaled and restored across crashes) and
          the policy draws from it.  [None] for the offline algorithms,
          which need the whole arrival sequence upfront and cannot serve
          a live stream. *)
}

val base_off : t
val mcf_ltc : t
val random : t
val laf : t
val aam : t
val lgf : t
val lrf : t
val nearest_first : t

val paper : t list
(** The paper's five, in plot order.  Default algorithm set of [ltc run]
    and {!Runner.sweep}. *)

val all : t list
(** Every registered algorithm: {!paper} then the strategy ablations
    (LGF-only, LRF-only, Nearest).  Release-scheduled runs of the online
    policies live in {!Dynamic.run}. *)

val names : unit -> string list
(** Registry names in {!all} order (for error messages and [--help]). *)

val find : string -> t
(** Case-insensitive lookup.  @raise Invalid_argument with the known-name
    list on a miss. *)

val find_opt : string -> t option

val pp_kind : Format.formatter -> kind -> unit
