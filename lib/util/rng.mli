(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the library (workload generation, the
    [Random] baseline, Monte-Carlo voting simulation) draws from an explicit
    [Rng.t] so that experiments are exactly reproducible from a seed, across
    machines and OCaml versions.  The implementation is the splitmix64
    generator of Steele, Lea and Flood, which passes BigCrush and supports
    cheap stream splitting. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy at the current position of the stream. *)

val state : t -> int64
(** The full internal state.  Splitmix64 carries exactly one 64-bit word,
    so [state]/{!of_state} capture and resume a stream losslessly — the
    checkpoint/restore path of {!Ltc_service} journals this word and
    reproduces the remaining draws bit-for-bit. *)

val of_state : int64 -> t
(** A generator resuming exactly at [state] (inverse of {!state}). *)

val split : t -> t
(** [split rng] advances [rng] and returns a generator whose stream is
    statistically independent from the remainder of [rng]'s stream.  Use it to
    give sub-components their own stream without coupling their consumption
    rates. *)

val split_seed : t -> int
(** [split_seed rng] advances [rng] and returns an integer seed for an
    independent child stream — [create ~seed:(split_seed rng)] is {!split}
    up to the int/int64 truncation.  The experiment harness derives one
    such seed per repetition so that results are a function of the base
    seed alone, independent of parallel scheduling. *)

val bits64 : t -> int64
(** Next raw 64-bit output: [mix] of the state after adding the golden
    gamma. *)

val mix : int64 -> int64
(** The splitmix64 finalizer: two xor-shift-multiply rounds and a final
    xor-shift, a bijection that avalanches every input bit.  Also the
    hash {!Ltc_service.Shard_server} partitions grid cells with, so its
    constants fix where saved shard manifests route each arrival. *)

val int : t -> int -> int
(** [int rng n] is uniform over [\[0, n-1\]].  Raises [Invalid_argument] when
    [n <= 0]. *)

val float : t -> float -> float
(** [float rng x] is uniform over [\[0, x)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli rng p] is [true] with probability [p]. *)
