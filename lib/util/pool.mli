(** Domain parallelism for independent jobs.

    {!run} fans an embarrassingly parallel index range — the experiment
    harness's independent (figure cell x repetition) runs — over OCaml 5
    domains spawned for the call.  Long-lived per-shard domains are not
    here: each shard of [Ltc_service.Shard_server] owns its lane (mailbox,
    lock and domain). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI default for
    [--jobs]. *)

val run : jobs:int -> int -> (int -> 'a) -> 'a array
(** [run ~jobs n f] computes [[| f 0; ...; f (n-1) |]].  It spawns
    [min jobs n - 1] domains, which claim indices from one atomic cursor
    together with the calling domain, and joins every one of them before
    it returns.  Results are ordered by index, not by completion, so
    callers see the sequential semantics however the indices were
    interleaved.  With [jobs <= 1] or [n <= 1] it is [Array.init n f] on
    the calling domain: the fallback on single-core machines and the
    reference the parallel path reproduces bit for bit (DESIGN.md,
    "Parallelism").

    When a body raises, unclaimed indices above it are abandoned; every
    claimed body finishes, every domain is joined, and then the exception
    of the lowest failing index is re-raised on the calling domain.
    Bodies run on other domains, so anything they touch must be
    domain-safe (the observability layer — {!Metrics}, {!Trace},
    {!Mem.Tracker} — is).
    @raise Invalid_argument when [n < 0]. *)
