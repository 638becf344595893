(** Process-anchored time source for spans and section timings.

    The stdlib exposes no true monotonic clock, so this wraps
    [Unix.gettimeofday] anchored at module initialisation; readings are
    relative to process start, which keeps trace timestamps small and
    makes every subsystem measure wall-clock from the same source.
    Per-domain monotonicity of trace timestamps is enforced separately
    by clamping in {!Trace}.

    This clock is for {e observation only} — span timestamps and bench
    section timings.  Flow results never depend on it: timeouts are
    interpreter step budgets. *)

val now_s : unit -> float
(** Seconds since process start. *)

val now_us : unit -> float
(** Microseconds since process start (the unit Chrome traces use). *)
