(** Deterministic pseudo-random number generation.

    A small splitmix64-based generator used wherever the reproduction needs
    randomness (the interpreted programs' [rand01()], fault-injection
    draws, retry back-off jitter).  Keeping our own
    generator guarantees experiments are bit-reproducible across runs and
    OCaml versions, unlike [Stdlib.Random] whose algorithm may change. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)
