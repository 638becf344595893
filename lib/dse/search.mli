(** Generic design-space exploration strategies.

    The paper's DSE tasks use two shapes: an exhaustive sweep over a small
    discrete space (blocksize, thread counts) minimising estimated time,
    and the doubling loop of Fig. 2 that grows a factor until a resource
    report flags overmapping. *)

type 'p evaluated = { point : 'p; score : float }

val observed : tag:string -> (int -> 'a) -> int -> 'a
(** [observed ~tag eval] is [eval], each call run inside a [Dse_point]
    span named [tag] (e.g. ["gpu-blocksize"]) and timed into the
    [dse.point.seconds] histogram.  Every strategy calls its device
    model through it. *)

val sweep : 'p list -> eval:('p -> float) -> 'p evaluated option
(** Point with minimal finite score; [None] when the space is empty or no
    point evaluates finite. *)

val sweep_all : 'p list -> eval:('p -> float) -> 'p evaluated list
(** Every point with its score, in input order (for reports).  Each
    point is spawned as a {!Util.Pool.Fut} task, so [eval] must be
    pure; with [--jobs 1] the points evaluate serially in input order. *)

val best : 'p evaluated list -> 'p evaluated option
(** Minimal finite-score element of an evaluated sweep (first wins on
    ties), without re-running any evaluation. *)

val doubling_until : init:int -> max:int -> feasible:(int -> bool) -> int option
(** Largest power-of-two multiple of [init] (init, 2·init, 4·init, ...)
    not exceeding [max] for which [feasible] holds — the Fig. 2 loop that
    doubles the unroll factor until the design overmaps.  [None] when even
    [init] is infeasible or exceeds [max]. *)

val powers_of_two : lo:int -> hi:int -> int list
(** [lo; 2lo; ...] up to [hi] inclusive (lo must be positive). *)
