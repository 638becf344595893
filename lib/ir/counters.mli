(** Event counts of an interpreter run, in one fixed layout.

    The counts are the raw observables every dynamic analysis consumes:
    hotspot detection ranks loops by {!work} (abstract single-thread CPU
    cycles), arithmetic-intensity analysis divides flops by bytes, and the
    device models take flops/bytes to their rooflines.

    A vector holds one int per event, each at its named index below.  The
    walker adds to the live vector as it executes; the IR lowering gives
    every block a vector with the block's static cost; the VM's cost walk
    combines those vectors into a nest's total and adds it in one
    {!add_into}.  No other module knows the layout. *)

type t = int array
(** [length] counts, indexed by the names below. *)

val length : int

(** {1 Indices} *)

val steps : int
(** statements executed *)

val int_ops : int

val loads : int

val stores : int

val bytes_loaded : int

val bytes_stored : int

val branches : int

val calls : int
(** calls of user functions *)

(** Class of a floating-point operation: add/sub, mul, div, or a special
    function (sqrt/exp/sin/...). *)
type flop_class = Add | Mul | Div | Special

val flop : single:bool -> flop_class -> int
(** The index of one class of single- or double-precision flops; the one
    rule from (precision, class) to an index. *)

(** {1 Vectors} *)

val create : unit -> t
(** All counts zero. *)

val copy : t -> t

val diff : t -> t -> t
(** [diff now before] — per-event subtraction (snapshot deltas). *)

val add_into : t -> t -> unit
(** [add_into acc d] accumulates [d] into [acc]. *)

val scale : t -> int -> t
(** Per-event multiplication (used to extrapolate a measured profile to a
    larger workload with the same per-iteration mix). *)

(** {1 Readers} *)

val flops_of : t -> flop_class -> int
(** Flops of one class, both precisions. *)

val flops : t -> int
(** All floating-point operations. *)

val flops_sp : t -> int

val bytes : t -> int
(** Bytes loaded plus stored. *)

val work : t -> float
(** Abstract single-thread CPU cycle estimate: weighted sum of events
    (divisions and special functions cost more; memory operations carry a
    nominal cache-hit latency).  Used to rank hotspots, not as wall-clock. *)
