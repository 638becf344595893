(** Event counters accumulated by the interpreter.

    The counters are the raw observables every dynamic analysis consumes:
    hotspot detection ranks loops by {!work} (abstract single-thread CPU
    cycles), arithmetic-intensity analysis divides flops by bytes, and the
    device models take flops/bytes to their rooflines. *)

type t = {
  mutable int_ops : int;
  mutable flops_sp_add : int;   (** single-precision add/sub *)
  mutable flops_sp_mul : int;
  mutable flops_sp_div : int;
  mutable flops_sp_special : int;  (** sqrt/exp/sin/... *)
  mutable flops_dp_add : int;
  mutable flops_dp_mul : int;
  mutable flops_dp_div : int;
  mutable flops_dp_special : int;
  mutable loads : int;
  mutable stores : int;
  mutable bytes_loaded : int;
  mutable bytes_stored : int;
  mutable branches : int;
  mutable calls : int;
  mutable steps : int;          (** statements executed *)
}

val create : unit -> t

val reset : t -> unit

val copy : t -> t

val diff : t -> t -> t
(** [diff now before] — per-field subtraction (snapshot deltas). *)

val add_into : t -> t -> unit
(** [add_into acc d] accumulates [d] into [acc]. *)

val scale : t -> int -> t
(** Per-field multiplication (used to extrapolate a measured profile to a
    larger workload with the same per-iteration mix). *)

val flops : t -> int
(** All floating-point operations. *)

val flops_sp : t -> int

val bytes : t -> int
(** Bytes loaded plus stored. *)

val work : t -> float
(** Abstract single-thread CPU cycle estimate: weighted sum of events
    (divisions and special functions cost more; memory operations carry a
    nominal cache-hit latency).  Used to rank hotspots, not as wall-clock. *)
