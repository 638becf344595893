(** Runtime values of the mini-C++ interpreter.

    Floating-point values carry their precision so the event counters can
    distinguish single- from double-precision work — the PSA-flow's
    "Employ SP Math Fns / SP Numeric Literals" transforms matter to the GPU
    and FPGA models precisely because SP arithmetic is cheaper.  The float
    of a [Vfloat (Sp, _)] is always one that {!Intrinsic.demote} leaves
    unchanged. *)

type prec = Sp | Dp

type ptr = { base : int; offset : int }
(** Pointer into interpreter memory: array id + element offset. *)

type t =
  | Vint of int
  | Vbool of bool
  | Vfloat of prec * float
  | Vptr of ptr

val zero_of : Ast.ty -> t
(** Default-initialised value of a scalar type. *)

val to_float : t -> float
(** Numeric coercion. @raise Invalid_argument on pointers. *)

val to_int : t -> int

val truth : t -> bool
(** C truthiness of bools and ints. *)

val coerce : Ast.ty -> t -> t
(** Convert a value to the representation of the given scalar type,
    rounding doubles stored into [float] slots ({!Intrinsic.demote}). *)

val to_string : t -> string
