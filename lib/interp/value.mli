(** Runtime values of the mini-C++ interpreter.

    Floating-point values carry their precision so the event counters can
    distinguish single- from double-precision work — the PSA-flow's
    "Employ SP Math Fns / SP Numeric Literals" transforms matter to the GPU
    and FPGA models precisely because SP arithmetic is cheaper. *)

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

val demote : float -> float
(** Round a float to single precision (through 32-bit representation). *)

val coerce : Ast.ty -> t -> t
(** Convert a value to the representation of the given scalar type,
    demoting doubles stored into [float] slots. *)

val to_string : t -> string
