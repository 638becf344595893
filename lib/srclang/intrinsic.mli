(** The built-in functions of the mini-C++ language, one entry each.

    Every fact about an intrinsic lives here: its signature for the type
    checker, its precision and single/double twin for the
    single-precision transforms, the hardware-counter class both
    interpreter backends charge for one call, and, for the 30 float
    functions, the one evaluation the walker and the VM share.  Single
    precision's rounding rule ({!demote}) lives here too, for both
    backends and the lowering's literals. *)

(** One-argument float functions. *)
type fn1 = Sqrt | Rsqrt | Sin | Cos | Tan | Exp | Log | Tanh | Erf | Fabs | Floor | Ceil

(** Two-argument float functions. *)
type fn2 = Pow | Fmin | Fmax

type op =
  | F1 of fn1
  | F2 of fn2
  | Abs  (** [int abs(int)] *)
  | Imin
  | Imax
  | Rand01  (** the deterministic [rand01()] generator *)
  | Print_int
  | Print_float

(** What one call adds to the interpreter's counters. *)
type cls =
  | Special  (** one special-function flop at the call's precision *)
  | Cheap  (** one add-class flop at the call's precision *)
  | Int_op  (** one integer op *)
  | Uncounted

type t = {
  name : string;
  op : op;
  args : Ast.ty list;
  ret : Ast.ty;
  single : bool;  (** a single-precision float function ([sqrtf], ...) *)
  cls : cls;
}

val all : t list
(** Every intrinsic: each float function in double and single precision
    ([sqrt]/[sqrtf], [rsqrt], [sin], [cos], [tan], [exp], [log], [tanh],
    [erf], [pow], [fabs], [floor], [ceil], [fmin], [fmax]), integer
    [abs]/[imin]/[imax], [rand01()] and [print_int]/[print_float]. *)

val find : string -> t option

val of_op : op -> single:bool -> t
(** The entry for [op] at the given precision: a float function's twin
    is [of_op i.op ~single:(not i.single)].  @raise Not_found for a
    single-precision integer or output intrinsic. *)

val eval1 : fn1 -> float -> float
(** At double precision; single-precision callers demote the result. *)

val eval2 : fn2 -> float -> float -> float

external demote : float -> float = "psa_demote_byte" "psa_demote" [@@unboxed] [@@noalloc]
(** Round to single precision and back: C's [(double)(float)x], to
    nearest with ties to even, NaN payloads kept as the conversion keeps
    them.  Every single-precision result and store of both backends goes
    through it.  Natively an unboxed call that allocates nothing;
    idempotent. *)

val erf_into : float array -> int -> int -> unit
(** [erf_into r d a] sets [r.(d)] to [eval1 Erf r.(a)], the one copy of
    the Abramowitz-Stegun 7.1.26 approximation that [erf]/[erff]
    evaluate.  It works on a register file because a float-returning
    call into another module boxes its argument and its result (no
    cross-module inlining under [-opaque]); this one boxes neither. *)
