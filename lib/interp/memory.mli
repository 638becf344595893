(** Addressable array storage for the interpreter.

    Every array (global, local, or heap-like) is a distinct numbered base;
    pointers are (base, offset) pairs.  Distinct bases never alias, which is
    what makes the dynamic pointer-alias analysis exact: two pointer
    arguments alias iff they share a base. *)

type t

val create : unit -> t

val alloc : t -> name:string -> elem_ty:Ast.ty -> int -> Value.ptr
(** Allocate a zero-initialised array of the given element type and length,
    returning a pointer to its first element.
    @raise Invalid_argument for negative lengths or non-scalar types. *)

val length : t -> int -> int
(** Length of the array with the given base id. *)

val elem_ty : t -> int -> Ast.ty

val elem_bytes : t -> int -> int

val name : t -> int -> string

val load : t -> Value.ptr -> int -> Value.t
(** [load mem ptr i] reads element [ptr.offset + i].
    @raise Failure on out-of-bounds access (reported with array name). *)

val store : t -> Value.ptr -> int -> Value.t -> unit
(** Stores coerce the value to the array element type (demoting to single
    precision for [float] arrays). *)

(** Direct view of an array's backing storage, for guarded fast paths that
    have already verified the element type and bounds. *)
type raw = Rfloat of float array | Rint of int array

val raw : t -> int -> raw
(** [raw mem base] exposes the live backing array (not a copy) of [base].
    @raise Failure on a dangling base. *)

val array_count : t -> int

val to_float_array : t -> int -> float array
(** Snapshot of an array's contents as floats (testing / output helper). *)
