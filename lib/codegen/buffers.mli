(** Buffer-length resolution for offload code generation.

    The HIP and oneAPI generators emit device-buffer allocations and copy
    loops for every pointer argument of the kernel; those need a length
    expression valid inside the generated management function.  Lengths are
    recovered from the arrays' defining declarations and accepted only when
    they are built from literals and global constants (and therefore remain
    meaningful in any scope). *)

val length_expr_of_array : Ast.program -> string -> Ast.expr option
(** Defining size expression of a (global or local) array declaration with
    the given name, if it is scope-independent. *)
