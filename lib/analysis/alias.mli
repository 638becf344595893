(** Dynamic pointer-alias analysis (Fig. 4).

    Ensures "that pointer arguments do not reference overlapping memory
    locations".  Under the interpreter's memory model every array is a
    distinct base, so the check is exact: two pointer arguments alias iff a
    call passed them the same base.  The verdict is read from the kernel
    profile's alias tracing ([Kprofile.kp_no_alias]); functions proven
    alias-free get their pointer parameters marked [__restrict__], which
    the code generators rely on. *)

val mark_restrict : Ast.program -> fname:string -> Ast.program
(** Set [__restrict__] on every pointer parameter of the function. *)
