(** Source emission for the mini-C++ AST.

    The printer produces human-readable C++-like text — the paper stresses
    that "Artisan ASTs closely mirror the source-code as written without
    lowering, [so] output implementations are human-readable and can be
    further hand-tuned".  Pragmas print on their own line before the
    statement they annotate.  Emitted text re-parses to an equivalent AST
    (see the round-trip property tests). *)

val expr_to_string : Ast.expr -> string

val block_to_string : ?indent:int -> Ast.block -> string

val func_to_string : Ast.func -> string

val program_to_string : Ast.program -> string

val pragma_to_string : Ast.pragma -> string
(** Full line including [#pragma]. *)
