(** Type checking and scope utilities for the mini-C++ subset.

    Besides whole-program checking, this module exposes the scope queries the
    design-flow tasks need: expression typing under an environment, free
    variables of a code region, and the variables visible at a given
    statement — the ingredients of hotspot extraction (outlining a loop into
    a kernel function). *)

type error = { loc : Loc.t; msg : string }

exception Type_error of error

type fsig = { sig_ret : Ast.ty; sig_args : Ast.ty list }

type env
(** Typing environment: globals, function signatures, local scope. *)

val env_of_program : Ast.program -> env
(** Environment with all globals and function signatures in scope. *)

val env_for_func : Ast.program -> Ast.func -> env
(** [env_of_program] extended with the function's parameters. *)

val bind : env -> string -> Ast.ty -> env

val lookup_var : env -> string -> Ast.ty option

val lookup_func : env -> string -> fsig option
(** User-defined functions first, then {!Intrinsic}s. *)

val expr_ty : env -> Ast.expr -> Ast.ty
(** Type of an expression. @raise Type_error on ill-typed expressions. *)

val check_program : Ast.program -> (unit, error list) result
(** Check every function body; collects all errors instead of stopping at
    the first. *)

val free_vars_block : Ast.block -> string list
(** Variables read or written in the block but not declared inside it, in
    first-use order.  Loop indices of loops inside the block are not free. *)

val free_vars_stmt : Ast.stmt -> string list

val scope_at : Ast.program -> Ast.func -> int -> (string * Ast.ty) list
(** [scope_at prog f sid] is the list of variables visible just before the
    statement with id [sid] inside [f] (globals, parameters, and locals
    declared earlier, innermost last).  @raise Not_found if [sid] does not
    occur in [f]. *)

val numeric_join : Ast.ty -> Ast.ty -> Ast.ty option
(** Usual arithmetic conversions: the wider of two numeric types. *)
