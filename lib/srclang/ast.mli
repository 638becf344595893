(** Abstract syntax tree of the mini-C++ subset.

    Every statement and expression node carries a unique integer id.  Ids are
    how the Artisan-style query results refer back into the tree and how the
    rewriter addresses nodes, mirroring the paper's "programmatic access to
    source code" (Fig. 2).  Use [fresh_id] when synthesising nodes, or the
    combinators in {!Builder}. *)

type ty =
  | Tvoid
  | Tbool
  | Tint
  | Tfloat   (** 32-bit *)
  | Tdouble  (** 64-bit *)
  | Tptr of ty

type unop = Neg | Not

type binop =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type assign_op = Set | AddEq | SubEq | MulEq | DivEq

type expr = { eid : int; eloc : Loc.t; edesc : expr_desc }

and expr_desc =
  | Int_lit of int
  | Float_lit of float * bool  (** value, [true] = single-precision literal *)
  | Bool_lit of bool
  | Var of string
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Call of string * expr list
  | Index of expr * expr       (** [a\[i\]] — base is an expression of pointer type *)
  | Cast of ty * expr
  | Cond of expr * expr * expr (** [c ? a : b] *)

type pragma = { pname : string; pargs : string list }
(** [#pragma pname pargs...], e.g. [{pname="omp"; pargs=\["parallel"; "for"\]}]
    or [{pname="unroll"; pargs=\["4"\]}]. *)

(** Canonical counted loop: [for (int i = lo; i < hi; i += step)].  The
    parser normalises C loop syntax ([i++], [i += k], [<] or [<=]) into this
    form, which is what the dependence and trip-count analyses consume. *)
type for_header = {
  index : string;
  lo : expr;
  cmp : cmp_op;
  hi : expr;
  step : expr;
}

and cmp_op = CLt | CLe

type stmt = { sid : int; sloc : Loc.t; pragmas : pragma list; sdesc : stmt_desc }

and stmt_desc =
  | Decl of decl
  | Assign of expr * assign_op * expr  (** lhs (Var/Index) op= rhs *)
  | Expr_stmt of expr                  (** expression evaluated for effects *)
  | If of expr * block * block
  | For of for_header * block
  | While of expr * block
  | Return of expr option
  | Break
  | Continue
  | Scope of block                     (** explicit nested { ... } *)

and decl = {
  dty : ty;
  dname : string;
  dinit : expr option;
  darray : expr option;  (** [Some n] for a stack/heap array [double a\[n\]] *)
  dconst : bool;
}

and block = stmt list

type param = { prm_name : string; prm_ty : ty; prm_restrict : bool; prm_const : bool }

type func = {
  fname : string;
  fret : ty;
  fparams : param list;
  fbody : block;
  floc : Loc.t;
}

type global =
  | Gfunc of func
  | Gdecl of decl

type program = { pglobals : global list }

val fresh_id : unit -> int
(** Next unique node id (shared counter for statements and expressions). *)

val mk_expr : ?loc:Loc.t -> expr_desc -> expr
val mk_stmt : ?loc:Loc.t -> ?pragmas:pragma list -> stmt_desc -> stmt

val funcs : program -> func list
(** All function definitions, in source order. *)

val find_func : program -> string -> func option

val globals_decls : program -> decl list

val replace_func : program -> func -> program
(** Replace the function with the same name; append if absent. *)

val equal_ty : ty -> ty -> bool

val is_float_ty : ty -> bool
(** [Tfloat] or [Tdouble]. *)

val sizeof : ty -> int
(** Size in bytes of a scalar of this type (pointers count as 8). *)

val ty_to_string : ty -> string
(** C syntax, e.g. ["double*"]. *)

val binop_to_string : binop -> string
val unop_to_string : unop -> string
val assign_op_to_string : assign_op -> string

val expr_children : expr -> expr list
(** Direct sub-expressions. *)

val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a
(** Pre-order fold over an expression and its descendants. *)

val stmt_sub_blocks : stmt -> block list
(** Direct sub-blocks of a statement (both arms for [If]). *)

val stmt_exprs : stmt -> expr list
(** Top-level expressions appearing directly in the statement (not
    recursing into sub-blocks).  For [For] this is [lo; hi; step]. *)

val refresh_expr : expr -> expr
(** Deep copy with fresh ids on every node; use when the same expression is
    spliced into the tree more than once. *)

val refresh_stmt : stmt -> stmt
(** Deep copy of a statement subtree with fresh ids. *)

val renumber : program -> program
(** Assign fresh ids to every node; used after textual round-trips to keep
    ids unique across programs. *)
