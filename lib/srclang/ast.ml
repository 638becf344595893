type ty =
  | Tvoid
  | Tbool
  | Tint
  | Tfloat
  | Tdouble
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
  | Float_lit of float * bool
  | Bool_lit of bool
  | Var of string
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Call of string * expr list
  | Index of expr * expr
  | Cast of ty * expr
  | Cond of expr * expr * expr

type pragma = { pname : string; pargs : string list }

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
  | Assign of expr * assign_op * expr
  | Expr_stmt of expr
  | If of expr * block * block
  | For of for_header * block
  | While of expr * block
  | Return of expr option
  | Break
  | Continue
  | Scope of block

and decl = {
  dty : ty;
  dname : string;
  dinit : expr option;
  darray : expr option;
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

(* Atomic so that rewrites running on several domains at once (see
   Util.Pool) never hand out the same id twice. *)
let counter = Atomic.make 0

let fresh_id () = 1 + Atomic.fetch_and_add counter 1

let mk_expr ?(loc = Loc.dummy) edesc = { eid = fresh_id (); eloc = loc; edesc }

let mk_stmt ?(loc = Loc.dummy) ?(pragmas = []) sdesc =
  { sid = fresh_id (); sloc = loc; pragmas; sdesc }

let funcs p =
  List.filter_map (function Gfunc f -> Some f | Gdecl _ -> None) p.pglobals

let find_func p name = List.find_opt (fun f -> f.fname = name) (funcs p)

let globals_decls p =
  List.filter_map (function Gdecl d -> Some d | Gfunc _ -> None) p.pglobals

let replace_func p f =
  let found = ref false in
  let globals =
    List.map
      (function
        | Gfunc g when g.fname = f.fname ->
          found := true;
          Gfunc f
        | g -> g)
      p.pglobals
  in
  if !found then { pglobals = globals } else { pglobals = globals @ [ Gfunc f ] }

let rec equal_ty a b =
  match a, b with
  | Tvoid, Tvoid | Tbool, Tbool | Tint, Tint | Tfloat, Tfloat | Tdouble, Tdouble ->
    true
  | Tptr a, Tptr b -> equal_ty a b
  | (Tvoid | Tbool | Tint | Tfloat | Tdouble | Tptr _), _ -> false

let is_float_ty = function
  | Tfloat | Tdouble -> true
  | Tvoid | Tbool | Tint | Tptr _ -> false

let sizeof = function
  | Tvoid -> 0
  | Tbool -> 1
  | Tint -> 4
  | Tfloat -> 4
  | Tdouble -> 8
  | Tptr _ -> 8

let rec ty_to_string = function
  | Tvoid -> "void"
  | Tbool -> "bool"
  | Tint -> "int"
  | Tfloat -> "float"
  | Tdouble -> "double"
  | Tptr t -> ty_to_string t ^ "*"

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"

let unop_to_string = function Neg -> "-" | Not -> "!"

let assign_op_to_string = function
  | Set -> "="
  | AddEq -> "+="
  | SubEq -> "-="
  | MulEq -> "*="
  | DivEq -> "/="

let expr_children e =
  match e.edesc with
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ -> []
  | Unary (_, a) | Cast (_, a) -> [ a ]
  | Binary (_, a, b) | Index (a, b) -> [ a; b ]
  | Cond (a, b, c) -> [ a; b; c ]
  | Call (_, args) -> args

let rec fold_expr f acc e =
  let acc = f acc e in
  List.fold_left (fold_expr f) acc (expr_children e)

let stmt_sub_blocks s =
  match s.sdesc with
  | If (_, b1, b2) -> [ b1; b2 ]
  | For (_, b) | While (_, b) | Scope b -> [ b ]
  | Decl _ | Assign _ | Expr_stmt _ | Return _ | Break | Continue -> []

let stmt_exprs s =
  match s.sdesc with
  | Decl { dinit; darray; _ } -> List.filter_map Fun.id [ dinit; darray ]
  | Assign (lhs, _, rhs) -> [ lhs; rhs ]
  | Expr_stmt e -> [ e ]
  | If (c, _, _) | While (c, _) -> [ c ]
  | For (h, _) -> [ h.lo; h.hi; h.step ]
  | Return (Some e) -> [ e ]
  | Return None | Break | Continue | Scope _ -> []

let rec renumber_expr e =
  let edesc =
    match e.edesc with
    | (Int_lit _ | Float_lit _ | Bool_lit _ | Var _) as d -> d
    | Unary (op, a) -> Unary (op, renumber_expr a)
    | Binary (op, a, b) -> Binary (op, renumber_expr a, renumber_expr b)
    | Call (f, args) -> Call (f, List.map renumber_expr args)
    | Index (a, b) -> Index (renumber_expr a, renumber_expr b)
    | Cast (t, a) -> Cast (t, renumber_expr a)
    | Cond (a, b, c) -> Cond (renumber_expr a, renumber_expr b, renumber_expr c)
  in
  { e with eid = fresh_id (); edesc }

let rec renumber_stmt s =
  let sdesc =
    match s.sdesc with
    | Decl d ->
      Decl
        { d with
          dinit = Option.map renumber_expr d.dinit;
          darray = Option.map renumber_expr d.darray }
    | Assign (lhs, op, rhs) -> Assign (renumber_expr lhs, op, renumber_expr rhs)
    | Expr_stmt e -> Expr_stmt (renumber_expr e)
    | If (c, b1, b2) -> If (renumber_expr c, renumber_block b1, renumber_block b2)
    | For (h, b) ->
      let h =
        { h with
          lo = renumber_expr h.lo;
          hi = renumber_expr h.hi;
          step = renumber_expr h.step }
      in
      For (h, renumber_block b)
    | While (c, b) -> While (renumber_expr c, renumber_block b)
    | Return e -> Return (Option.map renumber_expr e)
    | (Break | Continue) as d -> d
    | Scope b -> Scope (renumber_block b)
  in
  { s with sid = fresh_id (); sdesc }

and renumber_block b = List.map renumber_stmt b

let refresh_expr = renumber_expr

let refresh_stmt = renumber_stmt

let renumber p =
  let globals =
    List.map
      (function
        | Gfunc f -> Gfunc { f with fbody = renumber_block f.fbody }
        | Gdecl d ->
          Gdecl
            { d with
              dinit = Option.map renumber_expr d.dinit;
              darray = Option.map renumber_expr d.darray })
      p.pglobals
  in
  { pglobals = globals }
