open Ast

type error = { loc : Loc.t; msg : string }

exception Type_error of error

type fsig = { sig_ret : ty; sig_args : ty list }

module Smap = Map.Make (String)

type env = { vars : ty Smap.t; fsigs : fsig Smap.t }

let err loc fmt = Printf.ksprintf (fun msg -> raise (Type_error { loc; msg })) fmt

let decl_ty (dd : decl) = match dd.darray with Some _ -> Tptr dd.dty | None -> dd.dty

let env_of_program p =
  let vars =
    List.fold_left
      (fun acc g ->
        match g with
        | Gdecl dd -> Smap.add dd.dname (decl_ty dd) acc
        | Gfunc _ -> acc)
      Smap.empty p.pglobals
  in
  let fsigs =
    List.fold_left
      (fun acc g ->
        match g with
        | Gfunc fn ->
          Smap.add fn.fname
            { sig_ret = fn.fret; sig_args = List.map (fun p -> p.prm_ty) fn.fparams }
            acc
        | Gdecl _ -> acc)
      Smap.empty p.pglobals
  in
  { vars; fsigs }

let bind env name ty = { env with vars = Smap.add name ty env.vars }

let env_for_func p fn =
  List.fold_left (fun env prm -> bind env prm.prm_name prm.prm_ty)
    (env_of_program p) fn.fparams

let lookup_var env name = Smap.find_opt name env.vars

let lookup_func env name =
  match Smap.find_opt name env.fsigs with
  | Some s -> Some s
  | None ->
    Option.map
      (fun (i : Intrinsic.t) -> { sig_ret = i.ret; sig_args = i.args })
      (Intrinsic.find name)

let is_numeric = function
  | Tint | Tfloat | Tdouble -> true
  | Tvoid | Tbool | Tptr _ -> false

let numeric_join a b =
  match a, b with
  | Tdouble, (Tint | Tfloat | Tdouble) | (Tint | Tfloat), Tdouble -> Some Tdouble
  | Tfloat, (Tint | Tfloat) | Tint, Tfloat -> Some Tfloat
  | Tint, Tint -> Some Tint
  | (Tvoid | Tbool | Tptr _ | Tint | Tfloat | Tdouble), _ -> None

(* Implicit conversion allowed from [src] to [dst]? *)
let converts ~src ~dst =
  equal_ty src dst
  || (is_numeric src && is_numeric dst)
  || (match src, dst with Tbool, Tint -> true | Tint, Tbool -> true | _, _ -> false)

let rec expr_ty env e =
  match e.edesc with
  | Int_lit _ -> Tint
  | Float_lit (_, single) -> if single then Tfloat else Tdouble
  | Bool_lit _ -> Tbool
  | Var v ->
    (match lookup_var env v with
     | Some t -> t
     | None -> err e.eloc "unbound variable %s" v)
  | Unary (Neg, a) ->
    let t = expr_ty env a in
    if is_numeric t then t else err e.eloc "negation of non-numeric type %s" (ty_to_string t)
  | Unary (Not, a) ->
    let t = expr_ty env a in
    (match t with
     | Tbool | Tint -> Tbool
     | _ -> err e.eloc "logical not on %s" (ty_to_string t))
  | Binary (op, a, b) ->
    let ta = expr_ty env a and tb = expr_ty env b in
    (match op with
     | Add | Sub | Mul | Div ->
       (match numeric_join ta tb with
        | Some t -> t
        | None ->
          err e.eloc "arithmetic on %s and %s" (ty_to_string ta) (ty_to_string tb))
     | Mod ->
       if equal_ty ta Tint && equal_ty tb Tint then Tint
       else err e.eloc "%% requires int operands"
     | Lt | Le | Gt | Ge ->
       if numeric_join ta tb <> None then Tbool
       else err e.eloc "comparison of %s and %s" (ty_to_string ta) (ty_to_string tb)
     | Eq | Ne ->
       if numeric_join ta tb <> None || (equal_ty ta Tbool && equal_ty tb Tbool) then
         Tbool
       else err e.eloc "equality on %s and %s" (ty_to_string ta) (ty_to_string tb)
     | And | Or ->
       let ok t = match t with Tbool | Tint -> true | _ -> false in
       if ok ta && ok tb then Tbool
       else err e.eloc "logical op on %s and %s" (ty_to_string ta) (ty_to_string tb))
  | Call (name, args) ->
    (match lookup_func env name with
     | None -> err e.eloc "call to unknown function %s" name
     | Some s ->
       if List.length s.sig_args <> List.length args then
         err e.eloc "function %s expects %d arguments, got %d" name
           (List.length s.sig_args) (List.length args);
       List.iter2
         (fun expected arg ->
           let actual = expr_ty env arg in
           if not (converts ~src:actual ~dst:expected) then
             err arg.eloc "argument of type %s where %s expected" (ty_to_string actual)
               (ty_to_string expected))
         s.sig_args args;
       s.sig_ret)
  | Index (base, idx) ->
    let tb = expr_ty env base and ti = expr_ty env idx in
    if not (equal_ty ti Tint) then err idx.eloc "array index must be int";
    (match tb with
     | Tptr t -> t
     | _ -> err base.eloc "indexing non-pointer type %s" (ty_to_string tb))
  | Cast (ty, a) ->
    let ta = expr_ty env a in
    if is_numeric ty && is_numeric ta then ty
    else if equal_ty ty ta then ty
    else err e.eloc "invalid cast from %s to %s" (ty_to_string ta) (ty_to_string ty)
  | Cond (c, a, b) ->
    let tc = expr_ty env c in
    (match tc with
     | Tbool | Tint -> ()
     | _ -> err c.eloc "condition must be bool, found %s" (ty_to_string tc));
    let ta = expr_ty env a and tb = expr_ty env b in
    (match numeric_join ta tb with
     | Some t -> t
     | None ->
       if equal_ty ta tb then ta
       else err e.eloc "branches of ?: have types %s and %s" (ty_to_string ta)
         (ty_to_string tb))

let is_lvalue e = match e.edesc with Var _ | Index _ -> true | _ -> false

let rec check_block env ~ret blk =
  ignore (List.fold_left (fun env s -> check_stmt env ~ret s) env blk)

and check_stmt env ~ret s =
  match s.sdesc with
  | Decl dd ->
    (match dd.darray with
     | Some n -> if not (equal_ty (expr_ty env n) Tint) then err n.eloc "array size must be int"
     | None -> ());
    (match dd.dinit with
     | Some e0 ->
       let t = expr_ty env e0 in
       let target = decl_ty dd in
       if not (converts ~src:t ~dst:target) then
         err e0.eloc "initialising %s with %s" (ty_to_string target) (ty_to_string t)
     | None -> ());
    bind env dd.dname (decl_ty dd)
  | Assign (lhs, op, rhs) ->
    if not (is_lvalue lhs) then err lhs.eloc "left side of assignment is not an lvalue";
    let tl = expr_ty env lhs and tr = expr_ty env rhs in
    (match op with
     | Set ->
       if not (converts ~src:tr ~dst:tl) then
         err rhs.eloc "assigning %s to %s" (ty_to_string tr) (ty_to_string tl)
     | AddEq | SubEq | MulEq | DivEq ->
       if not (is_numeric tl && is_numeric tr) then
         err rhs.eloc "compound assignment on %s and %s" (ty_to_string tl)
           (ty_to_string tr));
    env
  | Expr_stmt e ->
    ignore (expr_ty env e);
    env
  | If (c, b1, b2) ->
    check_cond env c;
    check_block env ~ret b1;
    check_block env ~ret b2;
    env
  | For (h, body) ->
    let env_body = bind env h.index Tint in
    if not (equal_ty (expr_ty env h.lo) Tint) then err h.lo.eloc "loop bound must be int";
    if not (equal_ty (expr_ty env_body h.hi) Tint) then err h.hi.eloc "loop bound must be int";
    if not (equal_ty (expr_ty env_body h.step) Tint) then err h.step.eloc "loop step must be int";
    check_block env_body ~ret body;
    env
  | While (c, body) ->
    check_cond env c;
    check_block env ~ret body;
    env
  | Return None ->
    if not (equal_ty ret Tvoid) then err s.sloc "missing return value";
    env
  | Return (Some e) ->
    let t = expr_ty env e in
    if not (converts ~src:t ~dst:ret) then
      err e.eloc "returning %s from function returning %s" (ty_to_string t)
        (ty_to_string ret);
    env
  | Break | Continue -> env
  | Scope body ->
    check_block env ~ret body;
    env

and check_cond env c =
  match expr_ty env c with
  | Tbool | Tint -> ()
  | t -> err c.eloc "condition must be bool, found %s" (ty_to_string t)

let check_func penv fn =
  let env =
    List.fold_left (fun env prm -> bind env prm.prm_name prm.prm_ty) penv fn.fparams
  in
  check_block env ~ret:fn.fret fn.fbody

let check_program p =
  let penv = env_of_program p in
  let errors = ref [] in
  List.iter
    (fun g ->
      match g with
      | Gfunc fn -> (try check_func penv fn with Type_error e -> errors := e :: !errors)
      | Gdecl dd -> (
        try
          match dd.dinit with
          | Some e0 ->
            let t = expr_ty penv e0 in
            if not (converts ~src:t ~dst:(decl_ty dd)) then
              err e0.eloc "initialising %s with %s"
                (ty_to_string (decl_ty dd))
                (ty_to_string t)
          | None -> ()
        with Type_error e -> errors := e :: !errors))
    p.pglobals;
  match List.rev !errors with [] -> Ok () | es -> Error es

(* ---- free variables ---- *)

module Sset = Set.Make (String)

let rec fv_expr bound acc e =
  match e.edesc with
  | Var v -> if Sset.mem v bound || List.mem v acc then acc else v :: acc
  | Int_lit _ | Float_lit _ | Bool_lit _ -> acc
  | _ -> List.fold_left (fv_expr bound) acc (expr_children e)

let rec fv_stmt bound acc s =
  match s.sdesc with
  | Decl dd ->
    let acc = List.fold_left (fv_expr bound) acc (stmt_exprs s) in
    (Sset.add dd.dname bound, acc)
  | For (h, body) ->
    let acc = fv_expr bound acc h.lo in
    let bound_body = Sset.add h.index bound in
    let acc = fv_expr bound_body acc h.hi in
    let acc = fv_expr bound_body acc h.step in
    let _, acc = fv_block bound_body acc body in
    (bound, acc)
  | If (_, b1, b2) ->
    let acc = List.fold_left (fv_expr bound) acc (stmt_exprs s) in
    let _, acc = fv_block bound acc b1 in
    let _, acc = fv_block bound acc b2 in
    (bound, acc)
  | While (_, body) | Scope body ->
    let acc = List.fold_left (fv_expr bound) acc (stmt_exprs s) in
    let _, acc = fv_block bound acc body in
    (bound, acc)
  | Assign _ | Expr_stmt _ | Return _ | Break | Continue ->
    (bound, List.fold_left (fv_expr bound) acc (stmt_exprs s))

and fv_block bound acc blk =
  List.fold_left (fun (bound, acc) s -> fv_stmt bound acc s) (bound, acc) blk

let free_vars_block blk =
  let _, acc = fv_block Sset.empty [] blk in
  List.rev acc

let free_vars_stmt s = free_vars_block [ s ]

(* ---- scope at a statement ---- *)

exception Found of (string * ty) list

let scope_at p fn sid =
  let penv = env_of_program p in
  let initial =
    List.fold_left (fun acc prm -> (prm.prm_name, prm.prm_ty) :: acc)
      (Smap.bindings penv.vars) fn.fparams
  in
  let rec walk scope blk =
    List.fold_left
      (fun scope s ->
        if s.sid = sid then raise (Found (List.rev scope));
        match s.sdesc with
        | Decl dd -> (dd.dname, decl_ty dd) :: scope
        | For (h, body) ->
          ignore (walk ((h.index, Tint) :: scope) body);
          scope
        | If (_, b1, b2) ->
          ignore (walk scope b1);
          ignore (walk scope b2);
          scope
        | While (_, body) | Scope body ->
          ignore (walk scope body);
          scope
        | Assign _ | Expr_stmt _ | Return _ | Break | Continue -> scope)
      scope blk
  in
  try
    ignore (walk initial fn.fbody);
    raise Not_found
  with Found scope -> scope
