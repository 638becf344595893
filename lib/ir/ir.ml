let version = 8

type prec = Psingle | Pdouble

type var_kind = Kint | Kbool | Kfloat of prec

type var = {
  v_name : string;
  v_global : bool;
  v_kind : var_kind;
  v_reg : int;
  v_written : bool;
}

type ety = Efloat32 | Efloat64 | Eint | Ebool

type iexpr =
  | Iconst of int
  | Ivar of int
  | Iadd of iexpr * iexpr
  | Isub of iexpr * iexpr
  | Imul of iexpr * iexpr
  | Ineg of iexpr
  | Imin of iexpr * iexpr
  | Imax of iexpr * iexpr
  | Ilev of int

type arr = {
  a_name : string;
  a_global : bool;
  a_ety : ety;
  a_stored : bool;
  a_size : iexpr option;
}

type cursor = {
  c_arr : int;
  c_coefs : iexpr array;
  c_base : iexpr;
  c_arm : Loc.t option;
}

type cmpop = Clt | Cle | Cgt | Cge | Ceq | Cne

type fop =
  | FConst of int * float
  | IConst of int * int
  | FMov of int * int
  | IMov of int * int
  | ItoF of int * int
  | FtoI of int * int
  | FtoB of int * int
  | ItoB of int * int
  | FDem of int * int
  | FAdd of int * int * int
  | FSub of int * int * int
  | FMul of int * int * int
  | FDiv of int * int * int
  | FNeg of int * int
  | FAddS of int * int * int
  | FSubS of int * int * int
  | FMulS of int * int * int
  | FDivS of int * int * int
  | IAdd of int * int * int
  | ISub of int * int * int
  | IMul of int * int * int
  | INeg of int * int
  | IDivZ of int * int * int * Loc.t
  | IModZ of int * int * int * Loc.t
  | IAbs of int * int
  | IMin of int * int * int
  | IMax of int * int * int
  | ICmp of cmpop * int * int * int
  | FCmp of cmpop * int * int * int
  | INot of int * int
  | FMath1 of Intrinsic.fn1 * int * int
  | FMath1S of Intrinsic.fn1 * int * int
  | FMath2 of Intrinsic.fn2 * int * int * int
  | FMath2S of Intrinsic.fn2 * int * int * int
  | Rand of int
  | FLd of int * int
  | FSt of int * int
  | FStDem of int * int
  | ILd of int * int
  | ISt of int * int
  | IStB of int * int
  | FLdCk of int * int * int * Loc.t
  | FStCk of int * int * int * Loc.t
  | ILdCk of int * int * int * Loc.t
  | IStCk of int * int * int * Loc.t
  | FLdSub of int * int * int
  | FLdSub2 of int * int * int
  | FLdMul of int * int * int
  | FAddMul of int * int * int * int
  | FSubMul of int * int * int * int
  | FRecip of int * int
  | FRsqrt of int * int
  | FAccSt of int * int
  | FMulAccSt of int * int * int
  | FLdSub2S of int * int * int
  | FLdMulS of int * int * int
  | FLdAddS of int * int * int
  | FAddMulS of int * int * int * int
  | FSubMulS of int * int * int * int
  | Alloc of int
  | Called of int

type block = { b_items : bitem array; b_cnt : Counters.t }

and bitem = Bops of fop array | Bsite of int | Bloop of int

type site = { s_cond : int; s_then : block; s_else : block }

type level = {
  l_sid : int;
  l_cle : bool;
  l_lo : iexpr;
  l_lo_coefs : iexpr array;
  l_lo_ops : int;
  l_hi : iexpr;
  l_hi_ops : int;
  l_step : iexpr;
  l_step_ops : int;
  l_index_reg : int option;
  l_body : block;
}

type call = { k_func : string; k_ptrs : int array }

type clamp = { k_site : int; k_base : iexpr; k_bound : iexpr; k_cle : bool }

type fast_loop = {
  fl_sid : int;
  fl_loc : Loc.t;
  fl_levels : level array;
  fl_sites : site array;
  fl_vars : var array;
  fl_arrs : arr array;
  fl_cursors : cursor array;
  fl_calls : call array;
  fl_clamp : clamp option;
  fl_prologue : fop array;
  fl_nf : int;
  fl_ni : int;
}

type plan = (int, fast_loop) Hashtbl.t

let levels_read e =
  let rec go (e : iexpr) acc =
    match e with
    | Ilev l -> if List.mem l acc then acc else l :: acc
    | Iconst _ | Ivar _ -> acc
    | Ineg a -> go a acc
    | Iadd (a, b) | Isub (a, b) | Imul (a, b) | Imin (a, b) | Imax (a, b) -> go a (go b acc)
  in
  go e []

let ety_of_ty = function
  | Ast.Tfloat -> Some Efloat32
  | Ast.Tdouble -> Some Efloat64
  | Ast.Tint -> Some Eint
  | Ast.Tbool -> Some Ebool
  | Ast.Tvoid | Ast.Tptr _ -> None

let ty_of_ety = function
  | Efloat32 -> Ast.Tfloat
  | Efloat64 -> Ast.Tdouble
  | Eint -> Ast.Tint
  | Ebool -> Ast.Tbool
