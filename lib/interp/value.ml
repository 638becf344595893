type prec = Sp | Dp

type ptr = { base : int; offset : int }

type t =
  | Vint of int
  | Vbool of bool
  | Vfloat of prec * float
  | Vptr of ptr

let zero_of = function
  | Ast.Tint -> Vint 0
  | Ast.Tbool -> Vbool false
  | Ast.Tfloat -> Vfloat (Sp, 0.0)
  | Ast.Tdouble -> Vfloat (Dp, 0.0)
  | Ast.Tptr _ -> Vptr { base = -1; offset = 0 }
  | Ast.Tvoid -> invalid_arg "Value.zero_of: void"

let to_float = function
  | Vint n -> float_of_int n
  | Vbool b -> if b then 1.0 else 0.0
  | Vfloat (_, f) -> f
  | Vptr _ -> invalid_arg "Value.to_float: pointer"

let to_int = function
  | Vint n -> n
  | Vbool b -> if b then 1 else 0
  | Vfloat (_, f) -> int_of_float f
  | Vptr _ -> invalid_arg "Value.to_int: pointer"

let truth = function
  | Vbool b -> b
  | Vint n -> n <> 0
  | Vfloat (_, f) -> f <> 0.0
  | Vptr _ -> invalid_arg "Value.truth: pointer"

let coerce ty v =
  match ty, v with
  | Ast.Tint, _ -> Vint (to_int v)
  | Ast.Tbool, _ -> Vbool (truth v)
  | Ast.Tfloat, _ -> Vfloat (Sp, Intrinsic.demote (to_float v))
  | Ast.Tdouble, _ -> Vfloat (Dp, to_float v)
  | Ast.Tptr _, Vptr p -> Vptr p
  | Ast.Tptr _, _ -> invalid_arg "Value.coerce: non-pointer to pointer"
  | Ast.Tvoid, _ -> invalid_arg "Value.coerce: void"

let to_string = function
  | Vint n -> string_of_int n
  | Vbool b -> string_of_bool b
  | Vfloat (Sp, f) -> Printf.sprintf "%gf" f
  | Vfloat (Dp, f) -> Printf.sprintf "%g" f
  | Vptr p -> Printf.sprintf "<ptr %d+%d>" p.base p.offset
