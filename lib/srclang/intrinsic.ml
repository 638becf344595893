type fn1 = Sqrt | Rsqrt | Sin | Cos | Tan | Exp | Log | Tanh | Erf | Fabs | Floor | Ceil

type fn2 = Pow | Fmin | Fmax

type op = F1 of fn1 | F2 of fn2 | Abs | Imin | Imax | Rand01 | Print_int | Print_float

type cls = Special | Cheap | Int_op | Uncounted

type t = { name : string; op : op; args : Ast.ty list; ret : Ast.ty; single : bool; cls : cls }

external demote : float -> float = "psa_demote_byte" "psa_demote" [@@unboxed] [@@noalloc]

(* Abramowitz-Stegun 7.1.26 rational approximation *)
let[@inline] erf x =
  let sign = if x < 0.0 then -1.0 else 1.0 in
  let x = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let y =
    1.0
    -. (((((1.061405429 *. t -. 1.453152027) *. t +. 1.421413741) *. t
          -. 0.284496736) *. t +. 0.254829592)
        *. t *. exp (-.x *. x))
  in
  sign *. y

let erf_into (r : float array) d a = r.(d) <- erf r.(a)

let eval1 f x =
  match f with
  | Sqrt -> sqrt x
  | Rsqrt -> 1.0 /. sqrt x
  | Sin -> sin x
  | Cos -> cos x
  | Tan -> tan x
  | Exp -> exp x
  | Log -> log x
  | Tanh -> tanh x
  | Erf -> erf x
  | Fabs -> Float.abs x
  | Floor -> Float.floor x
  | Ceil -> Float.ceil x

let eval2 f x y =
  match f with Pow -> Float.pow x y | Fmin -> Float.min x y | Fmax -> Float.max x y

(* each float function as its double and its single-precision entry *)
let float_fns =
  let twins op dname sname cls =
    let entry name single =
      let ty = if single then Ast.Tfloat else Ast.Tdouble in
      let args = match op with F2 _ -> [ ty; ty ] | _ -> [ ty ] in
      { name; op; args; ret = ty; single; cls }
    in
    [ entry dname false; entry sname true ]
  in
  List.concat
    [
      twins (F1 Sqrt) "sqrt" "sqrtf" Special;
      twins (F1 Rsqrt) "rsqrt" "rsqrtf" Special;
      twins (F1 Sin) "sin" "sinf" Special;
      twins (F1 Cos) "cos" "cosf" Special;
      twins (F1 Tan) "tan" "tanf" Special;
      twins (F1 Exp) "exp" "expf" Special;
      twins (F1 Log) "log" "logf" Special;
      twins (F1 Tanh) "tanh" "tanhf" Special;
      twins (F1 Erf) "erf" "erff" Special;
      twins (F2 Pow) "pow" "powf" Special;
      twins (F1 Fabs) "fabs" "fabsf" Cheap;
      twins (F1 Floor) "floor" "floorf" Cheap;
      twins (F1 Ceil) "ceil" "ceilf" Cheap;
      twins (F2 Fmin) "fmin" "fminf" Cheap;
      twins (F2 Fmax) "fmax" "fmaxf" Cheap;
    ]

let all =
  let other name op args ret cls = { name; op; args; ret; single = false; cls } in
  float_fns
  @ [
      other "abs" Abs [ Ast.Tint ] Ast.Tint Int_op;
      other "imin" Imin [ Ast.Tint; Ast.Tint ] Ast.Tint Int_op;
      other "imax" Imax [ Ast.Tint; Ast.Tint ] Ast.Tint Int_op;
      other "rand01" Rand01 [] Ast.Tdouble Uncounted;
      other "print_int" Print_int [ Ast.Tint ] Ast.Tvoid Uncounted;
      other "print_float" Print_float [ Ast.Tdouble ] Ast.Tvoid Uncounted;
    ]

let table = Hashtbl.of_seq (List.to_seq (List.map (fun i -> (i.name, i)) all))

let find name = Hashtbl.find_opt table name

let of_op op ~single = List.find (fun i -> i.op = op && i.single = single) all
