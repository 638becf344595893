open Ast

let prec_of_binop = function
  | Or -> 1
  | And -> 2
  | Eq | Ne -> 3
  | Lt | Le | Gt | Ge -> 4
  | Add | Sub -> 5
  | Mul | Div | Mod -> 6

(* Print a float so it round-trips and always looks like a float literal. *)
let float_literal f single =
  let body =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.17g" f in
      if float_of_string s = f then
        let shorter = Printf.sprintf "%.9g" f in
        if float_of_string shorter = f then shorter else s
      else s
  in
  if single then body ^ "f" else body

let rec expr_prec e =
  match e.edesc with
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ | Call _ | Index _ -> 10
  | Cast _ | Unary _ -> 7
  | Binary (op, _, _) -> prec_of_binop op
  | Cond _ -> 0

and expr_to_buf buf e =
  match e.edesc with
  | Int_lit n ->
    if n < 0 then Buffer.add_string buf (Printf.sprintf "(%d)" n)
    else Buffer.add_string buf (string_of_int n)
  | Float_lit (f, single) -> Buffer.add_string buf (float_literal f single)
  | Bool_lit b -> Buffer.add_string buf (if b then "true" else "false")
  | Var v -> Buffer.add_string buf v
  | Unary (op, a) ->
    Buffer.add_string buf (unop_to_string op);
    (* parenthesise nested unaries: "--x" would lex as a decrement *)
    let nested_unary = match a.edesc with Unary _ -> true | _ -> false in
    paren_if buf (expr_prec a < 7 || nested_unary) a
  | Binary (op, a, b) ->
    let p = prec_of_binop op in
    paren_if buf (expr_prec a < p) a;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (binop_to_string op);
    Buffer.add_char buf ' ';
    (* right operand needs parens at equal precedence for -,/,% *)
    paren_if buf (expr_prec b <= p) b
  | Call (f, args) ->
    Buffer.add_string buf f;
    Buffer.add_char buf '(';
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string buf ", ";
        expr_to_buf buf a)
      args;
    Buffer.add_char buf ')'
  | Index (base, idx) ->
    paren_if buf (expr_prec base < 10) base;
    Buffer.add_char buf '[';
    expr_to_buf buf idx;
    Buffer.add_char buf ']'
  | Cast (ty, a) ->
    Buffer.add_char buf '(';
    Buffer.add_string buf (ty_to_string ty);
    Buffer.add_char buf ')';
    paren_if buf (expr_prec a < 7) a
  | Cond (c, a, b) ->
    paren_if buf (expr_prec c <= 0) c;
    Buffer.add_string buf " ? ";
    expr_to_buf buf a;
    Buffer.add_string buf " : ";
    paren_if buf (expr_prec b < 0) b

and paren_if buf need e =
  if need then begin
    Buffer.add_char buf '(';
    expr_to_buf buf e;
    Buffer.add_char buf ')'
  end
  else expr_to_buf buf e

let expr_to_string e =
  let buf = Buffer.create 64 in
  expr_to_buf buf e;
  Buffer.contents buf

let pragma_to_string (p : pragma) =
  "#pragma " ^ String.concat " " (p.pname :: p.pargs)

let ind n = String.make (2 * n) ' '

let decl_to_string (d : decl) =
  let buf = Buffer.create 32 in
  if d.dconst then Buffer.add_string buf "const ";
  Buffer.add_string buf (ty_to_string d.dty);
  Buffer.add_char buf ' ';
  Buffer.add_string buf d.dname;
  (match d.darray with
   | Some n ->
     Buffer.add_char buf '[';
     expr_to_buf buf n;
     Buffer.add_char buf ']'
   | None -> ());
  (match d.dinit with
   | Some e ->
     Buffer.add_string buf " = ";
     expr_to_buf buf e
   | None -> ());
  Buffer.contents buf

let rec stmt_to_buf buf level (s : stmt) =
  List.iter
    (fun p ->
      Buffer.add_string buf (ind level);
      Buffer.add_string buf (pragma_to_string p);
      Buffer.add_char buf '\n')
    s.pragmas;
  Buffer.add_string buf (ind level);
  match s.sdesc with
  | Decl d ->
    Buffer.add_string buf (decl_to_string d);
    Buffer.add_string buf ";\n"
  | Assign (lhs, op, rhs) ->
    expr_to_buf buf lhs;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (assign_op_to_string op);
    Buffer.add_char buf ' ';
    expr_to_buf buf rhs;
    Buffer.add_string buf ";\n"
  | Expr_stmt e ->
    expr_to_buf buf e;
    Buffer.add_string buf ";\n"
  | If (c, then_blk, else_blk) ->
    Buffer.add_string buf "if (";
    expr_to_buf buf c;
    Buffer.add_string buf ") {\n";
    block_to_buf buf (level + 1) then_blk;
    Buffer.add_string buf (ind level);
    if else_blk = [] then Buffer.add_string buf "}\n"
    else begin
      Buffer.add_string buf "} else {\n";
      block_to_buf buf (level + 1) else_blk;
      Buffer.add_string buf (ind level);
      Buffer.add_string buf "}\n"
    end
  | For (h, body) ->
    Buffer.add_string buf "for (int ";
    Buffer.add_string buf h.index;
    Buffer.add_string buf " = ";
    expr_to_buf buf h.lo;
    Buffer.add_string buf "; ";
    Buffer.add_string buf h.index;
    Buffer.add_string buf (match h.cmp with CLt -> " < " | CLe -> " <= ");
    expr_to_buf buf h.hi;
    Buffer.add_string buf "; ";
    Buffer.add_string buf h.index;
    (match h.step.edesc with
     | Int_lit 1 -> Buffer.add_string buf "++"
     | _ ->
       Buffer.add_string buf " += ";
       expr_to_buf buf h.step);
    Buffer.add_string buf ") {\n";
    block_to_buf buf (level + 1) body;
    Buffer.add_string buf (ind level);
    Buffer.add_string buf "}\n"
  | While (c, body) ->
    Buffer.add_string buf "while (";
    expr_to_buf buf c;
    Buffer.add_string buf ") {\n";
    block_to_buf buf (level + 1) body;
    Buffer.add_string buf (ind level);
    Buffer.add_string buf "}\n"
  | Return None -> Buffer.add_string buf "return;\n"
  | Return (Some e) ->
    Buffer.add_string buf "return ";
    expr_to_buf buf e;
    Buffer.add_string buf ";\n"
  | Break -> Buffer.add_string buf "break;\n"
  | Continue -> Buffer.add_string buf "continue;\n"
  | Scope body ->
    Buffer.add_string buf "{\n";
    block_to_buf buf (level + 1) body;
    Buffer.add_string buf (ind level);
    Buffer.add_string buf "}\n"

and block_to_buf buf level (b : block) = List.iter (stmt_to_buf buf level) b

let block_to_string ?(indent = 0) b =
  let buf = Buffer.create 256 in
  block_to_buf buf indent b;
  Buffer.contents buf

let param_to_string (p : param) =
  let buf = Buffer.create 32 in
  if p.prm_const then Buffer.add_string buf "const ";
  Buffer.add_string buf (ty_to_string p.prm_ty);
  if p.prm_restrict then Buffer.add_string buf " __restrict__";
  Buffer.add_char buf ' ';
  Buffer.add_string buf p.prm_name;
  Buffer.contents buf

let func_to_string (f : func) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (ty_to_string f.fret);
  Buffer.add_char buf ' ';
  Buffer.add_string buf f.fname;
  Buffer.add_char buf '(';
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (param_to_string p))
    f.fparams;
  Buffer.add_string buf ") {\n";
  block_to_buf buf 1 f.fbody;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let program_to_string (p : program) =
  let buf = Buffer.create 2048 in
  List.iteri
    (fun i g ->
      if i > 0 then Buffer.add_char buf '\n';
      match g with
      | Gfunc f -> Buffer.add_string buf (func_to_string f)
      | Gdecl d ->
        Buffer.add_string buf (decl_to_string d);
        Buffer.add_string buf ";\n")
    p.pglobals;
  Buffer.contents buf
