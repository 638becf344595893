(* Tests for the mini-C++ frontend: lexer, parser, pretty-printer,
   typechecker, query engine, rewriter, and LOC accounting. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let parse = Parser.parse_program
let pexpr = Parser.parse_expr
let pstmt = Parser.parse_stmt

(* ---- lexer ---- *)

let toks src = List.map fst (Lexer.tokenize src)

let test_lex_basic () =
  Alcotest.(check int) "token count" 6 (List.length (toks "int x = 1;"))

let test_lex_comments () =
  let t = toks "1 // comment\n/* block\ncomment */ 2" in
  checki "comments skipped" 3 (List.length t);
  check "values" true (t = [ Token.INT_LIT 1; Token.INT_LIT 2; Token.EOF ])

let test_lex_float_suffix () =
  (match toks "1.5f 2.5 3f" with
   | [ Token.FLOAT_LIT (a, true); Token.FLOAT_LIT (b, false); Token.FLOAT_LIT (c, true);
       Token.EOF ] ->
     check "1.5f" true (a = 1.5);
     check "2.5" true (b = 2.5);
     check "3f" true (c = 3.0)
   | _ -> Alcotest.fail "unexpected tokens")

let test_lex_scientific () =
  (match toks "1e3 2.5e-2" with
   | [ Token.FLOAT_LIT (a, false); Token.FLOAT_LIT (b, false); Token.EOF ] ->
     check "1e3" true (a = 1000.0);
     check "2.5e-2" true (Float.abs (b -. 0.025) < 1e-12)
   | _ -> Alcotest.fail "unexpected tokens")

let test_lex_operators () =
  check "two-char ops" true
    (toks "<= >= == != && || += -= *= /= ++ --"
     = [ Token.LE; Token.GE; Token.EQEQ; Token.NE; Token.AMPAMP; Token.BARBAR;
         Token.PLUSEQ; Token.MINUSEQ; Token.STAREQ; Token.SLASHEQ; Token.PLUSPLUS;
         Token.MINUSMINUS; Token.EOF ])

let test_lex_pragma () =
  (match toks "#pragma omp parallel for\nx" with
   | [ Token.PRAGMA text; Token.IDENT "x"; Token.EOF ] ->
     checks "pragma text" "omp parallel for" text
   | _ -> Alcotest.fail "pragma not lexed")

let test_lex_keywords () =
  check "keywords" true
    (toks "void bool int float double if else for while return const true false break continue"
     |> List.length = 16)

let test_lex_restrict_variants () =
  check "restrict variants" true
    (toks "restrict __restrict__ __restrict"
     = [ Token.KW_RESTRICT; Token.KW_RESTRICT; Token.KW_RESTRICT; Token.EOF ])

let test_lex_error_char () =
  check "bad char raises" true
    (try ignore (Lexer.tokenize "int $x;"); false with Lexer.Error _ -> true)

let test_lex_unterminated_comment () =
  check "unterminated comment raises" true
    (try ignore (Lexer.tokenize "/* never closed"); false with Lexer.Error _ -> true)

let test_lex_locations () =
  match Lexer.tokenize "a\n  b" with
  | [ (_, la); (_, lb); _ ] ->
    checki "line a" 1 la.Loc.line;
    checki "line b" 2 lb.Loc.line;
    checki "col b" 3 lb.Loc.col
  | _ -> Alcotest.fail "unexpected"

(* ---- parser: expressions ---- *)

let show_e e = Pretty.expr_to_string e

let test_parse_precedence_mul_add () =
  checks "mul binds tighter" "1 + 2 * 3" (show_e (pexpr "1 + 2 * 3"))

let test_parse_precedence_paren () =
  checks "parens preserved" "(1 + 2) * 3" (show_e (pexpr "(1 + 2) * 3"))

let test_parse_left_assoc_sub () =
  (* 10 - 3 - 2 must parse as (10-3)-2 = 5 *)
  match (pexpr "10 - 3 - 2").Ast.edesc with
  | Ast.Binary (Ast.Sub, { Ast.edesc = Ast.Binary (Ast.Sub, _, _); _ }, _) -> ()
  | _ -> Alcotest.fail "subtraction not left-associative"

let test_parse_unary_minus () =
  match (pexpr "-x * y").Ast.edesc with
  | Ast.Binary (Ast.Mul, { Ast.edesc = Ast.Unary (Ast.Neg, _); _ }, _) -> ()
  | _ -> Alcotest.fail "unary minus should bind tighter than *"

let test_parse_ternary () =
  match (pexpr "a < b ? 1 : 2").Ast.edesc with
  | Ast.Cond ({ Ast.edesc = Ast.Binary (Ast.Lt, _, _); _ }, _, _) -> ()
  | _ -> Alcotest.fail "ternary structure"

let test_parse_ternary_right_assoc () =
  match (pexpr "a ? 1 : b ? 2 : 3").Ast.edesc with
  | Ast.Cond (_, _, { Ast.edesc = Ast.Cond (_, _, _); _ }) -> ()
  | _ -> Alcotest.fail "ternary should be right-associative"

let test_parse_call_args () =
  match (pexpr "pow(x, 2.0)").Ast.edesc with
  | Ast.Call ("pow", [ _; _ ]) -> ()
  | _ -> Alcotest.fail "call args"

let test_parse_index_chain () =
  checks "nested index" "a[i][j]" (show_e (pexpr "a[i][j]"))

let test_parse_cast () =
  match (pexpr "(double)n / 2.0").Ast.edesc with
  | Ast.Binary (Ast.Div, { Ast.edesc = Ast.Cast (Ast.Tdouble, _); _ }, _) -> ()
  | _ -> Alcotest.fail "cast then divide"

let test_parse_logic_precedence () =
  (* && binds tighter than || *)
  match (pexpr "a || b && c").Ast.edesc with
  | Ast.Binary (Ast.Or, _, { Ast.edesc = Ast.Binary (Ast.And, _, _); _ }) -> ()
  | _ -> Alcotest.fail "&& should bind tighter than ||"

let test_parse_mod () =
  match (pexpr "(i * 3 + k) % n").Ast.edesc with
  | Ast.Binary (Ast.Mod, _, _) -> ()
  | _ -> Alcotest.fail "mod"

let test_lex_trailing_dot_float () =
  (match toks "1. 2.f" with
   | [ Token.FLOAT_LIT (a, false); Token.FLOAT_LIT (b, true); Token.EOF ] ->
     check "1." true (a = 1.0);
     check "2.f" true (b = 2.0)
   | _ -> Alcotest.fail "trailing-dot floats")

let test_lex_int_suffix_f () =
  (match toks "3f" with
   | [ Token.FLOAT_LIT (v, true); Token.EOF ] -> check "3f is a float" true (v = 3.0)
   | _ -> Alcotest.fail "3f")

let test_parse_nested_calls () =
  checks "nested calls" "fmax(sqrt(x), fabs(y))"
    (show_e (pexpr "fmax(sqrt(x), fabs(y))"))

let test_parse_deep_parens () =
  check "deep nesting parses" true
    (match (pexpr "((((x))))").Ast.edesc with Ast.Var "x" -> true | _ -> false)

(* ---- parser: statements ---- *)

let test_parse_for_canonical () =
  match (pstmt "for (int i = 0; i < n; i++) { }").Ast.sdesc with
  | Ast.For (h, []) ->
    checks "index" "i" h.Ast.index;
    check "cmp lt" true (h.Ast.cmp = Ast.CLt);
    check "step 1" true (match h.Ast.step.Ast.edesc with Ast.Int_lit 1 -> true | _ -> false)
  | _ -> Alcotest.fail "for"

let test_parse_for_le_and_step () =
  match (pstmt "for (int i = 2; i <= n; i += 3) { }").Ast.sdesc with
  | Ast.For (h, _) ->
    check "cmp le" true (h.Ast.cmp = Ast.CLe);
    check "step 3" true (match h.Ast.step.Ast.edesc with Ast.Int_lit 3 -> true | _ -> false)
  | _ -> Alcotest.fail "for le"

let test_parse_for_i_eq_i_plus () =
  match (pstmt "for (int i = 0; i < n; i = i + 2) { }").Ast.sdesc with
  | Ast.For (h, _) ->
    check "step 2" true (match h.Ast.step.Ast.edesc with Ast.Int_lit 2 -> true | _ -> false)
  | _ -> Alcotest.fail "for i=i+2"

let test_parse_for_single_stmt_body () =
  match (pstmt "for (int i = 0; i < 4; i++) x += 1.0;").Ast.sdesc with
  | Ast.For (_, [ { Ast.sdesc = Ast.Assign (_, Ast.AddEq, _); _ } ]) -> ()
  | _ -> Alcotest.fail "unbraced body"

let test_parse_for_wrong_index_rejected () =
  check "mismatched condition var rejected" true
    (try ignore (pstmt "for (int i = 0; j < n; i++) { }"); false
     with Parser.Error _ -> true)

let test_parse_for_downward_rejected () =
  check "i-- loops rejected" true
    (try ignore (pstmt "for (int i = n; i > 0; i--) { }"); false
     with Parser.Error _ -> true)

let test_parse_if_else () =
  match (pstmt "if (a < b) { x = 1; } else { x = 2; }").Ast.sdesc with
  | Ast.If (_, [ _ ], [ _ ]) -> ()
  | _ -> Alcotest.fail "if/else"

let test_parse_if_no_else () =
  match (pstmt "if (a < b) x = 1;").Ast.sdesc with
  | Ast.If (_, [ _ ], []) -> ()
  | _ -> Alcotest.fail "if without else"

let test_parse_while () =
  match (pstmt "while (x < 10.0) { x *= 2.0; }").Ast.sdesc with
  | Ast.While (_, [ { Ast.sdesc = Ast.Assign (_, Ast.MulEq, _); _ } ]) -> ()
  | _ -> Alcotest.fail "while"

let test_parse_incr_stmt () =
  match (pstmt "x++;").Ast.sdesc with
  | Ast.Assign (_, Ast.AddEq, { Ast.edesc = Ast.Int_lit 1; _ }) -> ()
  | _ -> Alcotest.fail "x++ sugar"

let test_parse_decl_array () =
  match (pstmt "double a[N * 2];").Ast.sdesc with
  | Ast.Decl { Ast.darray = Some _; dty = Ast.Tdouble; _ } -> ()
  | _ -> Alcotest.fail "array decl"

let test_parse_const_decl () =
  match (pstmt "const int k = 3;").Ast.sdesc with
  | Ast.Decl { Ast.dconst = true; dinit = Some _; _ } -> ()
  | _ -> Alcotest.fail "const decl"

let test_parse_pragma_attach () =
  let s = pstmt "#pragma omp parallel for\nfor (int i = 0; i < n; i++) { }" in
  match s.Ast.pragmas with
  | [ { Ast.pname = "omp"; pargs = [ "parallel"; "for" ] } ] -> ()
  | _ -> Alcotest.fail "pragma attachment"

let test_parse_two_pragmas () =
  let s = pstmt "#pragma unroll 4\n#pragma oneapi single_task\nwhile (x < 1.0) { x += 0.1; }" in
  checki "two pragmas" 2 (List.length s.Ast.pragmas)

let test_parse_program_globals () =
  let p = parse "const int N = 4;\ndouble buf[N];\nint main() { return 0; }" in
  checki "globals" 2 (List.length (Ast.globals_decls p));
  checki "functions" 1 (List.length (Ast.funcs p))

let test_parse_params () =
  let p = parse "void f(const double* __restrict__ a, double* b, int n) { }" in
  match Ast.find_func p "f" with
  | Some fn ->
    (match fn.Ast.fparams with
     | [ pa; pb; pn ] ->
       check "a const" true pa.Ast.prm_const;
       check "a restrict" true pa.Ast.prm_restrict;
       check "b plain" true ((not pb.Ast.prm_const) && not pb.Ast.prm_restrict);
       check "n int" true (pn.Ast.prm_ty = Ast.Tint)
     | _ -> Alcotest.fail "params")
  | None -> Alcotest.fail "no f"

let test_parse_error_message_has_location () =
  (try
     ignore (parse "int main() { int x = ; }");
     Alcotest.fail "should not parse"
   with Parser.Error (loc, _) -> checki "error line" 1 loc.Loc.line)

let test_parse_break_continue () =
  let p = parse "int main() { for (int i = 0; i < 9; i++) { if (i == 2) { continue; } if (i == 5) { break; } } return 0; }" in
  checki "one function" 1 (List.length (Ast.funcs p))

(* ---- pretty round-trip ---- *)

let roundtrip_stable src =
  let p = parse src in
  let t1 = Pretty.program_to_string p in
  let t2 = Pretty.program_to_string (parse t1) in
  checks "round trip stable" t1 t2

let test_roundtrip_simple () =
  roundtrip_stable "int main() { double x = 1.5; print_float(x); return 0; }"

let test_roundtrip_apps () =
  List.iter (fun (a : App.t) -> roundtrip_stable a.app_source) Suite.all

let test_pretty_negative_literal () =
  checks "negative literal parenthesised" "(-3)" (show_e (Builder.ilit (-3)))

let test_pretty_float_roundtrip_value () =
  let e = Builder.flit 0.1 in
  match (pexpr (show_e e)).Ast.edesc with
  | Ast.Float_lit (v, false) -> check "0.1 survives" true (v = 0.1)
  | _ -> Alcotest.fail "float"

(* random expression generator for the parse/print round-trip property *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map Builder.ilit (0 -- 99);
        map Builder.flit (map (fun n -> float_of_int n /. 8.0) (0 -- 800));
        map (fun n -> Builder.var (Printf.sprintf "v%d" n)) (0 -- 5);
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          ( 4,
            map3
              (fun op a b -> Ast.mk_expr (Ast.Binary (op, a, b)))
              (oneofl Ast.[ Add; Sub; Mul; Div; Lt; Le; Gt; Ge; Eq; Ne ])
              (node (depth - 1)) (node (depth - 1)) );
          (1, map (fun a -> Builder.neg a) (node (depth - 1)));
          (1, map2 (fun a b -> Builder.idx a b) (map (fun n -> Builder.var (Printf.sprintf "arr%d" n)) (0 -- 2)) (node (depth - 1)));
          (1, map3 (fun c a b -> Builder.cond c a b) (node (depth - 1)) (node (depth - 1)) (node (depth - 1)));
        ]
  in
  node 4

let rec expr_equal_modulo_ids (a : Ast.expr) (b : Ast.expr) =
  match a.Ast.edesc, b.Ast.edesc with
  | Ast.Int_lit x, Ast.Int_lit y -> x = y
  | Ast.Float_lit (x, sx), Ast.Float_lit (y, sy) -> x = y && sx = sy
  | Ast.Bool_lit x, Ast.Bool_lit y -> x = y
  | Ast.Var x, Ast.Var y -> x = y
  | Ast.Unary (o1, x), Ast.Unary (o2, y) -> o1 = o2 && expr_equal_modulo_ids x y
  | Ast.Binary (o1, x1, y1), Ast.Binary (o2, x2, y2) ->
    o1 = o2 && expr_equal_modulo_ids x1 x2 && expr_equal_modulo_ids y1 y2
  | Ast.Call (f1, a1), Ast.Call (f2, a2) ->
    f1 = f2 && List.length a1 = List.length a2
    && List.for_all2 expr_equal_modulo_ids a1 a2
  | Ast.Index (x1, y1), Ast.Index (x2, y2) ->
    expr_equal_modulo_ids x1 x2 && expr_equal_modulo_ids y1 y2
  | Ast.Cast (t1, x), Ast.Cast (t2, y) -> Ast.equal_ty t1 t2 && expr_equal_modulo_ids x y
  | Ast.Cond (c1, x1, y1), Ast.Cond (c2, x2, y2) ->
    expr_equal_modulo_ids c1 c2 && expr_equal_modulo_ids x1 x2
    && expr_equal_modulo_ids y1 y2
  | _, _ -> false

let qcheck_expr_roundtrip =
  QCheck.Test.make ~name:"print-parse round trip preserves expressions" ~count:300
    (QCheck.make gen_expr ~print:show_e)
    (fun e -> expr_equal_modulo_ids e (pexpr (show_e e)))

(* ---- typecheck ---- *)

let typed src = Typecheck.check_program (parse src)

let test_type_ok () =
  check "well-typed" true (typed "int main() { double x = 1; int n = 3; x = x * (double)n; return n; }" = Ok ())

let test_type_unbound_var () =
  check "unbound var" true (match typed "int main() { x = 1; return 0; }" with Error _ -> true | Ok () -> false)

let test_type_unknown_function () =
  check "unknown function" true
    (match typed "int main() { double y = mystery(1.0); return 0; }" with
     | Error _ -> true
     | Ok () -> false)

let test_type_arity () =
  check "arity mismatch" true
    (match typed "int main() { double y = sqrt(1.0, 2.0); return 0; }" with
     | Error _ -> true
     | Ok () -> false)

let test_type_index_non_pointer () =
  check "indexing scalar" true
    (match typed "int main() { int x = 1; int y = x[0]; return 0; }" with
     | Error _ -> true
     | Ok () -> false)

let test_type_mod_floats_rejected () =
  check "float % rejected" true
    (match typed "int main() { double x = 1.5 % 2.0; return 0; }" with
     | Error _ -> true
     | Ok () -> false)

let test_type_return_mismatch () =
  check "pointer returned as int" true
    (match typed "int main() { double a[3]; return 0; } double* f(double* p) { return p; }" with
     | Ok () -> true
     | Error _ -> false)

let test_type_collects_all_errors () =
  match typed "int main() { x = 1; return 0; } void g() { y = 2.0; }" with
  | Error errs -> checki "two errors" 2 (List.length errs)
  | Ok () -> Alcotest.fail "should fail"

let test_free_vars () =
  let s = pstmt "for (int j = 0; j < n; j++) { acc += a[j] * b[i]; }" in
  let fv = Typecheck.free_vars_stmt s in
  check "free vars" true
    (List.sort compare fv = [ "a"; "acc"; "b"; "i"; "n" ])

let test_free_vars_decl_not_free () =
  let s = pstmt "for (int j = 0; j < 4; j++) { double t = 1.0; acc += t; }" in
  check "t not free" true (not (List.mem "t" (Typecheck.free_vars_stmt s)))

let test_scope_at () =
  let p = parse "const int N = 4; void f(double* a) { int k = 1; for (int i = 0; i < N; i++) { a[i] = (double)k; } }" in
  let fn = Option.get (Ast.find_func p "f") in
  let loop = List.hd (Query.loops_in_func fn) in
  let body_stmt = List.hd loop.Query.lm_body in
  let scope = Typecheck.scope_at p fn body_stmt.Ast.sid in
  check "i visible" true (List.mem_assoc "i" scope);
  check "k visible" true (List.mem_assoc "k" scope);
  check "a visible" true (List.mem_assoc "a" scope);
  check "N visible" true (List.mem_assoc "N" scope)

(* ---- query ---- *)

let nest_src =
  "void f(double* a, int n) {\n\
   for (int i = 0; i < n; i++) {\n\
   for (int j = 0; j < 4; j++) { a[i * 4 + j] = 0.0; }\n\
   }\n\
   while (n > 0) { n = n - 1; }\n\
   }"

let test_query_loops () =
  let p = parse nest_src in
  checki "for loops" 2 (List.length (Query.loops p))

let test_query_outermost () =
  let p = parse nest_src in
  let fn = Option.get (Ast.find_func p "f") in
  checki "outermost" 1 (List.length (Query.outermost_loops fn))

let test_query_inner () =
  let p = parse nest_src in
  let fn = Option.get (Ast.find_func p "f") in
  let outer = List.hd (Query.outermost_loops fn) in
  checki "inner" 1 (List.length (Query.inner_loops outer))

let test_query_depth () =
  let p = parse nest_src in
  let fn = Option.get (Ast.find_func p "f") in
  let depths =
    List.map (fun (lm : Query.loop_match) -> Query.loop_depth lm.lm_ctx)
      (Query.loops_in_func fn)
  in
  check "depths 0 and 1" true (List.sort compare depths = [ 0; 1 ])

let test_query_contains () =
  let p = parse nest_src in
  let fn = Option.get (Ast.find_func p "f") in
  let outer = List.hd (Query.outermost_loops fn) in
  let inner = List.hd (Query.inner_loops outer) in
  check "outer contains inner" true
    (Query.stmt_contains outer.Query.lm_stmt inner.Query.lm_stmt.Ast.sid);
  check "inner does not contain outer" false
    (Query.stmt_contains inner.Query.lm_stmt outer.Query.lm_stmt.Ast.sid)

let test_query_writes_reads () =
  let s = pstmt "for (int i = 0; i < n; i++) { out[i] = src[i] + bias; }" in
  check "writes" true (Query.writes_in_block [ s ] = [ "out" ]);
  let reads = Query.reads_in_block [ s ] in
  check "reads src" true (List.mem "src" reads);
  check "reads bias" true (List.mem "bias" reads);
  check "out not read" true (not (List.mem "out" reads))

let test_query_compound_assign_reads_lhs () =
  let s = pstmt "acc[i] += x;" in
  check "compound read" true (List.mem "acc" (Query.reads_in_block [ s ]))

let test_query_calls () =
  let p = parse "void g() { } void f() { g(); print_int(1); g(); }" in
  let fn = Option.get (Ast.find_func p "f") in
  checki "all calls" 3 (List.length (Query.calls_in_block fn.Ast.fbody));
  check "user calls dedup" true (Query.calls_user_functions p fn.Ast.fbody = [ "g" ])

let test_query_array_base () =
  check "base of a[i]" true (Query.array_base_name (pexpr "a[i]") = Some "a");
  check "base of a[i][j]" true (Query.array_base_name (pexpr "a[i][j]") = Some "a");
  check "no base of (a+b)" true (Query.array_base_name (pexpr "a + b") = None)

(* ---- rewrite ---- *)

let test_rewrite_add_pragma () =
  let p = parse "void f(int n) { for (int i = 0; i < n; i++) { } }" in
  let lm = List.hd (Query.loops p) in
  let p = Rewrite.add_pragma p ~sid:lm.Query.lm_stmt.Ast.sid (Builder.pragma "unroll" [ "4" ]) in
  let lm = List.hd (Query.loops p) in
  check "pragma added" true
    (List.exists (fun (pr : Ast.pragma) -> pr.pname = "unroll") lm.Query.lm_stmt.Ast.pragmas)

let test_rewrite_set_pragmas_replaces () =
  let p = parse "void f(int n) { for (int i = 0; i < n; i++) { } }" in
  let lm = List.hd (Query.loops p) in
  let sid = lm.Query.lm_stmt.Ast.sid in
  let p = Rewrite.add_pragma p ~sid (Builder.pragma "unroll" [ "2" ]) in
  let p = Rewrite.set_pragmas p ~sid [ Builder.pragma "unroll" [ "8" ] ] in
  let lm = List.hd (Query.loops p) in
  (match lm.Query.lm_stmt.Ast.pragmas with
   | [ { Ast.pname = "unroll"; pargs = [ "8" ] } ] -> ()
   | _ -> Alcotest.fail "set_pragmas should replace")

let test_rewrite_insert_before_after () =
  let p = parse "void f() { print_int(2); }" in
  let fn = Option.get (Ast.find_func p "f") in
  let target = List.hd fn.Ast.fbody in
  let p = Rewrite.insert_before p ~sid:target.Ast.sid [ Builder.expr_stmt (Builder.call "print_int" [ Builder.ilit 1 ]) ] in
  let p = Rewrite.insert_after p ~sid:target.Ast.sid [ Builder.expr_stmt (Builder.call "print_int" [ Builder.ilit 3 ]) ] in
  let result = Machine.run p ~config:{ Machine.default_config with entry = "f" } in
  Alcotest.(check (list string)) "order" [ "1"; "2"; "3" ] result.Machine.output

let test_rewrite_delete () =
  let p = parse "void f() { print_int(1); print_int(2); }" in
  let fn = Option.get (Ast.find_func p "f") in
  let target = List.hd fn.Ast.fbody in
  let p = Rewrite.delete_stmt p ~sid:target.Ast.sid in
  let result = Machine.run p ~config:{ Machine.default_config with entry = "f" } in
  Alcotest.(check (list string)) "deleted" [ "2" ] result.Machine.output

let test_rewrite_replace_stmt () =
  let p = parse "void f() { print_int(1); }" in
  let fn = Option.get (Ast.find_func p "f") in
  let target = List.hd fn.Ast.fbody in
  let p =
    Rewrite.replace_stmt p ~sid:target.Ast.sid
      (Builder.expr_stmt (Builder.call "print_int" [ Builder.ilit 9 ]))
  in
  let result = Machine.run p ~config:{ Machine.default_config with entry = "f" } in
  Alcotest.(check (list string)) "replaced" [ "9" ] result.Machine.output

let test_rewrite_subst_var () =
  let blk = [ pstmt "y = x + x;" ] in
  let blk = Rewrite.subst_var "x" (Builder.ilit 3) blk in
  checks "substituted" "y = 3 + 3;\n" (Pretty.block_to_string blk)

let test_rewrite_rename_var () =
  let blk = [ pstmt "for (int i = 0; i < n; i++) { a[i] = 0.0; }" ] in
  let blk = Rewrite.rename_var ~from:"i" ~to_:"t" blk in
  let text = Pretty.block_to_string blk in
  check "renamed" true
    (match (List.hd blk).Ast.sdesc with Ast.For (h, _) -> h.Ast.index = "t" | _ -> false);
  check "body uses t" true
    (let rec contains i = i + 4 <= String.length text && (String.sub text i 4 = "a[t]" || contains (i + 1)) in
     contains 0)

let test_rewrite_map_exprs_bottom_up () =
  (* replace every int literal by literal+1; nested literals must all change *)
  let e = pexpr "1 + 2 * 3" in
  let e' =
    Rewrite.subst_var_expr "none" (Builder.ilit 0) e |> fun e ->
    (* use map via Rewrite.map_exprs on a wrapper program *)
    ignore e;
    e
  in
  ignore e';
  let p = parse "int main() { int x = 1 + 2 * 3; return x; }" in
  let p =
    Rewrite.map_exprs
      (fun e ->
        match e.Ast.edesc with
        | Ast.Int_lit n -> Some (Builder.ilit (n + 1))
        | _ -> None)
      p
  in
  let result = Machine.run p in
  check "all literals bumped" true (result.Machine.ret = Some (Value.Vint 14))

let test_refresh_expr_fresh_ids () =
  let e = pexpr "a[i] + b[j]" in
  let e' = Ast.refresh_expr e in
  let ids ex = Ast.fold_expr (fun acc n -> n.Ast.eid :: acc) [] ex in
  check "disjoint ids" true
    (List.for_all (fun i -> not (List.mem i (ids e))) (ids e'))

(* ---- loc count ---- *)

let test_loc_count_text () =
  checki "counts code lines" 2 (Loc_count.count_text "int x;\n\n// comment\ny = 1;\n")

let test_loc_added_pct () =
  let p1 = parse "int main() { return 0; }" in
  let p2 = parse "int f() { return 1; } int main() { return 0; }" in
  let reference_loc = Loc_count.program_loc p1 in
  check "added positive" true (Loc_count.added_pct ~reference_loc ~design:p2 > 0.0);
  check "none added" true (Loc_count.added_pct ~reference_loc ~design:p1 = 0.0)

let suite =
  [
    Alcotest.test_case "lex basic" `Quick test_lex_basic;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex float suffix" `Quick test_lex_float_suffix;
    Alcotest.test_case "lex scientific" `Quick test_lex_scientific;
    Alcotest.test_case "lex operators" `Quick test_lex_operators;
    Alcotest.test_case "lex pragma" `Quick test_lex_pragma;
    Alcotest.test_case "lex keywords" `Quick test_lex_keywords;
    Alcotest.test_case "lex restrict variants" `Quick test_lex_restrict_variants;
    Alcotest.test_case "lex error char" `Quick test_lex_error_char;
    Alcotest.test_case "lex unterminated comment" `Quick test_lex_unterminated_comment;
    Alcotest.test_case "lex locations" `Quick test_lex_locations;
    Alcotest.test_case "lex trailing dot" `Quick test_lex_trailing_dot_float;
    Alcotest.test_case "lex 3f" `Quick test_lex_int_suffix_f;
    Alcotest.test_case "parse nested calls" `Quick test_parse_nested_calls;
    Alcotest.test_case "parse deep parens" `Quick test_parse_deep_parens;
    Alcotest.test_case "parse precedence mul/add" `Quick test_parse_precedence_mul_add;
    Alcotest.test_case "parse parens" `Quick test_parse_precedence_paren;
    Alcotest.test_case "parse left assoc" `Quick test_parse_left_assoc_sub;
    Alcotest.test_case "parse unary minus" `Quick test_parse_unary_minus;
    Alcotest.test_case "parse ternary" `Quick test_parse_ternary;
    Alcotest.test_case "parse ternary right assoc" `Quick test_parse_ternary_right_assoc;
    Alcotest.test_case "parse call args" `Quick test_parse_call_args;
    Alcotest.test_case "parse index chain" `Quick test_parse_index_chain;
    Alcotest.test_case "parse cast" `Quick test_parse_cast;
    Alcotest.test_case "parse logic precedence" `Quick test_parse_logic_precedence;
    Alcotest.test_case "parse mod" `Quick test_parse_mod;
    Alcotest.test_case "parse canonical for" `Quick test_parse_for_canonical;
    Alcotest.test_case "parse for <= and step" `Quick test_parse_for_le_and_step;
    Alcotest.test_case "parse for i=i+2" `Quick test_parse_for_i_eq_i_plus;
    Alcotest.test_case "parse unbraced for body" `Quick test_parse_for_single_stmt_body;
    Alcotest.test_case "parse rejects mismatched index" `Quick test_parse_for_wrong_index_rejected;
    Alcotest.test_case "parse rejects downward loop" `Quick test_parse_for_downward_rejected;
    Alcotest.test_case "parse if/else" `Quick test_parse_if_else;
    Alcotest.test_case "parse if no else" `Quick test_parse_if_no_else;
    Alcotest.test_case "parse while" `Quick test_parse_while;
    Alcotest.test_case "parse x++" `Quick test_parse_incr_stmt;
    Alcotest.test_case "parse array decl" `Quick test_parse_decl_array;
    Alcotest.test_case "parse const decl" `Quick test_parse_const_decl;
    Alcotest.test_case "parse pragma attach" `Quick test_parse_pragma_attach;
    Alcotest.test_case "parse two pragmas" `Quick test_parse_two_pragmas;
    Alcotest.test_case "parse program globals" `Quick test_parse_program_globals;
    Alcotest.test_case "parse params" `Quick test_parse_params;
    Alcotest.test_case "parse error location" `Quick test_parse_error_message_has_location;
    Alcotest.test_case "parse break/continue" `Quick test_parse_break_continue;
    Alcotest.test_case "roundtrip simple" `Quick test_roundtrip_simple;
    Alcotest.test_case "roundtrip all benchmarks" `Quick test_roundtrip_apps;
    Alcotest.test_case "pretty negative literal" `Quick test_pretty_negative_literal;
    Alcotest.test_case "pretty float value" `Quick test_pretty_float_roundtrip_value;
    QCheck_alcotest.to_alcotest qcheck_expr_roundtrip;
    Alcotest.test_case "type ok" `Quick test_type_ok;
    Alcotest.test_case "type unbound var" `Quick test_type_unbound_var;
    Alcotest.test_case "type unknown function" `Quick test_type_unknown_function;
    Alcotest.test_case "type arity" `Quick test_type_arity;
    Alcotest.test_case "type index non-pointer" `Quick test_type_index_non_pointer;
    Alcotest.test_case "type float mod rejected" `Quick test_type_mod_floats_rejected;
    Alcotest.test_case "type pointer return" `Quick test_type_return_mismatch;
    Alcotest.test_case "type collects errors" `Quick test_type_collects_all_errors;
    Alcotest.test_case "free vars" `Quick test_free_vars;
    Alcotest.test_case "free vars exclude decls" `Quick test_free_vars_decl_not_free;
    Alcotest.test_case "scope at" `Quick test_scope_at;
    Alcotest.test_case "query loops" `Quick test_query_loops;
    Alcotest.test_case "query outermost" `Quick test_query_outermost;
    Alcotest.test_case "query inner" `Quick test_query_inner;
    Alcotest.test_case "query depth" `Quick test_query_depth;
    Alcotest.test_case "query contains" `Quick test_query_contains;
    Alcotest.test_case "query writes/reads" `Quick test_query_writes_reads;
    Alcotest.test_case "query compound reads lhs" `Quick test_query_compound_assign_reads_lhs;
    Alcotest.test_case "query calls" `Quick test_query_calls;
    Alcotest.test_case "query array base" `Quick test_query_array_base;
    Alcotest.test_case "rewrite add pragma" `Quick test_rewrite_add_pragma;
    Alcotest.test_case "rewrite set pragmas" `Quick test_rewrite_set_pragmas_replaces;
    Alcotest.test_case "rewrite insert before/after" `Quick test_rewrite_insert_before_after;
    Alcotest.test_case "rewrite delete" `Quick test_rewrite_delete;
    Alcotest.test_case "rewrite replace" `Quick test_rewrite_replace_stmt;
    Alcotest.test_case "rewrite subst var" `Quick test_rewrite_subst_var;
    Alcotest.test_case "rewrite rename var" `Quick test_rewrite_rename_var;
    Alcotest.test_case "rewrite map exprs" `Quick test_rewrite_map_exprs_bottom_up;
    Alcotest.test_case "refresh expr ids" `Quick test_refresh_expr_fresh_ids;
    Alcotest.test_case "loc count text" `Quick test_loc_count_text;
    Alcotest.test_case "loc added pct" `Quick test_loc_added_pct;
  ]
