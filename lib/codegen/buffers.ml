(* an expression is scope-independent when it only reads global constants *)
let scope_independent (p : Ast.program) (e : Ast.expr) =
  let globals = List.map (fun (d : Ast.decl) -> d.dname) (Ast.globals_decls p) in
  Ast.fold_expr
    (fun ok e ->
      match e.Ast.edesc with
      | Ast.Var v -> ok && List.mem v globals
      | Ast.Call _ -> false
      | _ -> ok)
    true e

let decl_size (d : Ast.decl) name =
  if d.dname = name then d.darray else None

let length_expr_of_array (p : Ast.program) name =
  (* search globals first, then every function body *)
  let from_globals =
    List.find_map (fun d -> decl_size d name) (Ast.globals_decls p)
  in
  let found =
    match from_globals with
    | Some e -> Some e
    | None ->
      let in_func (fn : Ast.func) =
        let result = ref None in
        let rec walk (s : Ast.stmt) =
          (match s.sdesc with
           | Decl d -> (match decl_size d name with Some e -> result := Some e | None -> ())
           | _ -> ());
          List.iter (List.iter walk) (Ast.stmt_sub_blocks s)
        in
        List.iter walk fn.fbody;
        !result
      in
      List.find_map in_func (Ast.funcs p)
  in
  match found with
  | Some e when scope_independent p e -> Some e
  | Some _ | None -> None
