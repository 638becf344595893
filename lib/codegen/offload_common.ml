open Builder

let split_params params =
  List.partition
    (fun (prm : Ast.param) ->
      match prm.Ast.prm_ty with Ast.Tptr _ -> true | _ -> false)
    params

let call_site_args (p : Ast.program) ~callee =
  let found = ref None in
  let check_expr (e : Ast.expr) =
    (match e.Ast.edesc with
     | Ast.Call (name, args) when name = callee && !found = None ->
       found :=
         Some
           (List.map
              (fun (a : Ast.expr) ->
                match a.Ast.edesc with Ast.Var v -> Some v | _ -> None)
              args)
     | _ -> ());
    None
  in
  ignore (Rewrite.map_exprs check_expr p);
  !found

let resolve_lengths (p : Ast.program) ~kernel params =
  match Ast.find_func p kernel with
  | None -> None
  | Some fn ->
    (match call_site_args p ~callee:kernel with
     | None -> None
     | Some args when List.length args <> List.length fn.Ast.fparams -> None
     | Some args ->
       let pairs =
         List.combine
           (List.map (fun (q : Ast.param) -> q.Ast.prm_name) fn.Ast.fparams)
           args
       in
       let resolve (prm : Ast.param) =
         match List.assoc_opt prm.Ast.prm_name pairs with
         | None | Some None -> None
         | Some (Some arg) ->
           (match Buffers.length_expr_of_array p arg with
            | Some e -> Some (prm.Ast.prm_name, e)
            | None -> None)
       in
       let resolved = List.map resolve params in
       if List.for_all Option.is_some resolved then
         Some (List.filter_map Fun.id resolved)
       else None)

let buffer_decl ~vendor (prm : Ast.param) ~len ~dev_name =
  let elem = match prm.Ast.prm_ty with Ast.Tptr t -> t | t -> t in
  Ast.mk_stmt
    ~pragmas:[ pragma vendor [ "device_buffer" ] ]
    (Ast.Decl
       {
         Ast.dty = elem;
         dname = dev_name prm.Ast.prm_name;
         dinit = None;
         darray = Some (Ast.refresh_expr len);
         dconst = false;
       })

let copy_loop ~vendor ~tag ~dst ~src ~len =
  let k = "__k" in
  for_
    ~pragmas:[ pragma vendor [ tag ] ]
    k ~lo:(ilit 0) ~hi:(Ast.refresh_expr len)
    [ assign (idx2 dst (var k)) (idx2 src (var k)) ]
