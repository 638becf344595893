let mark_restrict p ~fname =
  match Ast.find_func p fname with
  | None -> p
  | Some fn ->
    let fparams =
      List.map
        (fun prm ->
          match prm.Ast.prm_ty with
          | Ast.Tptr _ -> { prm with Ast.prm_restrict = true }
          | _ -> prm)
        fn.Ast.fparams
    in
    Ast.replace_func p { fn with Ast.fparams }
