let sp_name name =
  match Intrinsic.find name with
  | Some ({ op = Intrinsic.F1 _ | Intrinsic.F2 _; single = false; _ } as i) ->
    Some (Intrinsic.of_op i.op ~single:true).name
  | Some _ | None -> None

let map_funcs (p : Ast.program) ~fnames f =
  {
    Ast.pglobals =
      List.map
        (function
          | Ast.Gfunc fn when List.mem fn.Ast.fname fnames -> Ast.Gfunc (f fn)
          | g -> g)
        p.Ast.pglobals;
  }

let sp_math_fns p ~fnames =
  map_funcs p ~fnames (fun fn ->
      {
        fn with
        Ast.fbody =
          Rewrite.map_exprs_in_block
            (fun e ->
              match e.Ast.edesc with
              | Ast.Call (name, args) ->
                (match sp_name name with
                 | Some name' -> Some { e with Ast.edesc = Ast.Call (name', args) }
                 | None -> None)
              | _ -> None)
            fn.Ast.fbody;
      })

let sp_literals p ~fnames =
  map_funcs p ~fnames (fun fn ->
      {
        fn with
        Ast.fbody =
          Rewrite.map_exprs_in_block
            (fun e ->
              match e.Ast.edesc with
              | Ast.Float_lit (v, false) -> Some { e with Ast.edesc = Ast.Float_lit (v, true) }
              | _ -> None)
            fn.Ast.fbody;
      })

let rec demote_ty = function
  | Ast.Tdouble -> Ast.Tfloat
  | Ast.Tptr t -> Ast.Tptr (demote_ty t)
  | (Ast.Tvoid | Ast.Tbool | Ast.Tint | Ast.Tfloat) as t -> t

let rec demote_stmt (s : Ast.stmt) =
  let s =
    match s.Ast.sdesc with
    | Ast.Decl d -> { s with Ast.sdesc = Ast.Decl { d with Ast.dty = demote_ty d.Ast.dty } }
    | _ -> s
  in
  let s =
    Rewrite.map_exprs_in_stmt
      (fun e ->
        match e.Ast.edesc with
        | Ast.Cast (t, a) when t = Ast.Tdouble -> Some { e with Ast.edesc = Ast.Cast (Ast.Tfloat, a) }
        | _ -> None)
      s
  in
  let sdesc =
    match s.Ast.sdesc with
    | Ast.If (c, b1, b2) -> Ast.If (c, List.map demote_stmt b1, List.map demote_stmt b2)
    | Ast.For (h, b) -> Ast.For (h, List.map demote_stmt b)
    | Ast.While (c, b) -> Ast.While (c, List.map demote_stmt b)
    | Ast.Scope b -> Ast.Scope (List.map demote_stmt b)
    | d -> d
  in
  { s with Ast.sdesc }

let demote_types p ~fnames =
  map_funcs p ~fnames (fun fn ->
      let fparams =
        List.map (fun prm -> { prm with Ast.prm_ty = demote_ty prm.Ast.prm_ty }) fn.Ast.fparams
      in
      let fbody = List.map demote_stmt fn.Ast.fbody in
      { fn with Ast.fparams; fbody; fret = demote_ty fn.Ast.fret })

let apply_all p ~fnames =
  let p = sp_math_fns p ~fnames in
  let p = sp_literals p ~fnames in
  demote_types p ~fnames
