let is_one (e : Ast.expr) =
  match e.Ast.edesc with
  | Ast.Float_lit (1.0, _) -> true
  | Ast.Int_lit 1 -> true
  | _ -> false

let rewrite_expr (e : Ast.expr) =
  match e.Ast.edesc with
  | Ast.Binary (Ast.Div, one, inner) when is_one one ->
    (match inner.Ast.edesc with
     | Ast.Call (name, [ x ]) ->
       (match Intrinsic.find name with
        | Some { op = Intrinsic.F1 Intrinsic.Sqrt; single; _ } ->
          let rsqrt = Intrinsic.of_op (Intrinsic.F1 Intrinsic.Rsqrt) ~single in
          Some { e with Ast.edesc = Ast.Call (rsqrt.name, [ x ]) }
        | _ -> None)
     | _ -> None)
  | _ -> None

let apply p ~fnames =
  {
    Ast.pglobals =
      List.map
        (function
          | Ast.Gfunc fn when List.mem fn.Ast.fname fnames ->
            Ast.Gfunc
              { fn with Ast.fbody = Rewrite.map_exprs_in_block rewrite_expr fn.Ast.fbody }
          | g -> g)
        p.Ast.pglobals;
  }

let rsqrt_sites p ~fname =
  match Ast.find_func p fname with
  | None -> 0
  | Some fn ->
    let n = ref 0 in
    let count (e : Ast.expr) =
      (match rewrite_expr e with Some _ -> incr n | None -> ());
      None
    in
    ignore (Rewrite.map_exprs_in_block count fn.Ast.fbody);
    !n
