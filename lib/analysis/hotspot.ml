type hotspot = {
  hs_sid : int;
  hs_func : string;
  hs_depth : int;
  hs_work : float;
  hs_share : float;
  hs_iterations : int;
  hs_stats : Machine.loop_stats;
}

let detect ?config p =
  let config = Memo.analysis_config ?config () in
  let result = Memo.run ~config p in
  let total = Counters.work result.counters in
  let total = if total <= 0.0 then 1.0 else total in
  let candidates =
    List.concat_map
      (fun fn ->
        List.filter_map
          (fun (lm : Query.loop_match) ->
            match Machine.find_loop_stats result lm.lm_stmt.sid with
            | None -> None
            | Some stats ->
              Some
                {
                  hs_sid = lm.lm_stmt.sid;
                  hs_func = fn.Ast.fname;
                  hs_depth = Query.loop_depth lm.lm_ctx;
                  hs_work = stats.ls_work;
                  hs_share = stats.ls_work /. total;
                  hs_iterations = stats.ls_iterations;
                  hs_stats = stats;
                })
          (Query.loops_in_func fn))
      (Ast.funcs p)
  in
  List.sort (fun a b -> compare b.hs_work a.hs_work) candidates

type extraction = {
  ex_program : Ast.program;
  ex_kernel : string;
  ex_params : Ast.param list;
  ex_call_sid : int;
}

let extract p ~sid ~kernel_name =
  match Query.find_stmt p sid with
  | None -> Error (Printf.sprintf "no statement with id %d" sid)
  | Some (ctx, stmt) ->
    (match stmt.sdesc with
     | Ast.For _ | Ast.While _ ->
       let fn = ctx.Query.cx_func in
       (* global declarations stay visible inside the outlined kernel, so
          only function-local free variables become parameters *)
       let global_names =
         List.map (fun (d : Ast.decl) -> d.Ast.dname) (Ast.globals_decls p)
       in
       let free =
         List.filter
           (fun v -> not (List.mem v global_names))
           (Typecheck.free_vars_stmt stmt)
       in
       (match Typecheck.scope_at p fn sid with
        | exception Not_found -> Error "statement scope could not be resolved"
        | scope ->
          let written = Query.writes_in_block [ stmt ] in
          let reads = Query.reads_in_block [ stmt ] in
          let classify v =
            match List.assoc_opt v scope with
            | None -> Error (Printf.sprintf "free variable %s has no visible type" v)
            | Some (Ast.Tptr elem) ->
              let read_only = not (List.mem v written) in
              Ok
                {
                  Ast.prm_name = v;
                  prm_ty = Ast.Tptr elem;
                  prm_restrict = false;
                  prm_const = read_only;
                }
            | Some ty ->
              if List.mem v written then
                Error
                  (Printf.sprintf
                     "loop writes free scalar %s; scalar results must flow through \
                      arrays before extraction" v)
              else
                Ok { Ast.prm_name = v; prm_ty = ty; prm_restrict = false; prm_const = true }
          in
          let rec build acc = function
            | [] -> Ok (List.rev acc)
            | v :: rest ->
              (match classify v with
               | Ok prm -> build (prm :: acc) rest
               | Error _ as e -> e)
          in
          (* pass pointers first, then scalars: stable, readable signatures *)
          let free_sorted =
            let ptrs, scalars =
              List.partition
                (fun v ->
                  match List.assoc_opt v scope with
                  | Some (Ast.Tptr _) -> true
                  | Some _ | None -> false)
                free
            in
            ptrs @ scalars
          in
          (match build [] free_sorted with
           | Error msg -> Error msg
           | Ok params ->
             ignore reads;
             (* the loop subtree moves into the kernel, so its node ids stay
                unique program-wide and analyses can still address the loop *)
             let body = [ stmt ] in
             let kernel =
               {
                 Ast.fname = kernel_name;
                 fret = Ast.Tvoid;
                 fparams = params;
                 fbody = body;
                 floc = stmt.Ast.sloc;
               }
             in
             let args = List.map (fun prm -> Builder.var prm.Ast.prm_name) params in
             let call_stmt = Builder.expr_stmt (Builder.call kernel_name args) in
             let p = Rewrite.replace_stmt p ~sid call_stmt in
             (* place the kernel definition right before its caller *)
             let globals =
               List.concat_map
                 (fun g ->
                   match g with
                   | Ast.Gfunc f when f.Ast.fname = fn.Ast.fname ->
                     [ Ast.Gfunc kernel; g ]
                   | _ -> [ g ])
                 p.Ast.pglobals
             in
             Ok
               {
                 ex_program = { Ast.pglobals = globals };
                 ex_kernel = kernel_name;
                 ex_params = params;
                 ex_call_sid = call_stmt.Ast.sid;
               }))
     | _ -> Error (Printf.sprintf "statement %d is not a loop" sid))
