type op_counts = {
  sp_addsub : int;
  sp_mul : int;
  sp_div : int;
  sp_sqrt : int;
  sp_heavy : int;
  dp_addsub : int;
  dp_mul : int;
  dp_div : int;
  dp_sqrt : int;
  dp_heavy : int;
  int_ops : int;
  mem_sites : int;
  local_sites : int;  (* accesses to kernel-local arrays: registers/BRAM, not LSUs *)
}

type t = {
  ks_fname : string;
  ks_ops : op_counts;
  ks_locals : int;
  ks_special_calls : int;
  ks_regs_estimate : int;
  ks_regs_raw : int;
  ks_has_serial_inner : inner_summary option;
  ks_local_array_bytes : int;
  ks_gather_sites : int;
}

and inner_summary = {
  is_sid : int;
  is_fp_reduction : bool;
}

let zero_ops =
  {
    sp_addsub = 0;
    sp_mul = 0;
    sp_div = 0;
    sp_sqrt = 0;
    sp_heavy = 0;
    dp_addsub = 0;
    dp_mul = 0;
    dp_div = 0;
    dp_sqrt = 0;
    dp_heavy = 0;
    int_ops = 0;
    mem_sites = 0;
    local_sites = 0;
  }

let scale_ops k o =
  {
    sp_addsub = k * o.sp_addsub;
    sp_mul = k * o.sp_mul;
    sp_div = k * o.sp_div;
    sp_sqrt = k * o.sp_sqrt;
    sp_heavy = k * o.sp_heavy;
    dp_addsub = k * o.dp_addsub;
    dp_mul = k * o.dp_mul;
    dp_div = k * o.dp_div;
    dp_sqrt = k * o.dp_sqrt;
    dp_heavy = k * o.dp_heavy;
    int_ops = k * o.int_ops;
    mem_sites = k * o.mem_sites;
    local_sites = k * o.local_sites;
  }

let add_ops a b =
  {
    sp_addsub = a.sp_addsub + b.sp_addsub;
    sp_mul = a.sp_mul + b.sp_mul;
    sp_div = a.sp_div + b.sp_div;
    sp_sqrt = a.sp_sqrt + b.sp_sqrt;
    sp_heavy = a.sp_heavy + b.sp_heavy;
    dp_addsub = a.dp_addsub + b.dp_addsub;
    dp_mul = a.dp_mul + b.dp_mul;
    dp_div = a.dp_div + b.dp_div;
    dp_sqrt = a.dp_sqrt + b.dp_sqrt;
    dp_heavy = a.dp_heavy + b.dp_heavy;
    int_ops = a.int_ops + b.int_ops;
    mem_sites = a.mem_sites + b.mem_sites;
    local_sites = a.local_sites + b.local_sites;
  }

let total_flop_sites o =
  o.sp_addsub + o.sp_mul + o.sp_div + o.sp_sqrt + o.sp_heavy + o.dp_addsub + o.dp_mul
  + o.dp_div + o.dp_sqrt + o.dp_heavy

(* expression type with a lenient fallback: generated kernels are
   type-correct, but we never want feature extraction to fail *)
let ty_of tenv e =
  try Typecheck.expr_ty tenv e with Typecheck.Type_error _ -> Ast.Tdouble

let is_sp tenv a b =
  let sp e = Ast.equal_ty (ty_of tenv e) Ast.Tfloat in
  let fl e = Ast.is_float_ty (ty_of tenv e) in
  (* single-precision op when at least one side is float and none is double *)
  (sp a || sp b) && not (Ast.equal_ty (ty_of tenv a) Ast.Tdouble)
  && not (Ast.equal_ty (ty_of tenv b) Ast.Tdouble)
  && (fl a || fl b)

let is_float_op tenv a b =
  Ast.is_float_ty (ty_of tenv a) || Ast.is_float_ty (ty_of tenv b)

(* ops of one expression evaluation; [is_local] marks kernel-local arrays
   whose accesses become registers/BRAM rather than memory load-store units *)
let rec expr_ops ~is_local tenv (e : Ast.expr) : op_counts =
  let expr_ops = expr_ops ~is_local in
  let children =
    List.fold_left (fun acc c -> add_ops acc (expr_ops tenv c)) zero_ops
      (Ast.expr_children e)
  in
  match e.edesc with
  | Binary ((Add | Sub | Mul | Div) as op, a, b) ->
    let fl = is_float_op tenv a b in
    let sp = fl && is_sp tenv a b in
    let bump =
      match op, fl, sp with
      | (Add | Sub), true, true -> { zero_ops with sp_addsub = 1 }
      | (Add | Sub), true, false -> { zero_ops with dp_addsub = 1 }
      | Mul, true, true -> { zero_ops with sp_mul = 1 }
      | Mul, true, false -> { zero_ops with dp_mul = 1 }
      | Div, true, true -> { zero_ops with sp_div = 1 }
      | Div, true, false -> { zero_ops with dp_div = 1 }
      | (Add | Sub | Mul | Div), false, _ -> { zero_ops with int_ops = 1 }
      | _ -> zero_ops
    in
    add_ops children bump
  | Binary ((Mod | Lt | Le | Gt | Ge | Eq | Ne | And | Or), _, _) ->
    add_ops children { zero_ops with int_ops = 1 }
  | Unary (Neg, a) ->
    let bump =
      if Ast.is_float_ty (ty_of tenv a) then
        if Ast.equal_ty (ty_of tenv a) Ast.Tfloat then { zero_ops with sp_addsub = 1 }
        else { zero_ops with dp_addsub = 1 }
      else { zero_ops with int_ops = 1 }
    in
    add_ops children bump
  | Unary (Not, _) -> add_ops children { zero_ops with int_ops = 1 }
  | Call (name, _) ->
    let bump =
      match Intrinsic.find name with
      | Some { op = Intrinsic.F1 (Intrinsic.Sqrt | Intrinsic.Rsqrt); single; _ } ->
        if single then { zero_ops with sp_sqrt = 1 } else { zero_ops with dp_sqrt = 1 }
      | Some { cls = Intrinsic.Special; single; _ } ->
        if single then { zero_ops with sp_heavy = 1 } else { zero_ops with dp_heavy = 1 }
      | Some { cls = Intrinsic.Cheap; single; _ } ->
        if single then { zero_ops with sp_addsub = 1 } else { zero_ops with dp_addsub = 1 }
      | Some { cls = Intrinsic.Int_op | Intrinsic.Uncounted; _ } | None ->
        { zero_ops with int_ops = 1 }
    in
    add_ops children bump
  | Index (base, _) ->
    let local =
      match Query.array_base_name base with Some v -> is_local v | None -> false
    in
    if local then add_ops children { zero_ops with local_sites = 1 }
    else add_ops children { zero_ops with mem_sites = 1 }
  | Cond (_, _, _) -> add_ops children { zero_ops with int_ops = 1 }
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ | Cast _ -> children

type walk_acc = {
  mutable ops : op_counts;
  mutable locals : int;
  mutable specials : int;
  mutable serial_inner : inner_summary option;
  mutable local_array_bytes : int;
}

(* memory sites whose subscript is neither affine in the parallel index nor
   loop-invariant nor block-affine: an uncoalesced gather/scatter on a GPU *)
let gather_sites ~consts ~index (blk : Ast.block) =
  let n = ref 0 in
  let local_indices = ref [ index ] in
  let classify_sub mult sub =
    (* coalesced if affine/invariant in the parallel index or in any nested
       loop index (unit-ish strides); everything else is a gather *)
    let ok =
      List.exists
        (fun ix ->
          match Affine.classify ~index:ix ~consts sub with
          | Affine.Affine _ | Affine.Invariant | Affine.Linear_plus _ -> true
          | Affine.Unknown -> false)
        !local_indices
      (* a subscript mentioning no loop index at all is a broadcast *)
      || List.for_all (fun ix -> not (Affine.mentions ix sub)) !local_indices
    in
    if not ok then n := !n + mult
  in
  let rec expr_walk mult (e : Ast.expr) =
    (match e.Ast.edesc with
     | Ast.Index (_, sub) -> classify_sub mult sub
     | _ -> ());
    List.iter (expr_walk mult) (Ast.expr_children e)
  in
  let rec stmt_walk mult (s : Ast.stmt) =
    let mult' =
      match s.Ast.sdesc with
      | Ast.For (h, _) ->
        local_indices := h.Ast.index :: !local_indices;
        (match Dependence.static_trip_count consts h with
         | Some t when t <= 64 -> mult * t
         | Some _ | None -> mult)
      | _ -> mult
    in
    List.iter (expr_walk mult') (Ast.stmt_exprs s);
    List.iter (List.iter (stmt_walk mult')) (Ast.stmt_sub_blocks s)
  in
  List.iter (stmt_walk 1) blk;
  !n

(* Memory sites whose address is constant once the fixed loops are
   unrolled (they mention neither the pipeline index nor any serial loop
   index) and whose array is read-only: HLS caches these in on-chip
   registers/BRAM, so they are local sites, not LSUs. *)
let cacheable_sites ~unroll_threshold ~consts ~pipeline_index ~read_only (body : Ast.block) =
  let n = ref 0 in
  (* [mult] mirrors the unroll scaling applied to op counts *)
  let rec walk_block serial mult blk = List.iter (walk_stmt serial mult) blk
  and walk_stmt serial mult (s : Ast.stmt) =
    let serial', mult' =
      match s.Ast.sdesc with
      | Ast.For (h, _) ->
        (match Dependence.static_trip_count consts h with
         | Some t when t <= unroll_threshold -> (serial, mult * t)
         | Some _ | None -> (h.Ast.index :: serial, mult))
      | _ -> (serial, mult)
    in
    let check (e : Ast.expr) =
      let rec expr_walk (e : Ast.expr) =
        (match e.Ast.edesc with
         | Ast.Index (base, sub) ->
           (match Query.array_base_name base with
            | Some arr
              when read_only arr
                   && List.for_all (fun ix -> not (Affine.mentions ix sub)) serial' ->
              n := !n + mult'
            | Some _ | None -> ())
         | _ -> ());
        List.iter expr_walk (Ast.expr_children e)
      in
      expr_walk e
    in
    List.iter check (Ast.stmt_exprs s);
    List.iter (walk_block serial' mult') (Ast.stmt_sub_blocks s)
  in
  walk_block [ pipeline_index ] 1 body;
  !n

let of_kernel ?consts ?(unroll_threshold = 64) ?(require_unroll_pragma = false)
    ?thread_index (p : Ast.program) ~fname =
  match Ast.find_func p fname with
  | None -> Error (Printf.sprintf "kernel %s not found" fname)
  | Some fn ->
    (match Query.outermost_loops fn, thread_index with
     | [], None -> Error (Printf.sprintf "kernel %s has no loop" fname)
     | outermost, _ ->
       let index, body =
         match outermost with
         | outer :: _ -> (outer.Query.lm_header.Ast.index, outer.Query.lm_body)
         | [] ->
           ((match thread_index with Some ix -> ix | None -> assert false), fn.Ast.fbody)
       in
       let consts = match consts with Some c -> c | None -> Consteval.of_program p in
       let tenv0 = Typecheck.env_for_func p fn in
       let acc =
         {
           ops = zero_ops;
           locals = 0;
           specials = 0;
           serial_inner = None;
           local_array_bytes = 0;
         }
       in
       let local_arrays = ref [] in
       let is_local v = List.mem v !local_arrays in
       let expr_ops = expr_ops ~is_local in
       let count_specials_expr (e : Ast.expr) =
         let n = ref 0 in
         ignore
           (Ast.fold_expr
              (fun () e ->
                match e.Ast.edesc with
                | Ast.Call (name, _) ->
                  (match Intrinsic.find name with
                   | Some { cls = Intrinsic.Special; _ } -> incr n
                   | _ -> ())
                | _ -> ())
              () e);
         !n
       in
       (* returns ops of one iteration of the given block *)
       let rec block_ops tenv (blk : Ast.block) : op_counts =
         let ops, _ =
           List.fold_left
             (fun (ops, tenv) s ->
               let so, tenv = stmt_ops tenv s in
               (add_ops ops so, tenv))
             (zero_ops, tenv) blk
         in
         ops
       and stmt_ops tenv (s : Ast.stmt) : op_counts * Typecheck.env =
         List.iter (fun e -> acc.specials <- acc.specials + count_specials_expr e)
           (Ast.stmt_exprs s);
         match s.sdesc with
         | Decl d ->
           let ops =
             match d.dinit with Some e -> expr_ops tenv e | None -> zero_ops
           in
           (match d.darray with
            | Some size ->
              let n =
                match Consteval.eval_int consts size with Some n -> n | None -> 64
              in
              local_arrays := d.dname :: !local_arrays;
              acc.local_array_bytes <-
                acc.local_array_bytes + (n * Ast.sizeof d.dty)
            | None -> acc.locals <- acc.locals + 1);
           let tenv =
             Typecheck.bind tenv d.dname
               (match d.darray with Some _ -> Ast.Tptr d.dty | None -> d.dty)
           in
           (ops, tenv)
         | Assign (lhs, op, rhs) ->
           let lops = expr_ops tenv lhs in
           let rops = expr_ops tenv rhs in
           let extra =
             match op with
             | Ast.Set -> zero_ops
             | Ast.AddEq | Ast.SubEq ->
               if Ast.is_float_ty (ty_of tenv lhs) then
                 if Ast.equal_ty (ty_of tenv lhs) Ast.Tfloat then
                   { zero_ops with sp_addsub = 1 }
                 else { zero_ops with dp_addsub = 1 }
               else { zero_ops with int_ops = 1 }
             | Ast.MulEq ->
               if Ast.is_float_ty (ty_of tenv lhs) then
                 if Ast.equal_ty (ty_of tenv lhs) Ast.Tfloat then
                   { zero_ops with sp_mul = 1 }
                 else { zero_ops with dp_mul = 1 }
               else { zero_ops with int_ops = 1 }
             | Ast.DivEq ->
               if Ast.is_float_ty (ty_of tenv lhs) then
                 if Ast.equal_ty (ty_of tenv lhs) Ast.Tfloat then
                   { zero_ops with sp_div = 1 }
                 else { zero_ops with dp_div = 1 }
               else { zero_ops with int_ops = 1 }
           in
           (add_ops (add_ops lops rops) extra, tenv)
         | Expr_stmt e -> (expr_ops tenv e, tenv)
         | If (c, b1, b2) ->
           (* hardware instantiates both arms *)
           let cops = expr_ops tenv c in
           let t = block_ops tenv b1 in
           let f = block_ops tenv b2 in
           (add_ops cops (add_ops t f), tenv)
         | For (h, body) ->
           let tenv_body = Typecheck.bind tenv h.index Ast.Tint in
           let body_ops = block_ops tenv_body body in
           let annotated =
             (not require_unroll_pragma)
             || List.exists (fun (pr : Ast.pragma) -> pr.Ast.pname = "unroll") s.Ast.pragmas
           in
           let trips =
             match Dependence.static_trip_count consts h with
             | Some n when n <= unroll_threshold && annotated -> Some n
             | Some _ | None -> None
           in
           (match trips with
            | Some n -> (scale_ops n body_ops, tenv)
            | None ->
              (* a serially pipelined inner loop: hardware once *)
              if acc.serial_inner = None then begin
                let lm =
                  List.find_opt
                    (fun (lm : Query.loop_match) -> lm.lm_stmt.sid = s.sid)
                    (Query.loops_in_func fn)
                in
                let fp_red =
                  match lm with
                  | Some lm ->
                    let v = Dependence.analyse_loop ~consts p lm in
                    List.exists
                      (fun (r : Dependence.reduction) -> Ast.is_float_ty r.red_ty)
                      v.Dependence.reductions
                  | None -> false
                in
                acc.serial_inner <- Some { is_sid = s.sid; is_fp_reduction = fp_red }
              end;
              (body_ops, tenv))
         | While (_, body) ->
           if acc.serial_inner = None then
             acc.serial_inner <- Some { is_sid = s.sid; is_fp_reduction = false };
           (block_ops tenv body, tenv)
         | Return (Some e) -> (expr_ops tenv e, tenv)
         | Return None | Break | Continue -> (zero_ops, tenv)
         | Scope body -> (block_ops tenv body, tenv)
       in
       let tenv = Typecheck.bind tenv0 index Ast.Tint in
       let ops = block_ops tenv body in
       (* re-classify cacheable read-only sites as local *)
       let written = Query.writes_in_block body in
       let read_only arr =
         (not (List.mem arr written))
         && List.exists
              (fun (prm : Ast.param) ->
                prm.Ast.prm_name = arr
                && match prm.Ast.prm_ty with Ast.Tptr _ -> true | _ -> false)
              fn.Ast.fparams
       in
       let cacheable =
         min ops.mem_sites
           (cacheable_sites ~unroll_threshold ~consts ~pipeline_index:index ~read_only
              body)
       in
       let ops =
         {
           ops with
           mem_sites = ops.mem_sites - cacheable;
           local_sites = ops.local_sites + cacheable;
         }
       in
       acc.ops <- ops;
       (* GPU registers-per-thread heuristic: base ISA state, two registers
          per live scalar, working registers for each transcendental call,
          address registers per memory site.  Very large estimates spill:
          the compiler caps at 255 (the Rush Larsen effect). *)
       let raw_regs =
         16 + (5 * acc.locals / 2) + (4 * acc.specials) + acc.ops.mem_sites
       in
       let regs = if raw_regs > 200 then 255 else raw_regs in
       Ok
         {
           ks_fname = fname;
           ks_ops = ops;
           ks_locals = acc.locals;
           ks_special_calls = acc.specials;
           ks_regs_estimate = regs;
           ks_regs_raw = raw_regs;
           ks_has_serial_inner = acc.serial_inner;
           ks_local_array_bytes = acc.local_array_bytes;
           ks_gather_sites = gather_sites ~consts ~index body;
         })
