(* Reference tree-walking interpreter, and the host of the VM.

   Environments are chains of per-scope hashtables, every statement ticks
   the step budget individually, and every call resolves its callee by
   name: each operation maps one-to-one onto the language definition, so
   this module is the semantic oracle.  Given a plan ([run ~plan], the
   [`Vm] backend), every [For] is offered to the planned nest of its
   statement once the lo bound is evaluated into the index cell; a nest
   either runs the whole loop or declines without effect, and the loop
   then runs here.
   Code off the plan therefore has exactly the oracle's semantics, and the
   differential tests hold the planned nests to byte-identical
   observables against runs without a plan. *)

open Ast
open Interp_rt

(* ---- environment ---- *)

let push_scope env : env = Hashtbl.create 8 :: env

let bind env name v =
  match env with
  | scope :: _ -> Hashtbl.replace scope name (ref v)
  | [] -> invalid_arg "Walker.bind: empty environment"

(* ---- expression evaluation ---- *)

let rec eval_expr st env (e : expr) : Value.t =
  match e.edesc with
  | Int_lit n -> Value.Vint n
  | Float_lit (f, single) ->
    if single then Value.Vfloat (Value.Sp, Value.demote f) else Value.Vfloat (Value.Dp, f)
  | Bool_lit b -> Value.Vbool b
  | Var v ->
    (match lookup env v with
     | Some r -> !r
     | None -> runtime_error e.eloc "unbound variable %s" v)
  | Unary (Neg, a) ->
    let va = eval_expr st env a in
    (match va with
     | Value.Vint n -> count_int_op st; Value.Vint (-n)
     | Value.Vfloat (p, f) -> count_flop st p fl_add; Value.Vfloat (p, -.f)
     | Value.Vbool _ | Value.Vptr _ -> runtime_error e.eloc "negating non-number")
  | Unary (Not, a) ->
    let va = eval_expr st env a in
    count_int_op st;
    Value.Vbool (not (Value.truth va))
  | Binary (And, a, b) ->
    count_branch st;
    if Value.truth (eval_expr st env a) then Value.Vbool (Value.truth (eval_expr st env b))
    else Value.Vbool false
  | Binary (Or, a, b) ->
    count_branch st;
    if Value.truth (eval_expr st env a) then Value.Vbool true
    else Value.Vbool (Value.truth (eval_expr st env b))
  | Binary (op, a, b) ->
    let va = eval_expr st env a in
    let vb = eval_expr st env b in
    eval_binop st e.eloc op va vb
  | Call (name, args) ->
    let vargs = List.map (eval_expr st env) args in
    (match Hashtbl.find_opt st.func_table name with
     | Some fn ->
       count st Counters.calls 1;
       (match call_function st fn vargs with
        | Some v -> v
        | None -> Value.Vint 0)
     | None -> eval_intrinsic st e.eloc name vargs)
  | Index (base, idx) ->
    let vb = eval_expr st env base in
    let vi = eval_expr st env idx in
    (match vb with
     | Value.Vptr ptr ->
       let i = Value.to_int vi in
       let v =
         try Memory.load st.mem ptr i with Failure msg -> runtime_error e.eloc "%s" msg
       in
       count_load st ptr.Value.base (ptr.Value.offset + i);
       v
     | _ -> runtime_error e.eloc "indexing a non-pointer")
  | Cast (ty, a) ->
    let va = eval_expr st env a in
    (try Value.coerce ty va
     with Invalid_argument msg -> runtime_error e.eloc "%s" msg)
  | Cond (c, a, b) ->
    count_branch st;
    if Value.truth (eval_expr st env c) then eval_expr st env a else eval_expr st env b

(* ---- statements ---- *)

and exec_block st env (blk : block) : flow =
  let env = push_scope env in
  let rec loop = function
    | [] -> Fnormal
    | s :: rest ->
      (match exec_stmt st env s with
       | Fnormal -> loop rest
       | (Fbreak | Fcontinue | Freturn _) as f -> f)
  in
  loop blk

and exec_stmt st env (s : stmt) : flow =
  tick_step st;
  let profiled_region =
    if st.cfg.regions = [] then None
    else if List.mem (Rstmt s.sid) st.cfg.regions then Some (Rstmt s.sid)
    else None
  in
  (match profiled_region with Some r -> push_region st r | None -> ());
  let flow = exec_stmt_inner st env s in
  (match profiled_region with Some _ -> pop_region st | None -> ());
  flow

and exec_stmt_inner st env (s : stmt) : flow =
  match s.sdesc with
  | Decl d ->
    (match d.darray with
     | Some size_e ->
       let n = Value.to_int (eval_expr st env size_e) in
       let ptr =
         try Memory.alloc st.mem ~name:d.dname ~elem_ty:d.dty n
         with Invalid_argument msg -> runtime_error s.sloc "%s" msg
       in
       bind env d.dname (Value.Vptr ptr)
     | None ->
       let v =
         match d.dinit with
         | Some e -> Value.coerce (decl_scalar_ty d) (eval_expr st env e)
         | None -> Value.zero_of (decl_scalar_ty d)
       in
       bind env d.dname v);
    Fnormal
  | Assign (lhs, op, rhs) ->
    let vr = eval_expr st env rhs in
    (match lhs.edesc with
     | Var v ->
       (match lookup env v with
        | None -> runtime_error lhs.eloc "unbound variable %s" v
        | Some r ->
          let nv =
            match op with
            | Set -> cast_like !r vr
            | AddEq | SubEq | MulEq | DivEq ->
              eval_binop st s.sloc (binop_of_assign op) !r vr |> cast_like !r
          in
          r := nv)
     | Index (base, idx) ->
       let vb = eval_expr st env base in
       let vi = eval_expr st env idx in
       (match vb with
        | Value.Vptr ptr ->
          let i = Value.to_int vi in
          let elem = ptr.Value.base in
          let nv =
            match op with
            | Set -> vr
            | AddEq | SubEq | MulEq | DivEq ->
              let old =
                try Memory.load st.mem ptr i
                with Failure msg -> runtime_error lhs.eloc "%s" msg
              in
              count_load st elem (ptr.Value.offset + i);
              eval_binop st s.sloc (binop_of_assign op) old vr
          in
          (try Memory.store st.mem ptr i nv
           with Failure msg -> runtime_error lhs.eloc "%s" msg);
          count_store st elem (ptr.Value.offset + i)
        | _ -> runtime_error lhs.eloc "assigning through a non-pointer")
     | _ -> runtime_error lhs.eloc "invalid assignment target");
    Fnormal
  | Expr_stmt e ->
    ignore (eval_expr st env e);
    Fnormal
  | If (c, b1, b2) ->
    count_branch st;
    if Value.truth (eval_expr st env c) then exec_block st env b1 else exec_block st env b2
  | For (h, body) ->
    let lo = Value.to_int (eval_expr st env h.lo) in
    let acc =
      if st.cfg.profile_loops then Some (loop_acc_of st s.sid) else None
    in
    (match acc with
     | Some a ->
       a.la_entries <- a.la_entries + 1;
       let snapshot = Counters.copy st.counters in
       let flow = exec_for st env s h body lo a in
       Counters.add_into a.la_counters (Counters.diff st.counters snapshot);
       flow
     | None -> exec_for st env s h body lo (dummy_loop_acc ()))
  | While (c, body) ->
    let acc =
      if st.cfg.profile_loops then Some (loop_acc_of st s.sid) else None
    in
    let rec iterate (acc : loop_acc) =
      count_branch st;
      if Value.truth (eval_expr st env c) then begin
        acc.la_iterations <- acc.la_iterations + 1;
        match exec_block st env body with
        | Fnormal | Fcontinue -> iterate acc
        | Fbreak -> Fnormal
        | Freturn _ as f -> f
      end
      else Fnormal
    in
    (match acc with
     | Some a ->
       a.la_entries <- a.la_entries + 1;
       let snapshot = Counters.copy st.counters in
       let flow = iterate a in
       Counters.add_into a.la_counters (Counters.diff st.counters snapshot);
       flow
     | None -> iterate (dummy_loop_acc ()))
  | Return None -> Freturn None
  | Return (Some e) -> Freturn (Some (eval_expr st env e))
  | Break -> Fbreak
  | Continue -> Fcontinue
  | Scope blk -> exec_block st env blk

and exec_for st env s h body lo acc : flow =
  let index_ref = ref (Value.Vint lo) in
  (* a planned nest reads no name its own index could shadow *)
  if st.run_nest s.sid env index_ref acc then Fnormal
  else begin
    let scope = Hashtbl.create 8 in
    Hashtbl.replace scope h.index index_ref;
    iterate_for st (scope :: env) h body index_ref acc
  end

and iterate_for st env_loop h body index_ref acc : flow =
  let test () =
    count_branch st;
    count_int_op st;
    let i = Value.to_int !index_ref in
    let hi = Value.to_int (eval_expr st env_loop h.hi) in
    match h.cmp with CLt -> i < hi | CLe -> i <= hi
  in
  let bump () =
    count_int_op st;
    let step = Value.to_int (eval_expr st env_loop h.step) in
    index_ref := Value.Vint (Value.to_int !index_ref + step)
  in
  let rec iterate () =
    if test () then begin
      acc.la_iterations <- acc.la_iterations + 1;
      match exec_block st env_loop body with
      | Fnormal | Fcontinue ->
        bump ();
        iterate ()
      | Fbreak -> Fnormal
      | Freturn _ as f -> f
    end
    else Fnormal
  in
  iterate ()

and call_function st (fn : func) (args : Value.t list) : Value.t option =
  if List.length args <> List.length fn.fparams then
    runtime_error fn.floc "calling %s with %d arguments (expects %d)" fn.fname
      (List.length args) (List.length fn.fparams);
  if st.cfg.trace_aliases then
    note_alias_bases st fn.fname
      (List.filter_map
         (function Value.Vptr p -> Some p.Value.base | _ -> None)
         args);
  let profiled = List.mem (Rfunc fn.fname) st.cfg.regions in
  if profiled then push_region st (Rfunc fn.fname);
  let env : env = [ Hashtbl.create 16; st.globals ] in
  List.iter2
    (fun prm v ->
      let v' =
        match prm.prm_ty with
        | Tptr _ -> v
        | t -> Value.coerce t v
      in
      bind env prm.prm_name v')
    fn.fparams args;
  let flow = exec_block st env fn.fbody in
  if profiled then pop_region st;
  match flow with
  | Freturn v -> v
  | Fnormal -> None
  | Fbreak | Fcontinue -> runtime_error fn.floc "break/continue escaped function %s" fn.fname

(* ---- program setup and entry ---- *)

let init_globals st =
  let env : env = [ st.globals ] in
  List.iter
    (function
      | Gfunc _ -> ()
      | Gdecl d ->
        (match d.darray with
         | Some size_e ->
           let n = Value.to_int (eval_expr st env size_e) in
           let ptr = Memory.alloc st.mem ~name:d.dname ~elem_ty:d.dty n in
           Hashtbl.replace st.globals d.dname (ref (Value.Vptr ptr))
         | None ->
           let v =
             match List.assoc_opt d.dname st.cfg.overrides with
             | Some ov -> Value.coerce d.dty ov
             | None ->
               (match d.dinit with
                | Some e -> Value.coerce d.dty (eval_expr st env e)
                | None -> Value.zero_of d.dty)
           in
           Hashtbl.replace st.globals d.dname (ref v)))
    st.program.pglobals

let run ?plan (config : config) program : result =
  let st = make_state config program in
  Option.iter (fun plan -> st.run_nest <- Fastloop.runner plan st) plan;
  List.iter (fun fn -> Hashtbl.replace st.func_table fn.fname fn) (funcs program);
  init_globals st;
  let entry =
    match Hashtbl.find_opt st.func_table config.entry with
    | Some fn -> fn
    | None -> runtime_error Loc.dummy "entry function %s not found" config.entry
  in
  let ret = call_function st entry [] in
  assemble_result st ret
