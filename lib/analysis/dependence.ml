type reduction_op = Radd | Rmul | Rmin | Rmax

type reduction = {
  red_target : string;
  red_is_array : bool;
  red_op : reduction_op;
  red_ty : Ast.ty;
}

type carried =
  | Scalar_carried of string
  | Array_carried of { arr : string; reason : string }

type verdict = {
  loop_sid : int;
  index : string;
  carried : carried list;
  reductions : reduction list;
  parallel : bool;
  parallel_with_reductions : bool;
}

(* ---- static trip counts ---- *)

let static_trip_count consts (h : Ast.for_header) =
  match
    ( Consteval.eval_int consts h.lo,
      Consteval.eval_int consts h.hi,
      Consteval.eval_int consts h.step )
  with
  | Some lo, Some hi, Some step when step > 0 ->
    let span = match h.cmp with Ast.CLt -> hi - lo | Ast.CLe -> hi - lo + 1 in
    Some (max 0 ((span + step - 1) / step))
  | _, _, _ -> None

let fully_unrollable ?(threshold = 64) consts (lm : Query.loop_match) =
  match static_trip_count consts lm.lm_header with
  | Some n -> n <= threshold
  | None -> false

(* ---- interval arithmetic ---- *)

let rec range_of var_range consts (e : Ast.expr) : (int * int) option =
  match Consteval.eval_int consts e with
  | Some n -> Some (n, n)
  | None ->
    (match e.edesc with
     | Var v -> var_range v
     | Unary (Ast.Neg, a) ->
       Option.map (fun (lo, hi) -> (-hi, -lo)) (range_of var_range consts a)
     | Binary (Ast.Add, a, b) ->
       (match range_of var_range consts a, range_of var_range consts b with
        | Some (la, ha), Some (lb, hb) -> Some (la + lb, ha + hb)
        | _, _ -> None)
     | Binary (Ast.Sub, a, b) ->
       (match range_of var_range consts a, range_of var_range consts b with
        | Some (la, ha), Some (lb, hb) -> Some (la - hb, ha - lb)
        | _, _ -> None)
     | Binary (Ast.Mul, a, b) ->
       (match range_of var_range consts a, range_of var_range consts b with
        | Some (la, ha), Some (lb, hb) ->
          let products = [ la * lb; la * hb; ha * lb; ha * hb ] in
          Some (List.fold_left min max_int products, List.fold_left max min_int products)
        | _, _ -> None)
     | _ -> None)

(* ---- access collection ---- *)

type kind = Kread | Kwrite

type access = { acc_array : string; acc_sub : Ast.expr; acc_kind : kind }

(* Collect array accesses in a block.  [exclude] marks statement ids whose
   accesses are accounted for elsewhere (recognised reduction statements). *)
let collect_accesses ~exclude (blk : Ast.block) : access list =
  let acc = ref [] in
  let note kind (base : Ast.expr) (sub : Ast.expr) =
    match Query.array_base_name base with
    | Some name -> acc := { acc_array = name; acc_sub = sub; acc_kind = kind } :: !acc
    | None -> ()
  in
  let rec expr_reads (e : Ast.expr) =
    (match e.edesc with
     | Index (base, sub) -> note Kread base sub
     | _ -> ());
    List.iter expr_reads (Ast.expr_children e)
  in
  let rec stmt_walk (s : Ast.stmt) =
    if not (List.mem s.sid exclude) then begin
      (match s.sdesc with
       | Assign (lhs, op, rhs) ->
         (match lhs.edesc with
          | Index (base, sub) ->
            note Kwrite base sub;
            expr_reads sub;
            (match op with
             | Ast.Set -> ()
             | Ast.AddEq | Ast.SubEq | Ast.MulEq | Ast.DivEq -> note Kread base sub)
          | _ -> ());
         expr_reads rhs
       | _ -> List.iter expr_reads (Ast.stmt_exprs s));
      List.iter (List.iter stmt_walk) (Ast.stmt_sub_blocks s)
    end
  in
  List.iter stmt_walk blk;
  List.rev !acc

(* ---- scalar classification ---- *)

(* Scalars declared inside the body are private.  For free scalars we look
   at every write:
   - all writes are [s op= e] / [s = s op e] with e not reading s -> reduction
   - otherwise -> carried (conservative). *)

let reduction_op_of_assign = function
  | Ast.AddEq | Ast.SubEq -> Some Radd
  | Ast.MulEq -> Some Rmul
  | Ast.DivEq -> None
  | Ast.Set -> None

let reduction_op_of_binop = function
  | Ast.Add | Ast.Sub -> Some Radd
  | Ast.Mul -> Some Rmul
  | _ -> None

(* [s = s + e] or [s = e + s]: returns the op if the pattern matches. *)
let set_reduction_pattern (name : string) (rhs : Ast.expr) : reduction_op option =
  match rhs.edesc with
  | Binary (op, a, b) ->
    (match reduction_op_of_binop op with
     | None -> None
     | Some rop ->
       (match a.edesc, b.edesc with
        | Var v, _ when v = name && not (Affine.mentions name b) -> Some rop
        | _, Var v when v = name && not (Affine.mentions name a) && op <> Ast.Sub ->
          Some rop
        | _, _ -> None))
  | Call (fn, [ a; b ]) ->
    (match Intrinsic.find fn with
     | Some { op = Intrinsic.F2 ((Intrinsic.Fmin | Intrinsic.Fmax) as m); _ } ->
       let rop = if m = Intrinsic.Fmin then Rmin else Rmax in
       (match a.edesc, b.edesc with
        | Var v, _ when v = name && not (Affine.mentions name b) -> Some rop
        | _, Var v when v = name && not (Affine.mentions name a) -> Some rop
        | _, _ -> None)
     | _ -> None)
  | _ -> None

type scalar_write = { sw_sid : int; sw_red : reduction_op option }

(* All writes to free scalars in the block, with the statements that are
   pure reduction updates flagged. *)
let scalar_writes (blk : Ast.block) : (string * scalar_write) list =
  let declared = ref [] in
  let out = ref [] in
  let rec walk_stmt (s : Ast.stmt) =
    (match s.sdesc with
     | Decl d -> declared := d.dname :: !declared
     | For (h, _) -> declared := h.index :: !declared
     | Assign (lhs, op, rhs) ->
       (match lhs.edesc with
        | Var v when not (List.mem v !declared) ->
          let red =
            match op with
            | Ast.Set -> set_reduction_pattern v rhs
            | _ ->
              (match reduction_op_of_assign op with
               | Some rop when not (Affine.mentions v rhs) -> Some rop
               | _ -> None)
          in
          out := (v, { sw_sid = s.sid; sw_red = red }) :: !out
        | _ -> ())
     | _ -> ());
    List.iter (List.iter walk_stmt) (Ast.stmt_sub_blocks s)
  in
  List.iter walk_stmt blk;
  List.rev !out

(* Is scalar [v] read in the block outside the given statement ids? *)
let scalar_read_outside ~exclude v (blk : Ast.block) =
  let found = ref false in
  let rec walk_stmt (s : Ast.stmt) =
    if not (List.mem s.sid exclude) then begin
      (match s.sdesc with
       | Assign (lhs, op, rhs) ->
         let lhs_reads =
           match lhs.edesc, op with
           | Var _, Ast.Set -> []
           | Var x, _ -> [ x ]
           | _, _ -> Query.reads_in_block [ Ast.mk_stmt (Ast.Expr_stmt lhs) ]
         in
         if List.mem v lhs_reads || Affine.mentions v rhs then found := true
       | _ ->
         if List.exists (Affine.mentions v) (Ast.stmt_exprs s) then found := true);
      List.iter (List.iter walk_stmt) (Ast.stmt_sub_blocks s)
    end
  in
  List.iter walk_stmt blk;
  !found

(* ---- array reduction pattern ---- *)

(* Statements of the form [a[sub] op= e] with [sub] invariant in the loop
   index and [e] not reading [a].  If *every* access to [a] in the body is
   such a statement, [a] is an array reduction target. *)

type array_red_stmt = { ars_sid : int; ars_array : string; ars_op : reduction_op }

let array_reduction_stmts ~index (blk : Ast.block) : array_red_stmt list =
  let out = ref [] in
  let rec walk_stmt (s : Ast.stmt) =
    (match s.sdesc with
     | Assign (lhs, op, rhs) ->
       (match lhs.edesc, reduction_op_of_assign op with
        | Index (base, sub), Some rop ->
          (match Query.array_base_name base with
           | Some arr
             when Affine.invariant_in ~index sub
                  && (not (Affine.mentions arr rhs))
                  && not (Affine.mentions index sub) ->
             out := { ars_sid = s.sid; ars_array = arr; ars_op = rop } :: !out
           | Some _ | None -> ())
        | _, _ -> ())
     | _ -> ());
    List.iter (List.iter walk_stmt) (Ast.stmt_sub_blocks s)
  in
  List.iter walk_stmt blk;
  List.rev !out

(* ---- subscript pair tests ---- *)

(* Inner loop index ranges: [for (int j = 0; j < C)] inside the body gives
   j in [0, C-1] when C is static. *)
let inner_ranges consts (blk : Ast.block) : (string -> (int * int) option) =
  let table = Hashtbl.create 8 in
  let rec walk_stmt (s : Ast.stmt) =
    (match s.sdesc with
     | For (h, _) ->
       (match
          ( Consteval.eval_int consts h.lo,
            Consteval.eval_int consts h.hi,
            Consteval.eval_int consts h.step )
        with
        | Some lo, Some hi, Some 1 ->
          let top = match h.cmp with Ast.CLt -> hi - 1 | Ast.CLe -> hi in
          Hashtbl.replace table h.index (lo, top)
        | _, _, _ -> ())
     | _ -> ());
    List.iter (List.iter walk_stmt) (Ast.stmt_sub_blocks s)
  in
  List.iter walk_stmt blk;
  fun v -> Hashtbl.find_opt table v

let exprs_syntactically_equal a b =
  String.equal (Pretty.expr_to_string a) (Pretty.expr_to_string b)

(* Test whether accesses [w] (a write) and [x] to the same array can touch
   the same element in *different* iterations of the loop. *)
let pair_carried ~index ~consts ~var_range (w : access) (x : access) :
    string option =
  let cw = Affine.classify ~index ~consts w.acc_sub in
  let cx = Affine.classify ~index ~consts x.acc_sub in
  match cw, cx with
  | Affine.Affine a, Affine.Affine b ->
    if a.coeff = b.coeff then
      if a.coeff = 0 then Some "same fixed element every iteration"
      else begin
        let d = b.offset - a.offset in
        if d = 0 then None
        else if d mod a.coeff = 0 then
          Some (Printf.sprintf "carried distance %d" (d / a.coeff))
        else None
      end
    else Some "subscripts with different strides"
  | Affine.Affine a, Affine.Invariant | Affine.Invariant, Affine.Affine a ->
    if a.coeff = 0 then Some "same fixed element every iteration"
    else Some "moving access against a fixed element"
  | Affine.Invariant, Affine.Invariant ->
    (* both fixed w.r.t. the loop: write repeats into the same cell *)
    Some "fixed element written every iteration"
  | Affine.Linear_plus a, Affine.Linear_plus b ->
    if a.coeff <> b.coeff || a.coeff = 0 then Some "subscripts with different strides"
    else begin
      (* delinearisation: rests confined to [0, coeff) cannot make distinct
         iterations collide; a rest that can exceed the stride can *)
      let in_block (r : Ast.expr) =
        match range_of var_range consts r with
        | Some (lo, hi) -> lo >= 0 && hi < abs a.coeff
        | None -> false
      in
      if in_block a.rest && in_block b.rest then None
      else if
        exprs_syntactically_equal a.rest b.rest
        && range_of var_range consts a.rest = None
      then
        (* same opaque offset in every iteration behaves like a shifted
           affine access: distinct iterations still touch distinct cells *)
        None
      else Some "flattened subscripts may overlap across iterations"
    end
  | Affine.Linear_plus a, Affine.Affine b | Affine.Affine b, Affine.Linear_plus a ->
    if a.coeff = b.coeff && a.coeff <> 0 then begin
      let in_block (r : Ast.expr) =
        match range_of var_range consts r with
        | Some (lo, hi) -> lo >= 0 && hi < abs a.coeff
        | None -> false
      in
      if in_block a.rest && b.offset >= 0 && b.offset < abs a.coeff then None
      else Some "flattened subscript may overlap affine access"
    end
    else Some "subscripts with different strides"
  | Affine.Unknown, _ | _, Affine.Unknown -> Some "non-affine subscript"
  | Affine.Linear_plus _, Affine.Invariant | Affine.Invariant, Affine.Linear_plus _ ->
    Some "moving access against a fixed element"

(* ---- main entry ---- *)

let dedup_carried l =
  List.rev
    (List.fold_left (fun acc c -> if List.mem c acc then acc else c :: acc) [] l)

(* arrays declared inside the body are private per iteration *)
let local_arrays (blk : Ast.block) =
  let out = ref [] in
  let rec walk (s : Ast.stmt) =
    (match s.sdesc with
     | Ast.Decl { darray = Some _; dname; _ } -> out := dname :: !out
     | _ -> ());
    List.iter (List.iter walk) (Ast.stmt_sub_blocks s)
  in
  List.iter walk blk;
  !out

let analyse_loop ?consts (p : Ast.program) (lm : Query.loop_match) : verdict =
  let consts = match consts with Some c -> c | None -> Consteval.of_program p in
  let index = lm.lm_header.index in
  let body = lm.lm_body in
  let private_arrays = local_arrays body in
  let fn = lm.lm_ctx.cx_func in
  let tenv = Typecheck.env_for_func p fn in
  let scalar_ty v =
    (* the scalar is free in the loop, so it is visible in the function scope
       or declared earlier inside the function; fall back on double *)
    match Typecheck.lookup_var tenv v with
    | Some t -> t
    | None ->
      (match Typecheck.scope_at p fn lm.lm_stmt.sid with
       | scope -> (match List.assoc_opt v scope with Some t -> t | None -> Ast.Tdouble)
       | exception Not_found -> Ast.Tdouble)
  in
  let array_elem_ty a =
    match scalar_ty a with Ast.Tptr t -> t | t -> t
  in
  (* scalars *)
  let swrites = scalar_writes body in
  let scalar_names =
    dedup_carried (List.map fst swrites)
  in
  let scalar_results =
    List.map
      (fun v ->
        let writes = List.filter (fun (n, _) -> n = v) swrites in
        let red_ops = List.map (fun (_, w) -> w.sw_red) writes in
        let all_red = List.for_all (fun r -> r <> None) red_ops in
        let wsids = List.map (fun (_, w) -> w.sw_sid) writes in
        if all_red && not (scalar_read_outside ~exclude:wsids v body) then
          let op = match List.hd red_ops with Some o -> o | None -> Radd in
          `Reduction
            { red_target = v; red_is_array = false; red_op = op; red_ty = scalar_ty v }
        else `Carried (Scalar_carried v))
      scalar_names
  in
  (* array reductions *)
  let ar_stmts =
    List.filter
      (fun a -> not (List.mem a.ars_array private_arrays))
      (array_reduction_stmts ~index body)
  in
  let ar_arrays = dedup_carried (List.map (fun a -> a.ars_array) ar_stmts) in
  let exclude = List.map (fun a -> a.ars_sid) ar_stmts in
  let accesses =
    List.filter
      (fun a -> not (List.mem a.acc_array private_arrays))
      (collect_accesses ~exclude body)
  in
  (* an array qualifies as a reduction target only if it has no accesses
     outside its reduction statements *)
  let ar_ok, ar_conflicted =
    List.partition
      (fun arr -> not (List.exists (fun a -> a.acc_array = arr) accesses))
      ar_arrays
  in
  let array_reductions =
    List.map
      (fun arr ->
        let op =
          match List.find_opt (fun a -> a.ars_array = arr) ar_stmts with
          | Some a -> a.ars_op
          | None -> Radd
        in
        { red_target = arr; red_is_array = true; red_op = op; red_ty = array_elem_ty arr })
      ar_ok
  in
  (* re-include accesses of conflicted pseudo-reduction arrays *)
  let accesses =
    if ar_conflicted = [] then accesses
    else
      collect_accesses
        ~exclude:
          (List.filter_map
             (fun a -> if List.mem a.ars_array ar_ok then Some a.ars_sid else None)
             ar_stmts)
        body
  in
  (* array pair tests *)
  let var_range = inner_ranges consts body in
  let arrays_written =
    dedup_carried
      (List.filter_map
         (fun a -> if a.acc_kind = Kwrite then Some a.acc_array else None)
         accesses)
  in
  let array_carried =
    List.concat_map
      (fun arr ->
        let of_arr = List.filter (fun a -> a.acc_array = arr) accesses in
        let writes = List.filter (fun a -> a.acc_kind = Kwrite) of_arr in
        List.concat_map
          (fun w ->
            (* the write is tested against every access including itself:
               a fixed-element write repeated each iteration is an output
               dependence *)
            List.filter_map
              (fun x ->
                match pair_carried ~index ~consts ~var_range w x with
                | Some reason -> Some (Array_carried { arr; reason })
                | None -> None)
              of_arr)
          writes)
      arrays_written
  in
  let scalar_carried =
    List.filter_map (function `Carried c -> Some c | `Reduction _ -> None) scalar_results
  in
  let scalar_reductions =
    List.filter_map (function `Reduction r -> Some r | `Carried _ -> None) scalar_results
  in
  let carried = dedup_carried (scalar_carried @ array_carried) in
  let reductions = scalar_reductions @ array_reductions in
  {
    loop_sid = lm.lm_stmt.sid;
    index;
    carried;
    reductions;
    parallel = carried = [] && reductions = [];
    parallel_with_reductions = carried = [];
  }
