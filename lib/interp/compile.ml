(* Closure-compiling interpreter backend.

   A one-shot pass lowers the AST into OCaml closures before execution:

   - variables are resolved at compile time to slots of a flat per-call
     [Value.t array] frame (no hashtable scope chains at run time);
   - call sites bind directly to compiled function records (no per-call
     [func_table] lookup, parameter coercions precomputed);
   - arithmetic is specialized on the statically known representation of
     each operand ([cexp] below), so int/float fast paths run unboxed and
     skip [Value] dispatch;
   - step-budget/step-counter updates are batched per straight-line
     statement run: one [consume_steps] per segment instead of one
     [tick_step] per statement.

   The contract, enforced by the differential tests against Walker, is
   bit-identical observables: printed output, every counter, loop and
   region statistics, alias verdicts, final memory, and which exception
   (if any) terminates the run.  Comments below flag the few places where
   an internal ordering differs from the walker; all of them are confined
   to pure computations or to aborting runs whose partial state is
   unobservable.

   Static scope resolution mirrors the walker's dynamic binding order:
   the compile-time environment [venv] is extended exactly where the
   walker would execute a [bind], so a use before a declaration resolves
   to the enclosing binding in both backends.  Each declaration site gets
   its own slot (no reuse), which keeps resolution trivially correct for
   shadowing and loop-carried re-declarations.

   One knowing divergence: a function body referencing a global declared
   *after* it textually, when that function is called from an earlier
   global initialiser, reads the (not yet initialised) cell instead of
   raising "unbound variable" as the walker would.  No program produced
   by the suite or the generators can reach this; it would require a
   call in a global initialiser to a function peeking at a later global. *)

open Ast
open Interp_rt

type frame = Value.t array

(* A compiled expression, tagged with the representation its result is
   statically known to have.  [Kval] is the fully dynamic fallback and is
   always semantically exact (it reuses the shared Interp_rt evaluators). *)
type cexp =
  | Kint of (state -> frame -> int)
  | Kbool of (state -> frame -> bool)
  | Kfloat of Value.prec * (state -> frame -> float)
  | Kval of (state -> frame -> Value.t)

let to_val = function
  | Kint f -> fun st fr -> Value.Vint (f st fr)
  | Kbool f -> fun st fr -> Value.Vbool (f st fr)
  | Kfloat (p, f) -> fun st fr -> Value.Vfloat (p, f st fr)
  | Kval f -> f

let as_int = function
  | Kint f -> f
  | Kbool f -> fun st fr -> if f st fr then 1 else 0
  | Kfloat (_, f) -> fun st fr -> int_of_float (f st fr)
  | Kval f -> fun st fr -> Value.to_int (f st fr)

let as_float = function
  | Kint f -> fun st fr -> float_of_int (f st fr)
  | Kbool f -> fun st fr -> if f st fr then 1.0 else 0.0
  | Kfloat (_, f) -> f
  | Kval f -> fun st fr -> Value.to_float (f st fr)

let as_truth = function
  | Kint f -> fun st fr -> f st fr <> 0
  | Kbool f -> f
  | Kfloat (_, f) -> fun st fr -> f st fr <> 0.0
  | Kval f -> fun st fr -> Value.truth (f st fr)

(* ---- compiled functions and name resolution ---- *)

type binding = Bslot of int * ty | Bglobal of Value.t ref * ty

let binding_ty = function Bslot (_, t) -> t | Bglobal (_, t) -> t

type cfunc = {
  cf_name : string;
  cf_loc : Loc.t;
  cf_coerce : (Value.t -> Value.t) array;  (* per-parameter coercion *)
  mutable cf_nslots : int;
  mutable cf_body : state -> frame -> flow;
  cf_profiled : bool;
}

type fctx = {
  c_cfg : config;
  c_funcs : (string, cfunc) Hashtbl.t;
  c_globals : (string, binding) Hashtbl.t;
  c_plan : Ir.plan;  (* lowered loops to intercept; empty for pure `Compiled *)
  mutable c_nslots : int;
}

let alloc_slot ctx =
  let i = ctx.c_nslots in
  ctx.c_nslots <- i + 1;
  i

type venv = (string * binding) list

let lookup_var ctx (venv : venv) v =
  match List.assoc_opt v venv with
  | Some b -> Some b
  | None -> Hashtbl.find_opt ctx.c_globals v

(* call a compiled function; mirrors Walker.call_function after its arity
   check (arity mismatches are compiled into raising closures upstream) *)
let invoke st (cf : cfunc) (vargs : frame) : Value.t option =
  if st.cfg.trace_aliases then begin
    let bases = ref [] in
    for k = Array.length vargs - 1 downto 0 do
      match vargs.(k) with
      | Value.Vptr p -> bases := p.Value.base :: !bases
      | _ -> ()
    done;
    note_alias_bases st cf.cf_name !bases
  end;
  if cf.cf_profiled then push_region st (Rfunc cf.cf_name);
  let fr = Array.make cf.cf_nslots (Value.Vint 0) in
  let coerce = cf.cf_coerce in
  for k = 0 to Array.length coerce - 1 do
    fr.(k) <- coerce.(k) vargs.(k)
  done;
  let flow = cf.cf_body st fr in
  if cf.cf_profiled then pop_region st;
  match flow with
  | Freturn v -> v
  | Fnormal -> None
  | Fbreak | Fcontinue ->
    runtime_error cf.cf_loc "break/continue escaped function %s" cf.cf_name

(* reads of a declared binding: the declaration's type determines the
   representation invariantly held by the slot/cell (declarations, [Set]
   and [cast_like] all preserve it), except for pointer-typed parameters,
   which the walker passes unchecked and we therefore read dynamically *)
let read_binding (b : binding) : cexp =
  match b with
  | Bslot (i, ty) ->
    (match ty with
     | Tint -> Kint (fun _ fr -> Value.to_int fr.(i))
     | Tbool -> Kbool (fun _ fr -> Value.truth fr.(i))
     | Tfloat -> Kfloat (Value.Sp, fun _ fr -> Value.to_float fr.(i))
     | Tdouble -> Kfloat (Value.Dp, fun _ fr -> Value.to_float fr.(i))
     | Tptr _ | Tvoid -> Kval (fun _ fr -> fr.(i)))
  | Bglobal (cell, ty) ->
    (match ty with
     | Tint -> Kint (fun _ _ -> Value.to_int !cell)
     | Tbool -> Kbool (fun _ _ -> Value.truth !cell)
     | Tfloat -> Kfloat (Value.Sp, fun _ _ -> Value.to_float !cell)
     | Tdouble -> Kfloat (Value.Dp, fun _ _ -> Value.to_float !cell)
     | Tptr _ | Tvoid -> Kval (fun _ _ -> !cell))

(* ---- compiled statements ---- *)

(* Simple statements (Decl/Assign/Expr_stmt) can never redirect control
   flow, so they compile to unit closures and can share one batched
   step-budget update per straight-line run (see [segment]). *)
type citem =
  | Cunit of (state -> frame -> unit)
  | Cflow of (state -> frame -> flow)

let wrap_region cfg sid (it : citem) : citem =
  if cfg.regions <> [] && List.mem (Rstmt sid) cfg.regions then
    match it with
    | Cunit f ->
      Cunit
        (fun st fr ->
          push_region st (Rstmt sid);
          f st fr;
          pop_region st)
    | Cflow f ->
      Cflow
        (fun st fr ->
          push_region st (Rstmt sid);
          let fl = f st fr in
          pop_region st;
          fl)
  else it

let unit_seq us =
  match us with
  | [] -> fun _ _ -> ()
  | [ u ] -> u
  | us ->
    let rec build = function
      | [] -> assert false
      | [ u ] -> u
      | u :: rest ->
        let tail = build rest in
        fun st fr ->
          u st fr;
          tail st fr
    in
    build us

(* Chop a block into segments: maximal runs of simple statements, each
   optionally terminated by one control statement.  One [consume_steps]
   covers the whole segment; the raise condition of the step budget is
   identical to per-statement ticking (the budget crosses zero within a
   k-statement run iff it is <= k at its start), and because profiling
   snapshots are taken inside the segment *after* its batch — exactly
   where the walker has also already ticked every one of these
   statements — all snapshot diffs and final totals agree exactly. *)
let segment (items : citem list) : (state -> frame -> flow) list =
  let close_units units n =
    let u = unit_seq (List.rev units) in
    fun st fr ->
      consume_steps st n;
      u st fr;
      Fnormal
  in
  let close_seg units n f =
    match units with
    | [] ->
      fun st fr ->
        consume_steps st n;
        f st fr
    | _ ->
      let u = unit_seq (List.rev units) in
      fun st fr ->
        consume_steps st n;
        u st fr;
        f st fr
  in
  let rec go units n = function
    | [] -> if n = 0 then [] else [ close_units units n ]
    | Cunit u :: rest -> go (u :: units) (n + 1) rest
    | Cflow f :: rest -> close_seg units (n + 1) f :: go [] 0 rest
  in
  go [] 0 items

let chain segs : state -> frame -> flow =
  match segs with
  | [] -> fun _ _ -> Fnormal
  | [ s ] -> s
  | s :: rest ->
    let rec build s rest =
      match rest with
      | [] -> s
      | s2 :: rest ->
        let tail = build s2 rest in
        fun st fr ->
          (match s st fr with
           | Fnormal -> tail st fr
           | f -> f)
    in
    build s rest

(* ---- expression compilation ---- *)

(* [compile_expr] returns the closure plus the statically known source
   type ([None] when unknown); the type drives arithmetic and memory
   specialization.  Calls to user functions are always dynamic: the
   walker does not coerce return values to the declared return type. *)
let rec compile_expr ctx (venv : venv) (e : expr) : cexp * ty option =
  match e.edesc with
  | Int_lit n -> (Kint (fun _ _ -> n), Some Tint)
  | Float_lit (f, true) ->
    let x = Value.demote f in
    (Kfloat (Value.Sp, fun _ _ -> x), Some Tfloat)
  | Float_lit (f, false) -> (Kfloat (Value.Dp, fun _ _ -> f), Some Tdouble)
  | Bool_lit b -> (Kbool (fun _ _ -> b), Some Tbool)
  | Var v ->
    (match lookup_var ctx venv v with
     | Some b -> (read_binding b, Some (binding_ty b))
     | None ->
       let loc = e.eloc in
       (Kval (fun _ _ -> runtime_error loc "unbound variable %s" v), None))
  | Unary (Neg, a) ->
    let ca, ta = compile_expr ctx venv a in
    (match ca with
     | Kint f ->
       ( Kint
           (fun st fr ->
             let n = f st fr in
             count_int_op st;
             -n),
         Some Tint )
     | Kfloat (p, f) ->
       ( Kfloat
           ( p,
             fun st fr ->
               let x = f st fr in
               count_flop st p Cadd;
               -.x ),
         ta )
     | Kbool _ | Kval _ ->
       let vf = to_val ca in
       let loc = e.eloc in
       ( Kval
           (fun st fr ->
             match vf st fr with
             | Value.Vint n ->
               count_int_op st;
               Value.Vint (-n)
             | Value.Vfloat (p, x) ->
               count_flop st p Cadd;
               Value.Vfloat (p, -.x)
             | Value.Vbool _ | Value.Vptr _ -> runtime_error loc "negating non-number"),
         None ))
  | Unary (Not, a) ->
    let tf = as_truth (fst (compile_expr ctx venv a)) in
    ( Kbool
        (fun st fr ->
          let b = tf st fr in
          count_int_op st;
          not b),
      Some Tbool )
  | Binary (And, a, b) ->
    let ta = as_truth (fst (compile_expr ctx venv a)) in
    let tb = as_truth (fst (compile_expr ctx venv b)) in
    ( Kbool
        (fun st fr ->
          count_branch st;
          if ta st fr then tb st fr else false),
      Some Tbool )
  | Binary (Or, a, b) ->
    let ta = as_truth (fst (compile_expr ctx venv a)) in
    let tb = as_truth (fst (compile_expr ctx venv b)) in
    ( Kbool
        (fun st fr ->
          count_branch st;
          if ta st fr then true else tb st fr),
      Some Tbool )
  | Binary (op, a, b) -> compile_binary ctx venv e op a b
  | Call (name, args) -> compile_call ctx venv e name args
  | Index (base, idx) -> compile_index ctx venv e base idx
  | Cast (ty, a) -> compile_cast ctx venv e ty a
  | Cond (c, a, b) ->
    let tc = as_truth (fst (compile_expr ctx venv c)) in
    let ca, ta = compile_expr ctx venv a in
    let cb, tb = compile_expr ctx venv b in
    let sty = if ta = tb then ta else None in
    (match ca, cb with
     | Kint fa, Kint fb ->
       ( Kint
           (fun st fr ->
             count_branch st;
             if tc st fr then fa st fr else fb st fr),
         sty )
     | Kbool fa, Kbool fb ->
       ( Kbool
           (fun st fr ->
             count_branch st;
             if tc st fr then fa st fr else fb st fr),
         sty )
     | Kfloat (p1, fa), Kfloat (p2, fb) when p1 = p2 ->
       ( Kfloat
           ( p1,
             fun st fr ->
               count_branch st;
               if tc st fr then fa st fr else fb st fr ),
         sty )
     | _ ->
       let va = to_val ca and vb = to_val cb in
       ( Kval
           (fun st fr ->
             count_branch st;
             if tc st fr then va st fr else vb st fr),
         sty ))

and compile_binary ctx venv e op a b : cexp * ty option =
  let ca, ta = compile_expr ctx venv a in
  let cb, tb = compile_expr ctx venv b in
  let loc = e.eloc in
  let is_cmp = match op with Lt | Le | Gt | Ge | Eq | Ne -> true | _ -> false in
  let generic () =
    let va = to_val ca and vb = to_val cb in
    ( Kval
        (fun st fr ->
          let x = va st fr in
          let y = vb st fr in
          eval_binop st loc op x y),
      if is_cmp then Some Tbool else None )
  in
  let kind = function
    | Some Tint | Some Tbool -> `Int
    | Some Tfloat -> `Float Value.Sp
    | Some Tdouble -> `Float Value.Dp
    | Some (Tptr _) | Some Tvoid | None -> `Dyn
  in
  match kind ta, kind tb with
  | `Dyn, _ | _, `Dyn -> generic ()
  | `Int, `Int ->
    let ai = as_int ca and bi = as_int cb in
    let iarith f =
      ( Kint
          (fun st fr ->
            let x = ai st fr in
            let y = bi st fr in
            count_int_op st;
            f x y),
        Some Tint )
    in
    let icmp f =
      ( Kbool
          (fun st fr ->
            let x = ai st fr in
            let y = bi st fr in
            count_int_op st;
            f x y),
        Some Tbool )
    in
    (match op with
     | Add -> iarith ( + )
     | Sub -> iarith ( - )
     | Mul -> iarith ( * )
     | Div ->
       ( Kint
           (fun st fr ->
             let x = ai st fr in
             let y = bi st fr in
             if y = 0 then runtime_error loc "integer division by zero";
             count_int_op st;
             x / y),
         Some Tint )
     | Mod ->
       ( Kint
           (fun st fr ->
             let x = ai st fr in
             let y = bi st fr in
             if y = 0 then runtime_error loc "modulo by zero";
             count_int_op st;
             x mod y),
         Some Tint )
     | Lt -> icmp ( < )
     | Le -> icmp ( <= )
     | Gt -> icmp ( > )
     | Ge -> icmp ( >= )
     | Eq -> icmp ( = )
     | Ne -> icmp ( <> )
     | And | Or -> assert false)
  | ka, kb ->
    (* at least one float operand, none dynamic: the walker's
       [float_op_prec] join *)
    let p =
      match ka, kb with
      | `Float Value.Dp, _ | _, `Float Value.Dp -> Value.Dp
      | _ -> Value.Sp
    in
    let af = as_float ca and bf = as_float cb in
    let farith cls fop =
      if p = Value.Sp then
        Kfloat
          ( Value.Sp,
            fun st fr ->
              let x = af st fr in
              let y = bf st fr in
              count_flop st Value.Sp cls;
              Value.demote (fop x y) )
      else
        Kfloat
          ( Value.Dp,
            fun st fr ->
              let x = af st fr in
              let y = bf st fr in
              count_flop st Value.Dp cls;
              fop x y )
    in
    let fty = Some (if p = Value.Dp then Tdouble else Tfloat) in
    let fcmp fop =
      ( Kbool
          (fun st fr ->
            let x = af st fr in
            let y = bf st fr in
            count_int_op st;
            fop x y),
        Some Tbool )
    in
    (match op with
     | Add -> (farith Cadd ( +. ), fty)
     | Sub -> (farith Cadd ( -. ), fty)
     | Mul -> (farith Cmul ( *. ), fty)
     | Div -> (farith Cdiv ( /. ), fty)
     | Mod ->
       (* the walker's Mod is integral regardless of operand precision *)
       let ai = as_int ca and bi = as_int cb in
       ( Kint
           (fun st fr ->
             let x = ai st fr in
             let y = bi st fr in
             if y = 0 then runtime_error loc "modulo by zero";
             count_int_op st;
             x mod y),
         Some Tint )
     | Lt -> fcmp ( < )
     | Le -> fcmp ( <= )
     | Gt -> fcmp ( > )
     | Ge -> fcmp ( >= )
     | Eq -> fcmp ( = )
     | Ne -> fcmp ( <> )
     | And | Or -> assert false)

and compile_call ctx venv e name args : cexp * ty option =
  let cargs = List.map (fun a -> fst (compile_expr ctx venv a)) args in
  let loc = e.eloc in
  match Hashtbl.find_opt ctx.c_funcs name with
  | Some cf ->
    let vfs = Array.of_list (List.map to_val cargs) in
    let n = Array.length vfs in
    let expects = Array.length cf.cf_coerce in
    if n <> expects then
      (* as in the walker: arguments evaluate and the call counts before
         the arity error is raised *)
      ( Kval
          (fun st fr ->
            for k = 0 to n - 1 do
              ignore (vfs.(k) st fr)
            done;
            st.counters.calls <- st.counters.calls + 1;
            runtime_error cf.cf_loc "calling %s with %d arguments (expects %d)"
              cf.cf_name n expects),
        None )
    else
      ( Kval
          (fun st fr ->
            let vargs = Array.make n (Value.Vint 0) in
            for k = 0 to n - 1 do
              vargs.(k) <- vfs.(k) st fr
            done;
            st.counters.calls <- st.counters.calls + 1;
            match invoke st cf vargs with
            | Some v -> v
            | None -> Value.Vint 0),
        None )
  | None -> compile_intrinsic loc name cargs

and compile_intrinsic loc name (cargs : cexp list) : cexp * ty option =
  let generic () =
    let vfs = List.map to_val cargs in
    ( Kval
        (fun st fr ->
          let rec ev = function
            | [] -> []
            | f :: tl ->
              let v = f st fr in
              v :: ev tl
          in
          eval_intrinsic st loc name (ev vfs)),
      None )
  in
  (* specialized closures only fire on the walker's exact arity; anything
     else falls back to [eval_intrinsic], which reproduces its errors *)
  let f1 cls single op =
    match cargs with
    | [ a ] ->
      let af = as_float a in
      if single then
        ( Kfloat
            ( Value.Sp,
              fun st fr ->
                let x = af st fr in
                count_flop st Value.Sp cls;
                Value.demote (op x) ),
          Some Tfloat )
      else
        ( Kfloat
            ( Value.Dp,
              fun st fr ->
                let x = af st fr in
                count_flop st Value.Dp cls;
                op x ),
          Some Tdouble )
    | _ -> generic ()
  in
  let f2 cls single op =
    match cargs with
    | [ a; b ] ->
      let af = as_float a and bf = as_float b in
      if single then
        ( Kfloat
            ( Value.Sp,
              fun st fr ->
                let x = af st fr in
                let y = bf st fr in
                count_flop st Value.Sp cls;
                Value.demote (op x y) ),
          Some Tfloat )
      else
        ( Kfloat
            ( Value.Dp,
              fun st fr ->
                let x = af st fr in
                let y = bf st fr in
                count_flop st Value.Dp cls;
                op x y ),
          Some Tdouble )
    | _ -> generic ()
  in
  let i2 op =
    match cargs with
    | [ a; b ] ->
      let ai = as_int a and bi = as_int b in
      ( Kint
          (fun st fr ->
            let x = ai st fr in
            let y = bi st fr in
            count_int_op st;
            op x y),
        Some Tint )
    | _ -> generic ()
  in
  match name with
  | "sqrt" -> f1 Cspecial false sqrt
  | "sqrtf" -> f1 Cspecial true sqrt
  | "rsqrt" -> f1 Cspecial false (fun x -> 1.0 /. sqrt x)
  | "rsqrtf" -> f1 Cspecial true (fun x -> 1.0 /. sqrt x)
  | "sin" -> f1 Cspecial false sin
  | "sinf" -> f1 Cspecial true sin
  | "cos" -> f1 Cspecial false cos
  | "cosf" -> f1 Cspecial true cos
  | "tan" -> f1 Cspecial false tan
  | "tanf" -> f1 Cspecial true tan
  | "exp" -> f1 Cspecial false exp
  | "expf" -> f1 Cspecial true exp
  | "log" -> f1 Cspecial false log
  | "logf" -> f1 Cspecial true log
  | "tanh" -> f1 Cspecial false tanh
  | "tanhf" -> f1 Cspecial true tanh
  | "erf" -> f1 Cspecial false erf_approx
  | "erff" -> f1 Cspecial true erf_approx
  | "pow" -> f2 Cspecial false Float.pow
  | "powf" -> f2 Cspecial true Float.pow
  | "fabs" -> f1 Cadd false Float.abs
  | "fabsf" -> f1 Cadd true Float.abs
  | "floor" -> f1 Cadd false Float.floor
  | "floorf" -> f1 Cadd true Float.floor
  | "ceil" -> f1 Cadd false Float.ceil
  | "ceilf" -> f1 Cadd true Float.ceil
  | "fmin" -> f2 Cadd false Float.min
  | "fminf" -> f2 Cadd true Float.min
  | "fmax" -> f2 Cadd false Float.max
  | "fmaxf" -> f2 Cadd true Float.max
  | "abs" ->
    (match cargs with
     | [ a ] ->
       let ai = as_int a in
       ( Kint
           (fun st fr ->
             let x = ai st fr in
             count_int_op st;
             Int.abs x),
         Some Tint )
     | _ -> generic ())
  | "imin" -> i2 Int.min
  | "imax" -> i2 Int.max
  | "rand01" ->
    (match cargs with
     | [] -> (Kfloat (Value.Dp, fun st _ -> Util.Prng.uniform st.prng), Some Tdouble)
     | _ -> generic ())
  | "print_int" ->
    (match cargs with
     | [ a ] ->
       let ai = as_int a in
       ( Kint
           (fun st fr ->
             let n = ai st fr in
             Buffer.add_string st.output (string_of_int n);
             Buffer.add_char st.output '\n';
             0),
         Some Tint )
     | _ -> generic ())
  | "print_float" ->
    (match cargs with
     | [ a ] ->
       let af = as_float a in
       ( Kint
           (fun st fr ->
             let x = af st fr in
             Buffer.add_string st.output (Printf.sprintf "%.17g" x);
             Buffer.add_char st.output '\n';
             0),
         Some Tint )
     | _ -> generic ())
  | _ -> generic ()

and compile_index ctx venv e base idx : cexp * ty option =
  let cb, tb = compile_expr ctx venv base in
  let ci, _ = compile_expr ctx venv idx in
  let loc = e.eloc in
  let bf = to_val cb in
  let generic () =
    let vif = to_val ci in
    ( Kval
        (fun st fr ->
          let vb = bf st fr in
          let vi = vif st fr in
          match vb with
          | Value.Vptr ptr ->
            let i = Value.to_int vi in
            let v =
              try Memory.load st.mem ptr i
              with Failure msg -> runtime_error loc "%s" msg
            in
            count_load st ptr.Value.base (ptr.Value.offset + i);
            v
          | _ -> runtime_error loc "indexing a non-pointer"),
      None )
  in
  match tb with
  | Some (Tptr ((Tfloat | Tdouble) as ety)) ->
    let inf = as_int ci in
    let p = if ety = Tfloat then Value.Sp else Value.Dp in
    ( Kfloat
        ( p,
          fun st fr ->
            match bf st fr with
            | Value.Vptr ptr ->
              let i = inf st fr in
              let x =
                try Memory.load_float st.mem ptr i
                with Failure msg -> runtime_error loc "%s" msg
              in
              count_load st ptr.Value.base (ptr.Value.offset + i);
              x
            | _ -> runtime_error loc "indexing a non-pointer" ),
      Some ety )
  | Some (Tptr Tint) ->
    let inf = as_int ci in
    ( Kint
        (fun st fr ->
          match bf st fr with
          | Value.Vptr ptr ->
            let i = inf st fr in
            let x =
              try Memory.load_int st.mem ptr i
              with Failure msg -> runtime_error loc "%s" msg
            in
            count_load st ptr.Value.base (ptr.Value.offset + i);
            x
          | _ -> runtime_error loc "indexing a non-pointer"),
      Some Tint )
  | Some (Tptr Tbool) ->
    let inf = as_int ci in
    ( Kbool
        (fun st fr ->
          match bf st fr with
          | Value.Vptr ptr ->
            let i = inf st fr in
            let x =
              try Memory.load_int st.mem ptr i
              with Failure msg -> runtime_error loc "%s" msg
            in
            count_load st ptr.Value.base (ptr.Value.offset + i);
            x <> 0
          | _ -> runtime_error loc "indexing a non-pointer"),
      Some Tbool )
  | _ -> generic ()

and compile_cast ctx venv e ty a : cexp * ty option =
  let ca, _ = compile_expr ctx venv a in
  let loc = e.eloc in
  match ca, ty with
  | (Kint _ | Kbool _ | Kfloat _), Tint -> (Kint (as_int ca), Some Tint)
  | (Kint _ | Kbool _ | Kfloat _), Tbool -> (Kbool (as_truth ca), Some Tbool)
  | (Kint _ | Kbool _ | Kfloat _), Tfloat ->
    let af = as_float ca in
    (Kfloat (Value.Sp, fun st fr -> Value.demote (af st fr)), Some Tfloat)
  | (Kint _ | Kbool _ | Kfloat _), Tdouble ->
    (Kfloat (Value.Dp, as_float ca), Some Tdouble)
  | _ ->
    let vf = to_val ca in
    ( Kval
        (fun st fr ->
          let v = vf st fr in
          try Value.coerce ty v
          with Invalid_argument msg -> runtime_error loc "%s" msg),
      Some ty )

(* a closure producing [Value.coerce dty <expr>], specialized on the
   declared type; the generic arm keeps the walker's raw [Invalid_argument]
   from pointer/void coercions *)
and coerced_value ctx venv (dty : ty) e0 : state -> frame -> Value.t =
  let c, _ = compile_expr ctx venv e0 in
  match dty, c with
  | Tint, (Kint _ | Kbool _ | Kfloat _) ->
    let f = as_int c in
    fun st fr -> Value.Vint (f st fr)
  | Tbool, (Kint _ | Kbool _ | Kfloat _) ->
    let f = as_truth c in
    fun st fr -> Value.Vbool (f st fr)
  | Tfloat, (Kint _ | Kbool _ | Kfloat _) ->
    let f = as_float c in
    fun st fr -> Value.Vfloat (Value.Sp, Value.demote (f st fr))
  | Tdouble, (Kint _ | Kbool _ | Kfloat _) ->
    let f = as_float c in
    fun st fr -> Value.Vfloat (Value.Dp, f st fr)
  | _ ->
    let vf = to_val c in
    fun st fr -> Value.coerce dty (vf st fr)

(* ---- statement compilation ---- *)

and compile_stmt ctx (venv : venv) (s : stmt) : citem * venv =
  let it, venv' = compile_stmt_inner ctx venv s in
  (wrap_region ctx.c_cfg s.sid it, venv')

and compile_stmt_inner ctx (venv : venv) (s : stmt) : citem * venv =
  match s.sdesc with
  | Decl d ->
    (match d.darray with
     | Some size_e ->
       let sz = as_int (fst (compile_expr ctx venv size_e)) in
       let slot = alloc_slot ctx in
       let name = d.dname and ety = d.dty and loc = s.sloc in
       ( Cunit
           (fun st fr ->
             let n = sz st fr in
             let ptr =
               try Memory.alloc st.mem ~name ~elem_ty:ety n
               with Invalid_argument msg -> runtime_error loc "%s" msg
             in
             fr.(slot) <- Value.Vptr ptr),
         (d.dname, Bslot (slot, Tptr d.dty)) :: venv )
     | None ->
       let dty = decl_scalar_ty d in
       let slot = alloc_slot ctx in
       let write =
         match d.dinit with
         | Some e0 ->
           let cv = coerced_value ctx venv dty e0 in
           fun st fr -> fr.(slot) <- cv st fr
         | None -> fun _ fr -> fr.(slot) <- Value.zero_of dty
       in
       (Cunit write, (d.dname, Bslot (slot, dty)) :: venv))
  | Assign (lhs, op, rhs) -> (compile_assign ctx venv s lhs op rhs, venv)
  | Expr_stmt e ->
    let c, _ = compile_expr ctx venv e in
    let u =
      match c with
      | Kint f -> fun st fr -> ignore (f st fr)
      | Kbool f -> fun st fr -> ignore (f st fr)
      | Kfloat (_, f) -> fun st fr -> ignore (f st fr)
      | Kval f -> fun st fr -> ignore (f st fr)
    in
    (Cunit u, venv)
  | If (c, b1, b2) ->
    let tc = as_truth (fst (compile_expr ctx venv c)) in
    let f1 = compile_block ctx venv b1 in
    let f2 = compile_block ctx venv b2 in
    ( Cflow
        (fun st fr ->
          count_branch st;
          if tc st fr then f1 st fr else f2 st fr),
      venv )
  | While (c, body) ->
    let tc = as_truth (fst (compile_expr ctx venv c)) in
    let bodyf = compile_block ctx venv body in
    let run_while st fr (a : loop_acc) =
      let rec iterate () =
        count_branch st;
        if tc st fr then begin
          a.la_iterations <- a.la_iterations + 1;
          match bodyf st fr with
          | Fnormal | Fcontinue -> iterate ()
          | Fbreak -> Fnormal
          | Freturn _ as f -> f
        end
        else Fnormal
      in
      iterate ()
    in
    let sid = s.sid in
    if ctx.c_cfg.profile_loops then
      ( Cflow
          (fun st fr ->
            let a = loop_acc_of st sid in
            a.la_entries <- a.la_entries + 1;
            let snapshot = Counters.copy st.counters in
            let flow = run_while st fr a in
            Counters.add_into a.la_counters (Counters.diff st.counters snapshot);
            flow),
        venv )
    else (Cflow (fun st fr -> run_while st fr (dummy_loop_acc ())), venv)
  | For (h, body) ->
    let lof = as_int (fst (compile_expr ctx venv h.lo)) in
    let slot = alloc_slot ctx in
    let venv' = (h.index, Bslot (slot, Tint)) :: venv in
    let hif = as_int (fst (compile_expr ctx venv' h.hi)) in
    let stepf = as_int (fst (compile_expr ctx venv' h.step)) in
    let bodyf = compile_block ctx venv' body in
    let cmp : int -> int -> bool =
      match h.cmp with CLt -> ( < ) | CLe -> ( <= )
    in
    (* If the lowering planned this loop, bind the plan to this function's
       frame layout once; at runtime the guard either executes the whole
       loop on the fast path or falls through to [run_for] untouched.  The
       names an inlined callee reads are globals, whatever this function
       binds. *)
    let fast =
      match Hashtbl.find_opt ctx.c_plan s.sid with
      | None -> None
      | Some fl ->
        let lookup ~global name =
          match
            if global then Hashtbl.find_opt ctx.c_globals name
            else lookup_var ctx venv' name
          with
          | Some (Bslot (i, t)) -> Some (Fastloop.Slot i, t)
          | Some (Bglobal (c, t)) -> Some (Fastloop.Global c, t)
          | None -> None
        in
        Fastloop.prepare fl ~index_slot:slot ~lookup
    in
    let run_for st fr (a : loop_acc) =
      let rec iterate () =
        count_branch st;
        count_int_op st;
        let i = Value.to_int fr.(slot) in
        let hi = hif st fr in
        if cmp i hi then begin
          a.la_iterations <- a.la_iterations + 1;
          match bodyf st fr with
          | Fnormal | Fcontinue ->
            count_int_op st;
            let step = stepf st fr in
            fr.(slot) <- Value.Vint (Value.to_int fr.(slot) + step);
            iterate ()
          | Fbreak -> Fnormal
          | Freturn _ as f -> f
        end
        else Fnormal
      in
      iterate ()
    in
    let run_loop st fr a =
      match fast with
      | Some fp when Fastloop.try_run fp st fr a -> Fnormal
      | _ -> run_for st fr a
    in
    let sid = s.sid in
    if ctx.c_cfg.profile_loops then
      ( Cflow
          (fun st fr ->
            let lo = lof st fr in
            let a = loop_acc_of st sid in
            a.la_entries <- a.la_entries + 1;
            let snapshot = Counters.copy st.counters in
            fr.(slot) <- Value.Vint lo;
            let flow = run_loop st fr a in
            Counters.add_into a.la_counters (Counters.diff st.counters snapshot);
            flow),
        venv )
    else
      ( Cflow
          (fun st fr ->
            let lo = lof st fr in
            fr.(slot) <- Value.Vint lo;
            run_loop st fr (dummy_loop_acc ())),
        venv )
  | Return None -> (Cflow (fun _ _ -> Freturn None), venv)
  | Return (Some e0) ->
    let vf = to_val (fst (compile_expr ctx venv e0)) in
    (Cflow (fun st fr -> Freturn (Some (vf st fr))), venv)
  | Break -> (Cflow (fun _ _ -> Fbreak), venv)
  | Continue -> (Cflow (fun _ _ -> Fcontinue), venv)
  | Scope blk -> (Cflow (compile_block ctx venv blk), venv)

and compile_assign ctx venv (s : stmt) lhs op rhs : citem =
  let cr, _ = compile_expr ctx venv rhs in
  match lhs.edesc with
  | Var v ->
    (match lookup_var ctx venv v with
     | None ->
       let vf = to_val cr in
       let loc = lhs.eloc in
       Cunit
         (fun st fr ->
           ignore (vf st fr);
           runtime_error loc "unbound variable %s" v)
     | Some b -> compile_var_assign s b op cr)
  | Index (base, idx) -> compile_index_assign ctx venv s lhs base idx op cr
  | _ ->
    let vf = to_val cr in
    let loc = lhs.eloc in
    Cunit
      (fun st fr ->
        ignore (vf st fr);
        runtime_error loc "invalid assignment target")

and compile_var_assign (s : stmt) (b : binding) op (cr : cexp) : citem =
  let ty = binding_ty b in
  let get : state -> frame -> Value.t =
    match b with
    | Bslot (i, _) -> fun _ fr -> fr.(i)
    | Bglobal (cell, _) -> fun _ _ -> !cell
  in
  let set : state -> frame -> Value.t -> unit =
    match b with
    | Bslot (i, _) -> fun _ fr v -> fr.(i) <- v
    | Bglobal (cell, _) -> fun _ _ v -> cell := v
  in
  match op with
  | Set ->
    (match ty, cr with
     | Tint, (Kint _ | Kbool _ | Kfloat _) ->
       let f = as_int cr in
       Cunit (fun st fr -> set st fr (Value.Vint (f st fr)))
     | Tbool, (Kint _ | Kbool _ | Kfloat _) ->
       let f = as_truth cr in
       Cunit (fun st fr -> set st fr (Value.Vbool (f st fr)))
     | Tfloat, (Kint _ | Kbool _ | Kfloat _) ->
       let f = as_float cr in
       Cunit (fun st fr -> set st fr (Value.Vfloat (Value.Sp, Value.demote (f st fr))))
     | Tdouble, (Kint _ | Kbool _ | Kfloat _) ->
       let f = as_float cr in
       Cunit (fun st fr -> set st fr (Value.Vfloat (Value.Dp, f st fr)))
     | _ ->
       let vf = to_val cr in
       Cunit
         (fun st fr ->
           let v = vf st fr in
           set st fr (cast_like (get st fr) v)))
  | AddEq | SubEq | MulEq | DivEq ->
    let bop = binop_of_assign op in
    let loc = s.sloc in
    (match ty, cr with
     | Tint, (Kint _ | Kbool _) ->
       let f = as_int cr in
       (match bop with
        | Add ->
          Cunit
            (fun st fr ->
              let y = f st fr in
              let x = Value.to_int (get st fr) in
              count_int_op st;
              set st fr (Value.Vint (x + y)))
        | Sub ->
          Cunit
            (fun st fr ->
              let y = f st fr in
              let x = Value.to_int (get st fr) in
              count_int_op st;
              set st fr (Value.Vint (x - y)))
        | Mul ->
          Cunit
            (fun st fr ->
              let y = f st fr in
              let x = Value.to_int (get st fr) in
              count_int_op st;
              set st fr (Value.Vint (x * y)))
        | Div ->
          Cunit
            (fun st fr ->
              let y = f st fr in
              let x = Value.to_int (get st fr) in
              if y = 0 then runtime_error loc "integer division by zero";
              count_int_op st;
              set st fr (Value.Vint (x / y)))
        | _ -> assert false)
     | Tint, Kfloat (p, _) ->
       (* float compound op on an int variable: flop-counted at the rhs
          precision, result truncated back to int by [cast_like] *)
       let f = as_float cr in
       let cls = (match bop with Add | Sub -> Cadd | Mul -> Cmul | _ -> Cdiv) in
       let fop =
         match bop with
         | Add -> ( +. )
         | Sub -> ( -. )
         | Mul -> ( *. )
         | _ -> ( /. )
       in
       Cunit
         (fun st fr ->
           let y = f st fr in
           let x = Value.to_float (get st fr) in
           count_flop st p cls;
           let r = fop x y in
           let r = if p = Value.Sp then Value.demote r else r in
           set st fr (Value.Vint (int_of_float r)))
     | (Tfloat | Tdouble), (Kint _ | Kbool _ | Kfloat _) ->
       let sp = ty = Tfloat in
       let p =
         match ty, cr with
         | Tdouble, _ -> Value.Dp
         | _, Kfloat (Value.Dp, _) -> Value.Dp
         | _ -> Value.Sp
       in
       let f = as_float cr in
       let cls = (match bop with Add | Sub -> Cadd | Mul -> Cmul | _ -> Cdiv) in
       let fop =
         match bop with
         | Add -> ( +. )
         | Sub -> ( -. )
         | Mul -> ( *. )
         | _ -> ( /. )
       in
       Cunit
         (fun st fr ->
           let y = f st fr in
           let x = Value.to_float (get st fr) in
           count_flop st p cls;
           let r = fop x y in
           let r = if p = Value.Sp then Value.demote r else r in
           set st fr
             (if sp then Value.Vfloat (Value.Sp, Value.demote r)
              else Value.Vfloat (Value.Dp, r)))
     | _ ->
       let vf = to_val cr in
       Cunit
         (fun st fr ->
           let vr = vf st fr in
           let old = get st fr in
           set st fr (cast_like old (eval_binop st loc bop old vr))))

and compile_index_assign ctx venv (s : stmt) lhs base idx op (cr : cexp) : citem =
  let cb, tb = compile_expr ctx venv base in
  let ci, _ = compile_expr ctx venv idx in
  let bf = to_val cb in
  let lloc = lhs.eloc and sloc = s.sloc in
  let generic () =
    let vrf = to_val cr and vif = to_val ci in
    Cunit
      (fun st fr ->
        let vr = vrf st fr in
        let vb = bf st fr in
        let vi = vif st fr in
        match vb with
        | Value.Vptr ptr ->
          let i = Value.to_int vi in
          let elem = ptr.Value.base in
          let nv =
            match op with
            | Set -> vr
            | AddEq | SubEq | MulEq | DivEq ->
              let old =
                try Memory.load st.mem ptr i
                with Failure msg -> runtime_error lloc "%s" msg
              in
              count_load st elem (ptr.Value.offset + i);
              eval_binop st sloc (binop_of_assign op) old vr
          in
          (try Memory.store st.mem ptr i nv
           with Failure msg -> runtime_error lloc "%s" msg);
          count_store st elem (ptr.Value.offset + i)
        | _ -> runtime_error lloc "assigning through a non-pointer")
  in
  match tb, op, cr with
  | Some (Tptr (Tfloat | Tdouble)), Set, (Kint _ | Kbool _ | Kfloat _) ->
    let rf = as_float cr and inf = as_int ci in
    Cunit
      (fun st fr ->
        let y = rf st fr in
        match bf st fr with
        | Value.Vptr ptr ->
          let i = inf st fr in
          (try Memory.store_float st.mem ptr i y
           with Failure msg -> runtime_error lloc "%s" msg);
          count_store st ptr.Value.base (ptr.Value.offset + i)
        | _ -> runtime_error lloc "assigning through a non-pointer")
  | Some (Tptr Tint), Set, (Kint _ | Kbool _ | Kfloat _) ->
    let rn = as_int cr and inf = as_int ci in
    Cunit
      (fun st fr ->
        let y = rn st fr in
        match bf st fr with
        | Value.Vptr ptr ->
          let i = inf st fr in
          (try Memory.store_int st.mem ptr i y
           with Failure msg -> runtime_error lloc "%s" msg);
          count_store st ptr.Value.base (ptr.Value.offset + i)
        | _ -> runtime_error lloc "assigning through a non-pointer")
  | Some (Tptr Tbool), Set, (Kint _ | Kbool _ | Kfloat _) ->
    (* bool stores truth-test the value; [as_int] would truncate floats *)
    let rb = as_truth cr and inf = as_int ci in
    Cunit
      (fun st fr ->
        let y = rb st fr in
        match bf st fr with
        | Value.Vptr ptr ->
          let i = inf st fr in
          (try Memory.store_int st.mem ptr i (if y then 1 else 0)
           with Failure msg -> runtime_error lloc "%s" msg);
          count_store st ptr.Value.base (ptr.Value.offset + i)
        | _ -> runtime_error lloc "assigning through a non-pointer")
  | ( Some (Tptr ((Tfloat | Tdouble) as ety)),
      (AddEq | SubEq | MulEq | DivEq),
      (Kint _ | Kbool _ | Kfloat _) ) ->
    let bop = binop_of_assign op in
    let p =
      match ety, cr with
      | Tdouble, _ -> Value.Dp
      | _, Kfloat (Value.Dp, _) -> Value.Dp
      | _ -> Value.Sp
    in
    let cls = (match bop with Add | Sub -> Cadd | Mul -> Cmul | _ -> Cdiv) in
    let fop =
      match bop with Add -> ( +. ) | Sub -> ( -. ) | Mul -> ( *. ) | _ -> ( /. )
    in
    let rf = as_float cr and inf = as_int ci in
    Cunit
      (fun st fr ->
        let y = rf st fr in
        match bf st fr with
        | Value.Vptr ptr ->
          let i = inf st fr in
          let x =
            try Memory.load_float st.mem ptr i
            with Failure msg -> runtime_error lloc "%s" msg
          in
          count_load st ptr.Value.base (ptr.Value.offset + i);
          count_flop st p cls;
          let r = fop x y in
          let r = if p = Value.Sp then Value.demote r else r in
          (try Memory.store_float st.mem ptr i r
           with Failure msg -> runtime_error lloc "%s" msg);
          count_store st ptr.Value.base (ptr.Value.offset + i)
        | _ -> runtime_error lloc "assigning through a non-pointer")
  | Some (Tptr Tint), (AddEq | SubEq | MulEq | DivEq), (Kint _ | Kbool _) ->
    let bop = binop_of_assign op in
    let rn = as_int cr and inf = as_int ci in
    let finish st ptr i r =
      (try Memory.store_int st.mem ptr i r
       with Failure msg -> runtime_error lloc "%s" msg);
      count_store st ptr.Value.base (ptr.Value.offset + i)
    in
    Cunit
      (fun st fr ->
        let y = rn st fr in
        match bf st fr with
        | Value.Vptr ptr ->
          let i = inf st fr in
          let x =
            try Memory.load_int st.mem ptr i
            with Failure msg -> runtime_error lloc "%s" msg
          in
          count_load st ptr.Value.base (ptr.Value.offset + i);
          (match bop with
           | Add ->
             count_int_op st;
             finish st ptr i (x + y)
           | Sub ->
             count_int_op st;
             finish st ptr i (x - y)
           | Mul ->
             count_int_op st;
             finish st ptr i (x * y)
           | _ ->
             if y = 0 then runtime_error sloc "integer division by zero";
             count_int_op st;
             finish st ptr i (x / y))
        | _ -> runtime_error lloc "assigning through a non-pointer")
  | _ -> generic ()

and compile_block ctx (venv : venv) (blk : block) : state -> frame -> flow =
  let items_rev, _ =
    List.fold_left
      (fun (acc, venv) s ->
        let it, venv' = compile_stmt ctx venv s in
        (it :: acc, venv'))
      ([], venv) blk
  in
  chain (segment (List.rev items_rev))

(* ---- program compilation ---- *)

type cprogram = {
  cp_ginits : (state -> unit) list;
  cp_entry : cfunc option;
  cp_entry_name : string;
}

let empty_frame : frame = [||]

let compile ?(plan : Ir.plan = Hashtbl.create 0) (cfg : config) (p : program) :
    cprogram =
  let c_funcs = Hashtbl.create 16 in
  (* pass 1: function records, so call sites (including ones inside global
     initialisers) bind directly; bodies are filled in by pass 3.
     Hashtbl.replace makes the last duplicate name win, as in the walker. *)
  List.iter
    (fun fn ->
      let coerce =
        Array.of_list
          (List.map
             (fun prm ->
               match prm.prm_ty with
               | Tptr _ -> fun (v : Value.t) -> v
               | t -> fun v -> Value.coerce t v)
             fn.fparams)
      in
      Hashtbl.replace c_funcs fn.fname
        {
          cf_name = fn.fname;
          cf_loc = fn.floc;
          cf_coerce = coerce;
          cf_nslots = 0;
          cf_body = (fun _ _ -> Fnormal);
          cf_profiled = List.mem (Rfunc fn.fname) cfg.regions;
        })
    (funcs p);
  let c_globals = Hashtbl.create 16 in
  let mk_ctx () = { c_cfg = cfg; c_funcs; c_globals; c_plan = plan; c_nslots = 0 } in
  (* pass 2: global cells and their initialiser closures.  Each initialiser
     is compiled before its own cell is registered, so self-references and
     forward references fail with "unbound variable" like the walker's
     incremental binding. *)
  let ginits_rev =
    List.fold_left
      (fun acc g ->
        match g with
        | Gfunc _ -> acc
        | Gdecl d ->
          let cell = ref (Value.Vint 0) in
          let ctx = mk_ctx () in
          let init =
            match d.darray with
            | Some size_e ->
              let sz = as_int (fst (compile_expr ctx [] size_e)) in
              let name = d.dname and ety = d.dty in
              fun st ->
                cell := Value.Vptr (Memory.alloc st.mem ~name ~elem_ty:ety (sz st empty_frame))
            | None ->
              (match List.assoc_opt d.dname cfg.overrides with
               | Some ov ->
                 let v = Value.coerce d.dty ov in
                 fun _ -> cell := v
               | None ->
                 (match d.dinit with
                  | Some e0 ->
                    let cv = coerced_value ctx [] d.dty e0 in
                    fun st -> cell := cv st empty_frame
                  | None -> fun _ -> cell := Value.zero_of d.dty))
          in
          Hashtbl.replace c_globals d.dname (Bglobal (cell, decl_scalar_ty d));
          init :: acc)
      [] p.pglobals
  in
  (* pass 3: function bodies, with every global and function visible *)
  List.iter
    (fun fn ->
      let cf = Hashtbl.find c_funcs fn.fname in
      let ctx = mk_ctx () in
      let venv, nparams =
        List.fold_left
          (fun (venv, k) prm -> ((prm.prm_name, Bslot (k, prm.prm_ty)) :: venv, k + 1))
          ([], 0) fn.fparams
      in
      ctx.c_nslots <- nparams;
      let body = compile_block ctx venv fn.fbody in
      cf.cf_nslots <- ctx.c_nslots;
      cf.cf_body <- body)
    (funcs p);
  {
    cp_ginits = List.rev ginits_rev;
    cp_entry = Hashtbl.find_opt c_funcs cfg.entry;
    cp_entry_name = cfg.entry;
  }

let run ?plan (config : config) (p : program) : result =
  let cp = compile ?plan config p in
  let st = make_state config p in
  List.iter (fun init -> init st) cp.cp_ginits;
  match cp.cp_entry with
  | None -> runtime_error Loc.dummy "entry function %s not found" cp.cp_entry_name
  | Some cf ->
    let expects = Array.length cf.cf_coerce in
    if expects <> 0 then
      runtime_error cf.cf_loc "calling %s with %d arguments (expects %d)" cf.cf_name 0
        expects;
    let ret = invoke st cf empty_frame in
    assemble_result st ret
