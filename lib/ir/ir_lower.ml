(* Lowering from the typed AST to flat fast-loop nest plans.

   Parity discipline: every lowered operation must be observably identical
   to what the walker (lib/interp/walker.ml, over the evaluators of
   Interp_rt) does for the same source node — same float rounding
   (single-precision demotion points), same counter increments, same error
   messages and locations, same PRNG draw order.  Each arm below cites the
   walker behaviour it mirrors; when in doubt the pass rejects the loop
   (raising [Reject] with a reason) and the loop simply runs on the
   walker.

   Since the nest extension, a plan is a tree: the root level's block may
   contain inner loop levels (whose bounds must be nest-invariant, so every
   level has one trip count per entry) and control-flow sites ([if]
   statements, ternaries and short-circuit operators, whose arms are
   sub-blocks selected by a 0/1 condition register).  Step and counter
   accounting stays exact because each block carries its own static cost
   and the executor counts taken then-arms per site.

   A statement call of a leaf user function is inlined: its arguments are
   lowered in the caller's scope, then its body in a scope of its own (its
   parameters, its locals and the globals), so the launch loop of a HIP
   design — one body call per thread — plans as a single nest. *)

open Ast

exception Reject of string

let reject r = raise (Reject r)

(* Value.demote lives in lib/interp, which depends on this library; the
   round trip is replicated bit-for-bit. *)
let demote32 f = Int32.float_of_bits (Int32.bits_of_float f)

(* ---- invariant integer expressions ---- *)

(* Smart constructors fold constants and units.  All identities hold in the
   wrap-around ring of native ints, so simplification never changes the
   value the guard computes. *)
let iadd a b =
  match a, b with
  | Ir.Iconst x, Ir.Iconst y -> Ir.Iconst (x + y)
  | Ir.Iconst 0, x | x, Ir.Iconst 0 -> x
  | _ -> Ir.Iadd (a, b)

let ineg = function
  | Ir.Iconst x -> Ir.Iconst (-x)
  | Ir.Ineg x -> x
  | x -> Ir.Ineg x

let isub a b =
  match a, b with
  | Ir.Iconst x, Ir.Iconst y -> Ir.Iconst (x - y)
  | x, Ir.Iconst 0 -> x
  | Ir.Iconst 0, x -> ineg x
  | _ -> Ir.Isub (a, b)

let imul a b =
  match a, b with
  | Ir.Iconst x, Ir.Iconst y -> Ir.Iconst (x * y)
  | Ir.Iconst 0, _ | _, Ir.Iconst 0 -> Ir.Iconst 0
  | Ir.Iconst 1, x | x, Ir.Iconst 1 -> x
  | _ -> Ir.Imul (a, b)

(* sparse per-level coefficient vectors: sorted (level, iexpr) assoc lists
   with no zero entries, merged pointwise *)
let cneg coefs = List.map (fun (l, e) -> (l, ineg e)) coefs

let rec cmerge f g xs ys =
  match xs, ys with
  | [], [] -> []
  | x :: tl, [] -> x :: cmerge f g tl []
  | [], (l, e) :: tl -> (l, g e) :: cmerge f g [] tl
  | (la, ea) :: ta, (lb, eb) :: tb ->
    if la < lb then (la, ea) :: cmerge f g ta ys
    else if lb < la then (lb, g eb) :: cmerge f g xs tb
    else (la, f ea eb) :: cmerge f g ta tb

let cnorm coefs = List.filter (fun (_, e) -> e <> Ir.Iconst 0) coefs

let cadd xs ys = cnorm (cmerge iadd (fun e -> e) xs ys)

let csub xs ys = cnorm (cmerge isub ineg xs ys)

let cscale k coefs =
  List.filter_map
    (fun (l, e) ->
      match imul k e with Ir.Iconst 0 -> None | e' -> Some (l, e'))
    coefs

(* ---- per-nest lowering context ---- *)

type mvar = {
  mv_name : string;
  mv_global : bool;
  mv_kind : Ir.var_kind;
  mv_reg : int;
  mutable mv_written : bool;
}

type marr = {
  ma_name : string;
  ma_global : bool;
  ma_ety : Ir.ety;
  mutable ma_stored : bool;
  ma_size : Ir.iexpr option;  (* declared in the nest, this many elements *)
}

(* result of lowering an expression: register plus static kind, the
   representation the walker's value has (booleans ride in int registers
   as 0/1) *)
type lres = Ri of int * bool | Rf of int * Ir.prec

(* what a name in the body's scope currently resolves to *)
type sym =
  | Sindex of int  (** loop index of level [l] *)
  | Slocal of lres
  | Sarr of int * marr
      (** an array the nest declares, or an inlined callee's pointer
          parameter *)

(* The scope fields ([env], [all_locals], [sym], [in_callee]) describe the
   code being lowered: the nest's own body, or the body of a callee inlined
   into it.  In a callee, every name its parameters and locals do not bind
   is a global. *)
type lctx = {
  mutable env : Typecheck.env;  (* scope enclosing the nest (without the indexes) *)
  assigned : (string, unit) Hashtbl.t;
      (* scalars assigned anywhere in the nest, inlined callees included *)
  mutable all_locals : (string, unit) Hashtbl.t;  (* names declared anywhere in scope *)
  mutable sym : (string, sym) Hashtbl.t;  (* scoped: add shadows, remove unshadows *)
  mutable in_callee : bool;
  genv : Typecheck.env;  (* globals only: a callee's enclosing scope *)
  user_funcs : (string, func) Hashtbl.t;
  region_funcs : (string, unit) Hashtbl.t;  (* [Rfunc] regions of the run *)
  region_set : (int, unit) Hashtbl.t;
  mutable nf : int;
  mutable ni : int;
  mutable pro : Ir.fop list;  (* reversed *)
  (* the block currently under construction *)
  mutable cur : Ir.fop list;  (* reversed pending straight-line run *)
  mutable items : Ir.bitem list;  (* reversed *)
  mutable cnt : Counters.t;
  (* nest-wide tables *)
  mutable nlevels : int;
  lvls : (int, Ir.level) Hashtbl.t;
  lidx : (int, int) Hashtbl.t;  (* level id -> lazily allocated index reg *)
  mutable sites : Ir.site list;  (* reversed; id = index from front *)
  mutable nsites : int;
  vtbl : (bool * string, int * mvar) Hashtbl.t;  (* keyed (global, name) *)
  mutable vars : mvar list;  (* reversed; id = index from front *)
  mutable nvars : int;
  atbl : (bool * string, int * marr) Hashtbl.t;
  mutable arrs : marr list;  (* reversed *)
  mutable narrs : int;
  mutable cursors : (int * (int * Ir.iexpr) list * Ir.iexpr * Loc.t option) list;
      (* reversed; (array id, sparse per-level coefs, base, arm location) *)
  mutable ncursors : int;
  fconsts : (int64, int) Hashtbl.t;
  iconsts : (int, int) Hashtbl.t;
  (* inlined call sites (reversed), the distinct callees in first-call
     order, and the nesting depth of levels and [if] arms around the code
     being lowered: a call at depth 0 runs on every root iteration *)
  mutable calls : Ir.call list;
  mutable ncalls : int;
  mutable callees : string list;
  mutable depth : int;
  mutable cond_call : bool;
  mutable arms : int;  (* site arms around the code being lowered *)
}

let allocf c =
  let r = c.nf in
  c.nf <- r + 1;
  r

let alloci c =
  let r = c.ni in
  c.ni <- r + 1;
  r

let emit c op = c.cur <- op :: c.cur

(* ---- block construction ----

   Blocks are built with an explicit save/restore stack so that site arms
   can be lowered mid-expression (ternaries) and closed in any order that
   respects nesting. *)

type openblk = { ob_cur : Ir.fop list; ob_items : Ir.bitem list; ob_cnt : Counters.t }

let open_block c =
  let ob = { ob_cur = c.cur; ob_items = c.items; ob_cnt = c.cnt } in
  c.cur <- [];
  c.items <- [];
  c.cnt <- Counters.create ();
  ob

let flush_ops c =
  if c.cur <> [] then begin
    c.items <- Ir.Bops (Array.of_list (List.rev c.cur)) :: c.items;
    c.cur <- []
  end

let close_block c ob =
  flush_ops c;
  let b = { Ir.b_items = Array.of_list (List.rev c.items); b_cnt = c.cnt } in
  c.cur <- ob.ob_cur;
  c.items <- ob.ob_items;
  c.cnt <- ob.ob_cnt;
  b

let with_block c f =
  let ob = open_block c in
  f ();
  close_block c ob

(* lower [f], code that runs conditionally or repeatedly: an [if] arm or
   an inner level's body *)
let nested c f =
  c.depth <- c.depth + 1;
  let r = f () in
  c.depth <- c.depth - 1;
  r

(* lower [f], code in an arm of a site: its cursors may be checked per
   access ([getcursor]) *)
let arm c f =
  c.arms <- c.arms + 1;
  let r = f () in
  c.arms <- c.arms - 1;
  r

let add_site c cond bt be =
  flush_ops c;
  let id = c.nsites in
  c.nsites <- id + 1;
  c.sites <- { Ir.s_cond = cond; s_then = bt; s_else = be } :: c.sites;
  c.items <- Ir.Bsite id :: c.items

let const_f c x =
  let key = Int64.bits_of_float x in
  match Hashtbl.find_opt c.fconsts key with
  | Some r -> r
  | None ->
    let r = allocf c in
    c.pro <- Ir.FConst (r, x) :: c.pro;
    Hashtbl.add c.fconsts key r;
    r

let const_i c n =
  match Hashtbl.find_opt c.iconsts n with
  | Some r -> r
  | None ->
    let r = alloci c in
    c.pro <- Ir.IConst (r, n) :: c.pro;
    Hashtbl.add c.iconsts n r;
    r

let level_index_reg c l =
  match Hashtbl.find_opt c.lidx l with
  | Some r -> r
  | None ->
    let r = alloci c in
    Hashtbl.add c.lidx l r;
    r

(* external names, resolved in the current scope: a callee's are globals *)
let getvar c name (kind : Ir.var_kind) =
  let key = (c.in_callee, name) in
  match Hashtbl.find_opt c.vtbl key with
  | Some (id, mv) ->
    if mv.mv_kind <> kind then reject "variable kind mismatch";
    (id, mv)
  | None ->
    let reg = match kind with Ir.Kfloat _ -> allocf c | _ -> alloci c in
    let mv =
      {
        mv_name = name;
        mv_global = c.in_callee;
        mv_kind = kind;
        mv_reg = reg;
        mv_written = false;
      }
    in
    let id = c.nvars in
    c.nvars <- id + 1;
    c.vars <- mv :: c.vars;
    Hashtbl.add c.vtbl key (id, mv);
    (id, mv)

let newarr c ma =
  let id = c.narrs in
  c.narrs <- id + 1;
  c.arrs <- ma :: c.arrs;
  id

let getarr c name (ety : Ir.ety) =
  let key = (c.in_callee, name) in
  match Hashtbl.find_opt c.atbl key with
  | Some (id, ma) ->
    if ma.ma_ety <> ety then reject "array element-type mismatch";
    (id, ma)
  | None ->
    let ma =
      { ma_name = name; ma_global = c.in_callee; ma_ety = ety; ma_stored = false;
        ma_size = None }
    in
    let id = newarr c ma in
    Hashtbl.add c.atbl key (id, ma);
    (id, ma)

(* A cursor for an access at [loc]; accesses in site arms share a cursor
   only with accesses at the same location, so a cursor the guard checks
   per access knows where its out-of-bounds error is raised *)
let getcursor c aid (coefs : (int * Ir.iexpr) list) base ~loc =
  let arm = if c.arms > 0 then Some loc else None in
  let key = (aid, coefs, base, arm) in
  let rec find k = function
    | [] -> None
    | cu :: tl -> if cu = key then Some k else find (k - 1) tl
  in
  match find (c.ncursors - 1) c.cursors with
  | Some k -> k
  | None ->
    let k = c.ncursors in
    c.ncursors <- k + 1;
    c.cursors <- key :: c.cursors;
    k

(* counter-delta helpers; mirror Interp_rt.count_int_op / count_flop /
   count_load / count_store *)
let kadd c i k = c.cnt.(i) <- c.cnt.(i) + k

let kint c = kadd c Counters.int_ops 1

let kbranch c = kadd c Counters.branches 1

let kflop c (p : Ir.prec) cls = kadd c (Counters.flop ~single:(p = Ir.Psingle) cls) 1

let cls_of_bop = function
  | Add | Sub -> Counters.Add
  | Mul -> Counters.Mul
  | _ -> Counters.Div

let kload c (ety : Ir.ety) =
  kadd c Counters.loads 1;
  kadd c Counters.bytes_loaded (Ast.sizeof (Ir.ty_of_ety ety))

let kstore c (ety : Ir.ety) =
  kadd c Counters.stores 1;
  kadd c Counters.bytes_stored (Ast.sizeof (Ir.ty_of_ety ety))

(* ---- affine index extraction ----

   idx(i_0..i_n) = sum_l coefs_l*i_l + base with nest-invariant coefs/base.
   The op count is the number of Binary/Unary int nodes the walker counts
   per evaluation; both are exact in the wrap-around ring, so
   the guard's per-level endpoint bounds check covers every reached
   iteration (with magnitude caps at run time to rule out overflow of the
   affine sum itself). *)
let rec affine c (e : expr) : ((int * Ir.iexpr) list * Ir.iexpr * int) option =
  match e.edesc with
  | Int_lit k -> Some ([], Ir.Iconst k, 0)
  | Var v ->
    (match Hashtbl.find_opt c.sym v with
     | Some (Sindex l) -> Some ([ (l, Ir.Iconst 1) ], Ir.Iconst 0, 0)
     | Some (Slocal _ | Sarr _) -> None
     | None ->
       if Hashtbl.mem c.all_locals v then None
       else (
         match Typecheck.lookup_var c.env v with
         | Some Tint when not (Hashtbl.mem c.assigned v) ->
           let id, _ = getvar c v Ir.Kint in
           Some ([], Ir.Ivar id, 0)
         | _ -> None))
  | Unary (Neg, a) ->
    (match affine c a with
     | Some (ca, ba, n) -> Some (cneg ca, ineg ba, n + 1)
     | None -> None)
  | Binary (Add, a, b) ->
    (match affine c a, affine c b with
     | Some (ca, ba, na), Some (cb, bb, nb) ->
       Some (cadd ca cb, iadd ba bb, na + nb + 1)
     | _ -> None)
  | Binary (Sub, a, b) ->
    (match affine c a, affine c b with
     | Some (ca, ba, na), Some (cb, bb, nb) ->
       Some (csub ca cb, isub ba bb, na + nb + 1)
     | _ -> None)
  | Binary (Mul, a, b) ->
    (match affine c a, affine c b with
     | Some (ca, ba, na), Some (cb, bb, nb) ->
       if ca = [] then Some (cscale ba cb, imul ba bb, na + nb + 1)
       else if cb = [] then Some (cscale bb ca, imul ba bb, na + nb + 1)
       else None
     | _ -> None)
  | _ -> None

(* bound conversion: like [affine] but with no loop-variable leaf — every
   level's lo/hi/step must be invariant across the whole nest so trip
   counts are constants per entry — and with [imin]/[imax] clamps *)
let rec invariant c (e : expr) : Ir.iexpr * int =
  match e.edesc with
  | Int_lit k -> (Ir.Iconst k, 0)
  | Var v ->
    if Hashtbl.mem c.sym v || Hashtbl.mem c.all_locals v then
      reject "non-invariant bound"
    else (
      match Typecheck.lookup_var c.env v with
      | Some Tint when not (Hashtbl.mem c.assigned v) ->
        let id, _ = getvar c v Ir.Kint in
        (Ir.Ivar id, 0)
      | _ -> reject "non-invariant bound")
  | Unary (Neg, a) ->
    let x, n = invariant c a in
    (ineg x, n + 1)
  | Binary (Add, a, b) ->
    let x, na = invariant c a in
    let y, nb = invariant c b in
    (iadd x y, na + nb + 1)
  | Binary (Sub, a, b) ->
    let x, na = invariant c a in
    let y, nb = invariant c b in
    (isub x y, na + nb + 1)
  | Binary (Mul, a, b) ->
    let x, na = invariant c a in
    let y, nb = invariant c b in
    (imul x y, na + nb + 1)
  | Call (name, [ a; b ]) when not (Hashtbl.mem c.user_funcs name) ->
    (match Intrinsic.find name with
     | Some { op = (Intrinsic.Imin | Intrinsic.Imax) as op; _ } ->
       (* the intrinsic counts one int op after its arguments, like the
          walker's [eval_intrinsic] *)
       let x, na = invariant c a in
       let y, nb = invariant c b in
       ((if op = Intrinsic.Imin then Ir.Imin (x, y) else Ir.Imax (x, y)), na + nb + 1)
     | _ -> reject "non-invariant bound")
  | _ -> reject "non-invariant bound"

(* ---- expression lowering ---- *)

let as_int c = function
  | Ri (r, _) -> r
  | Rf (r, _) ->
    let d = alloci c in
    emit c (Ir.FtoI (d, r));
    d

let as_float c = function
  | Rf (r, _) -> r
  | Ri (r, _) ->
    let d = allocf c in
    emit c (Ir.ItoF (d, r));
    d

let as_truth c = function
  | Ri (r, true) -> r
  | Ri (r, false) ->
    let d = alloci c in
    emit c (Ir.ItoB (d, r));
    d
  | Rf (r, _) ->
    let d = alloci c in
    emit c (Ir.FtoB (d, r));
    d

let is_dp = function Rf (_, Ir.Pdouble) -> true | _ -> false

let cmpop_of = function
  | Lt -> Ir.Clt
  | Le -> Ir.Cle
  | Gt -> Ir.Cgt
  | Ge -> Ir.Cge
  | Eq -> Ir.Ceq
  | Ne -> Ir.Cne
  | _ -> assert false

let rec lexpr c (e : expr) : lres =
  match e.edesc with
  | Int_lit k -> Ri (const_i c k, false)
  | Bool_lit b -> Ri (const_i c (if b then 1 else 0), true)
  | Float_lit (x, true) -> Rf (const_f c (demote32 x), Ir.Psingle)
  | Float_lit (x, false) -> Rf (const_f c x, Ir.Pdouble)
  | Var v -> lvar c v
  | Unary (Neg, a) ->
    (match lexpr c a with
     | Ri (r, false) ->
       (* walker Neg of an int: count_int_op, negate *)
       let d = alloci c in
       emit c (Ir.INeg (d, r));
       kint c;
       Ri (d, false)
     | Ri (_, true) ->
       reject "negating a boolean"  (* the walker raises "negating non-number" *)
     | Rf (r, p) ->
       (* walker Neg of a float: count_flop p Add, no demotion *)
       let d = allocf c in
       emit c (Ir.FNeg (d, r));
       kflop c p Counters.Add;
       Rf (d, p))
  | Unary (Not, a) ->
    (* walker Not: operand truth, count_int_op, logical negation *)
    let t = as_truth c (lexpr c a) in
    let d = alloci c in
    emit c (Ir.INot (d, t));
    kint c;
    Ri (d, true)
  | Binary (And, a, b) ->
    (* walker And: count_branch; if lhs truth then rhs truth else false *)
    kbranch c;
    let ta = as_truth c (lexpr c a) in
    let d = alloci c in
    let ob1 = open_block c in
    let tb = arm c (fun () -> as_truth c (lexpr c b)) in
    emit c (Ir.IMov (d, tb));
    let bt = close_block c ob1 in
    let ob2 = open_block c in
    emit c (Ir.IConst (d, 0));
    let be = close_block c ob2 in
    add_site c ta bt be;
    Ri (d, true)
  | Binary (Or, a, b) ->
    (* walker Or: count_branch; if lhs truth then true else rhs truth *)
    kbranch c;
    let ta = as_truth c (lexpr c a) in
    let d = alloci c in
    let ob1 = open_block c in
    emit c (Ir.IConst (d, 1));
    let bt = close_block c ob1 in
    let ob2 = open_block c in
    let tb = arm c (fun () -> as_truth c (lexpr c b)) in
    emit c (Ir.IMov (d, tb));
    let be = close_block c ob2 in
    add_site c ta bt be;
    Ri (d, true)
  | Binary ((Lt | Le | Gt | Ge | Eq | Ne) as op, a, b) ->
    (* walker compare: both operands evaluated, then one count_int_op;
       any float operand promotes the comparison to raw doubles *)
    let la = lexpr c a in
    let lb = lexpr c b in
    let cop = cmpop_of op in
    let d = alloci c in
    (match la, lb with
     | Ri (x, _), Ri (y, _) -> emit c (Ir.ICmp (cop, d, x, y))
     | _ ->
       let x = as_float c la in
       let y = as_float c lb in
       emit c (Ir.FCmp (cop, d, x, y)));
    kint c;
    Ri (d, true)
  | Binary (op, a, b) -> lbinary c e op a b
  | Call (name, args) -> lcall c name args
  | Index (base, idx) -> lindex c e base idx
  | Cast (ty, a) -> lcast c ty a
  | Cond (cc, a, b) ->
    (* walker Cond: count_branch, evaluate cond truth, run one arm.  The
       result lives in one register, so both arms must have the same
       representation. *)
    kbranch c;
    let t = as_truth c (lexpr c cc) in
    let ob1 = open_block c in
    let ra = arm c (fun () -> lexpr c a) in
    let ob2 = open_block c in
    let rb = arm c (fun () -> lexpr c b) in
    let res, mova, movb =
      match ra, rb with
      | Ri (x, ba), Ri (y, bb) when ba = bb ->
        let d = alloci c in
        (Ri (d, ba), Ir.IMov (d, x), Ir.IMov (d, y))
      | Rf (x, pa), Rf (y, pb) when pa = pb ->
        let d = allocf c in
        (Rf (d, pa), Ir.FMov (d, x), Ir.FMov (d, y))
      | _ -> reject "ternary arms differ in representation"
    in
    emit c movb;
    let be = close_block c ob2 in
    emit c mova;
    let bt = close_block c ob1 in
    add_site c t bt be;
    res

and lvar c v : lres =
  match Hashtbl.find_opt c.sym v with
  | Some (Slocal r) -> r
  | Some (Sindex l) -> Ri (level_index_reg c l, false)
  | Some (Sarr _) -> reject "unsupported variable type"
  | None ->
    if Hashtbl.mem c.all_locals v then reject "use before declaration";
    (match Typecheck.lookup_var c.env v with
     | Some Tint -> Ri ((snd (getvar c v Ir.Kint)).mv_reg, false)
     | Some Tbool -> Ri ((snd (getvar c v Ir.Kbool)).mv_reg, true)
     | Some Tfloat ->
       Rf ((snd (getvar c v (Ir.Kfloat Ir.Psingle))).mv_reg, Ir.Psingle)
     | Some Tdouble ->
       Rf ((snd (getvar c v (Ir.Kfloat Ir.Pdouble))).mv_reg, Ir.Pdouble)
     | Some (Tptr _) | Some Tvoid | None -> reject "unsupported variable type")

and lbinary c e op a b : lres =
  let la = lexpr c a in
  let lb = lexpr c b in
  match la, lb with
  | Ri (ra, _), Ri (rb, _) ->
    (* walker int/int [eval_binop]: one int op; Div and Mod check zero *)
    let d = alloci c in
    (match op with
     | Add -> emit c (Ir.IAdd (d, ra, rb))
     | Sub -> emit c (Ir.ISub (d, ra, rb))
     | Mul -> emit c (Ir.IMul (d, ra, rb))
     | Div -> emit c (Ir.IDivZ (d, ra, rb, e.eloc))
     | Mod -> emit c (Ir.IModZ (d, ra, rb, e.eloc))
     | _ -> reject "unsupported operator");
    kint c;
    Ri (d, false)
  | _ ->
    (* float_op_prec join; Mod stays integral, as in [eval_binop] *)
    (match op with
     | Mod ->
       let x = as_int c la in
       let y = as_int c lb in
       let d = alloci c in
       emit c (Ir.IModZ (d, x, y, e.eloc));
       kint c;
       Ri (d, false)
     | Add | Sub | Mul | Div ->
       let p = if is_dp la || is_dp lb then Ir.Pdouble else Ir.Psingle in
       let x = as_float c la in
       let y = as_float c lb in
       let d = allocf c in
       (match op, p with
        | Add, Ir.Pdouble -> emit c (Ir.FAdd (d, x, y))
        | Sub, Ir.Pdouble -> emit c (Ir.FSub (d, x, y))
        | Mul, Ir.Pdouble -> emit c (Ir.FMul (d, x, y))
        | Div, Ir.Pdouble -> emit c (Ir.FDiv (d, x, y))
        | Add, Ir.Psingle -> emit c (Ir.FAddS (d, x, y))
        | Sub, Ir.Psingle -> emit c (Ir.FSubS (d, x, y))
        | Mul, Ir.Psingle -> emit c (Ir.FMulS (d, x, y))
        | Div, Ir.Psingle -> emit c (Ir.FDivS (d, x, y))
        | _ -> assert false);
       kflop c p (cls_of_bop op);
       Rf (d, p)
     | _ -> reject "unsupported operator")

and lcall c name args : lres =
  if Hashtbl.mem c.user_funcs name then reject "user function call in an expression";
  (* intrinsics, pre-resolved, counted as [eval_intrinsic] counts them;
     other arities are not lowered *)
  let fmath (i : Intrinsic.t) ins =
    let d = allocf c in
    emit c (ins d);
    let p = if i.single then Ir.Psingle else Ir.Pdouble in
    kflop c p (if i.cls = Intrinsic.Special then Counters.Special else Counters.Add);
    Rf (d, p)
  in
  match Intrinsic.find name, args with
  | Some ({ op = Intrinsic.F1 m; _ } as i), [ a ] ->
    let x = as_float c (lexpr c a) in
    fmath i (fun d -> if i.single then Ir.FMath1S (m, d, x) else Ir.FMath1 (m, d, x))
  | Some ({ op = Intrinsic.F2 m; _ } as i), [ a; b ] ->
    let x = as_float c (lexpr c a) in
    let y = as_float c (lexpr c b) in
    fmath i (fun d -> if i.single then Ir.FMath2S (m, d, x, y) else Ir.FMath2 (m, d, x, y))
  | Some { op = Intrinsic.Abs; _ }, [ a ] ->
    let x = as_int c (lexpr c a) in
    let d = alloci c in
    emit c (Ir.IAbs (d, x));
    kint c;
    Ri (d, false)
  | Some { op = (Intrinsic.Imin | Intrinsic.Imax) as op; _ }, [ a; b ] ->
    let x = as_int c (lexpr c a) in
    let y = as_int c (lexpr c b) in
    let d = alloci c in
    emit c (if op = Intrinsic.Imin then Ir.IMin (d, x, y) else Ir.IMax (d, x, y));
    kint c;
    Ri (d, false)
  | Some { op = Intrinsic.Rand01; _ }, [] ->
    (* no counters; one PRNG draw, in program order *)
    let d = allocf c in
    emit c (Ir.Rand d);
    Rf (d, Ir.Pdouble)
  | _ -> reject "unsupported intrinsic"

and larr c (base : expr) : int * marr =
  (* array operand: must be a plain variable of scalar-pointer type bound
     outside the nest, so the guard can resolve it once per entry — or an
     inlined callee's pointer parameter, bound to such a variable *)
  match base.edesc with
  | Var v ->
    (match Hashtbl.find_opt c.sym v with
     | Some (Sarr (id, ma)) -> (id, ma)
     | Some (Sindex _ | Slocal _) -> reject "array shadowed by a body binding"
     | None ->
       if Hashtbl.mem c.all_locals v then reject "array shadowed by a body binding";
       (match Typecheck.lookup_var c.env v with
        | Some (Tptr sc) ->
          (match Ir.ety_of_ty sc with
           | Some ety -> getarr c v ety
           | None -> reject "unsupported element type")
        | _ -> reject "array operand is not a plain outer variable"))
  | _ -> reject "array operand is not a plain outer variable"

and lindex c (e : expr) base idx : lres =
  let aid, ma = larr c base in
  let ety = ma.ma_ety in
  let load_affine cur =
    match ety with
    | Ir.Efloat32 ->
      let d = allocf c in
      emit c (Ir.FLd (d, cur));
      Rf (d, Ir.Psingle)
    | Ir.Efloat64 ->
      let d = allocf c in
      emit c (Ir.FLd (d, cur));
      Rf (d, Ir.Pdouble)
    | Ir.Eint ->
      let d = alloci c in
      emit c (Ir.ILd (d, cur));
      Ri (d, false)
    | Ir.Ebool ->
      (* stores normalise bool cells to 0/1, so a raw load is the walker's
         (x <> 0) *)
      let d = alloci c in
      emit c (Ir.ILd (d, cur));
      Ri (d, true)
  in
  let r =
    match affine c idx with
    | Some (coefs, bse, nops) ->
      kadd c Counters.int_ops nops;
      load_affine (getcursor c aid coefs bse ~loc:e.eloc)
    | None ->
      let ii = as_int c (lexpr c idx) in
      (match ety with
       | Ir.Efloat32 ->
         let d = allocf c in
         emit c (Ir.FLdCk (d, aid, ii, e.eloc));
         Rf (d, Ir.Psingle)
       | Ir.Efloat64 ->
         let d = allocf c in
         emit c (Ir.FLdCk (d, aid, ii, e.eloc));
         Rf (d, Ir.Pdouble)
       | Ir.Eint ->
         let d = alloci c in
         emit c (Ir.ILdCk (d, aid, ii, e.eloc));
         Ri (d, false)
       | Ir.Ebool ->
         let d = alloci c in
         emit c (Ir.ILdCk (d, aid, ii, e.eloc));
         Ri (d, true))
  in
  kload c ety;
  r

and lcast c ty a : lres =
  let la = lexpr c a in
  (* walker Cast ([Value.coerce]): no counters *)
  match ty with
  | Tint -> Ri (as_int c la, false)
  | Tbool -> Ri (as_truth c la, true)
  | Tfloat ->
    let x = as_float c la in
    let d = allocf c in
    emit c (Ir.FDem (d, x));
    Rf (d, Ir.Psingle)
  | Tdouble -> Rf (as_float c la, Ir.Pdouble)
  | Tptr _ | Tvoid -> reject "unsupported cast"

(* ---- statement lowering ---- *)

let binop_of_assign = function
  | AddEq -> Add
  | SubEq -> Sub
  | MulEq -> Mul
  | DivEq -> Div
  | Set -> assert false

(* a fresh register holding [la] converted to scalar type [ty], as
   [Value.coerce] converts (to_int / truth / demote to Sp / raw Dp); no
   counters *)
let coerced c (ty : ty) (la : lres) : lres =
  match ty with
  | Tint ->
    let x = as_int c la in
    let r = alloci c in
    emit c (Ir.IMov (r, x));
    Ri (r, false)
  | Tbool ->
    let x = as_truth c la in
    let r = alloci c in
    emit c (Ir.IMov (r, x));
    Ri (r, true)
  | Tfloat ->
    let x = as_float c la in
    let r = allocf c in
    emit c (Ir.FDem (r, x));
    Rf (r, Ir.Psingle)
  | Tdouble ->
    let x = as_float c la in
    let r = allocf c in
    emit c (Ir.FMov (r, x));
    Rf (r, Ir.Pdouble)
  | Tptr _ | Tvoid -> reject "unsupported scalar type"

let ldecl c ~added (d : decl) =
  if Hashtbl.mem c.sym d.dname then reject "shadowing declaration";
  (match d.darray with
   | Some size_e ->
     (* walker Decl of an array: the size's int ops, then [Memory.alloc]
        of a fresh zeroed array, bound to the name *)
     let ety =
       match Ir.ety_of_ty d.dty with
       | Some ety -> ety
       | None -> reject "unsupported element type"
     in
     let size, nops =
       try invariant c size_e with Reject _ -> reject "non-invariant array size"
     in
     kadd c Counters.int_ops nops;
     let ma =
       { ma_name = d.dname; ma_global = false; ma_ety = ety; ma_stored = false;
         ma_size = Some size }
     in
     let id = newarr c ma in
     emit c (Ir.Alloc id);
     Hashtbl.add c.sym d.dname (Sarr (id, ma))
   | None ->
     (match d.dty with
      | Tint | Tbool | Tfloat | Tdouble -> ()
      | _ -> reject "unsupported declaration type");
     let e0 =
       match d.dinit with Some e -> e | None -> reject "uninitialised declaration"
     in
     (* the initialiser is lowered before the name is bound, as the walker
        evaluates it before [bind] *)
     let res = coerced c d.dty (lexpr c e0) in
     Hashtbl.add c.sym d.dname (Slocal res));
  added := d.dname :: !added

let lvar_assign c (s : stmt) v op (lr : lres) =
  let target =
    match Hashtbl.find_opt c.sym v with
    | Some (Sindex _) -> reject "assignment to a loop index"
    | Some (Sarr _) -> reject "unsupported variable type"
    | Some (Slocal (Ri (r, b))) -> `Scalar (r, if b then Ir.Kbool else Ir.Kint)
    | Some (Slocal (Rf (r, p))) -> `Scalar (r, Ir.Kfloat p)
    | None ->
      if Hashtbl.mem c.all_locals v then reject "use before declaration";
      (match Typecheck.lookup_var c.env v with
       | Some Tint -> `Var (getvar c v Ir.Kint)
       | Some Tbool -> `Var (getvar c v Ir.Kbool)
       | Some Tfloat -> `Var (getvar c v (Ir.Kfloat Ir.Psingle))
       | Some Tdouble -> `Var (getvar c v (Ir.Kfloat Ir.Pdouble))
       | Some (Tptr _) | Some Tvoid | None -> reject "unsupported variable type")
  in
  let r, kind =
    match target with
    | `Scalar (r, k) -> (r, k)
    | `Var (_, mv) ->
      mv.mv_written <- true;
      (mv.mv_reg, mv.mv_kind)
  in
  match op with
  | Set ->
    (* walker Set through [cast_like]: Vint (to_int) / Vbool (truth) /
       Vfloat (Sp, demote) / Vfloat (Dp, to_float); no counters *)
    (match kind with
     | Ir.Kint ->
       let x = as_int c lr in
       emit c (Ir.IMov (r, x))
     | Ir.Kbool ->
       let x = as_truth c lr in
       emit c (Ir.IMov (r, x))
     | Ir.Kfloat Ir.Psingle ->
       let x = as_float c lr in
       emit c (Ir.FDem (r, x))
     | Ir.Kfloat Ir.Pdouble ->
       let x = as_float c lr in
       emit c (Ir.FMov (r, x)))
  | AddEq | SubEq | MulEq | DivEq ->
    let bop = binop_of_assign op in
    (match kind, lr with
     | Ir.Kint, Ri (y, _) ->
       (* rhs evaluated first (already lowered), old value read, one int
          op; Div checks zero at s.sloc before counting *)
       (match bop with
        | Add -> emit c (Ir.IAdd (r, r, y))
        | Sub -> emit c (Ir.ISub (r, r, y))
        | Mul -> emit c (Ir.IMul (r, r, y))
        | _ -> emit c (Ir.IDivZ (r, r, y, s.sloc)));
       kint c
     | Ir.Kint, Rf (y, p) ->
       (* float compound on an int variable: flop at rhs precision, result
          truncated back to int *)
       let t = allocf c in
       emit c (Ir.ItoF (t, r));
       let u = allocf c in
       (match bop, p with
        | Add, Ir.Pdouble -> emit c (Ir.FAdd (u, t, y))
        | Sub, Ir.Pdouble -> emit c (Ir.FSub (u, t, y))
        | Mul, Ir.Pdouble -> emit c (Ir.FMul (u, t, y))
        | Div, Ir.Pdouble -> emit c (Ir.FDiv (u, t, y))
        | Add, Ir.Psingle -> emit c (Ir.FAddS (u, t, y))
        | Sub, Ir.Psingle -> emit c (Ir.FSubS (u, t, y))
        | Mul, Ir.Psingle -> emit c (Ir.FMulS (u, t, y))
        | Div, Ir.Psingle -> emit c (Ir.FDivS (u, t, y))
        | _ -> assert false);
       kflop c p (cls_of_bop bop);
       emit c (Ir.FtoI (r, u))
     | Ir.Kbool, _ -> reject "compound assignment on bool"  (* generic arm *)
     | Ir.Kfloat tp, _ ->
       let p =
         match tp, lr with
         | Ir.Pdouble, _ -> Ir.Pdouble
         | _, Rf (_, Ir.Pdouble) -> Ir.Pdouble
         | _ -> Ir.Psingle
       in
       let y = as_float c lr in
       let demoted_store = tp = Ir.Psingle in
       (match bop, p with
        | Add, Ir.Pdouble when not demoted_store -> emit c (Ir.FAdd (r, r, y))
        | Sub, Ir.Pdouble when not demoted_store -> emit c (Ir.FSub (r, r, y))
        | Mul, Ir.Pdouble when not demoted_store -> emit c (Ir.FMul (r, r, y))
        | Div, Ir.Pdouble when not demoted_store -> emit c (Ir.FDiv (r, r, y))
        | Add, Ir.Psingle -> emit c (Ir.FAddS (r, r, y))
        | Sub, Ir.Psingle -> emit c (Ir.FSubS (r, r, y))
        | Mul, Ir.Psingle -> emit c (Ir.FMulS (r, r, y))
        | Div, Ir.Psingle -> emit c (Ir.FDivS (r, r, y))
        | bop', Ir.Pdouble ->
          (* single-precision target with a double-precision rhs: the op
             runs at Dp and only the stored value demotes *)
          let t = allocf c in
          (match bop' with
           | Add -> emit c (Ir.FAdd (t, r, y))
           | Sub -> emit c (Ir.FSub (t, r, y))
           | Mul -> emit c (Ir.FMul (t, r, y))
           | _ -> emit c (Ir.FDiv (t, r, y)));
          emit c (Ir.FDem (r, t))
        | _ -> assert false);
       kflop c p (cls_of_bop bop))

let lindex_assign c (s : stmt) (lhs : expr) base idx op (lr : lres) =
  let aid, ma = larr c base in
  let ety = ma.ma_ety in
  ma.ma_stored <- true;
  (* converting the rhs to the element type has no effect the index could
     observe, so emit it first *)
  match op with
  | Set ->
    let src =
      match ety with
      | Ir.Efloat32 | Ir.Efloat64 -> as_float c lr
      | Ir.Eint -> as_int c lr
      | Ir.Ebool -> as_truth c lr
    in
    (match affine c idx with
     | Some (coefs, bse, nops) ->
       kadd c Counters.int_ops nops;
       let cur = getcursor c aid coefs bse ~loc:lhs.eloc in
       (match ety with
        | Ir.Efloat32 -> emit c (Ir.FStDem (cur, src))
        | Ir.Efloat64 -> emit c (Ir.FSt (cur, src))
        | Ir.Eint -> emit c (Ir.ISt (cur, src))
        | Ir.Ebool -> emit c (Ir.IStB (cur, src)))
     | None ->
       let ii = as_int c (lexpr c idx) in
       (match ety with
        | Ir.Efloat32 | Ir.Efloat64 -> emit c (Ir.FStCk (aid, ii, src, lhs.eloc))
        | Ir.Eint | Ir.Ebool -> emit c (Ir.IStCk (aid, ii, src, lhs.eloc))));
    kstore c ety
  | AddEq | SubEq | MulEq | DivEq ->
    let bop = binop_of_assign op in
    (match ety with
     | Ir.Efloat32 | Ir.Efloat64 ->
       let p =
         match ety, lr with
         | Ir.Efloat64, _ -> Ir.Pdouble
         | _, Rf (_, Ir.Pdouble) -> Ir.Pdouble
         | _ -> Ir.Psingle
       in
       let y = as_float c lr in
       let ld, st =
         match affine c idx with
         | Some (coefs, bse, nops) ->
           kadd c Counters.int_ops nops;
           let cur = getcursor c aid coefs bse ~loc:lhs.eloc in
           ( (fun d -> emit c (Ir.FLd (d, cur))),
             fun srcr ->
               emit c
                 (if ety = Ir.Efloat32 then Ir.FStDem (cur, srcr)
                  else Ir.FSt (cur, srcr)) )
         | None ->
           let ii = as_int c (lexpr c idx) in
           ( (fun d -> emit c (Ir.FLdCk (d, aid, ii, lhs.eloc))),
             fun srcr -> emit c (Ir.FStCk (aid, ii, srcr, lhs.eloc)) )
       in
       let x = allocf c in
       ld x;
       kload c ety;
       let t = allocf c in
       (match bop, p with
        | Add, Ir.Pdouble -> emit c (Ir.FAdd (t, x, y))
        | Sub, Ir.Pdouble -> emit c (Ir.FSub (t, x, y))
        | Mul, Ir.Pdouble -> emit c (Ir.FMul (t, x, y))
        | Div, Ir.Pdouble -> emit c (Ir.FDiv (t, x, y))
        | Add, Ir.Psingle -> emit c (Ir.FAddS (t, x, y))
        | Sub, Ir.Psingle -> emit c (Ir.FSubS (t, x, y))
        | Mul, Ir.Psingle -> emit c (Ir.FMulS (t, x, y))
        | Div, Ir.Psingle -> emit c (Ir.FDivS (t, x, y))
        | _ -> assert false);
       kflop c p (cls_of_bop bop);
       st t;
       kstore c ety
     | Ir.Eint ->
       (* a float rhs makes the walker's op a flop truncated on store:
           not lowered *)
       let y =
         match lr with
         | Ri (y, _) -> y
         | Rf _ -> reject "float compound on int array"
       in
       let ld, st =
         match affine c idx with
         | Some (coefs, bse, nops) ->
           kadd c Counters.int_ops nops;
           let cur = getcursor c aid coefs bse ~loc:lhs.eloc in
           ( (fun d -> emit c (Ir.ILd (d, cur))),
             fun srcr -> emit c (Ir.ISt (cur, srcr)) )
         | None ->
           let ii = as_int c (lexpr c idx) in
           ( (fun d -> emit c (Ir.ILdCk (d, aid, ii, lhs.eloc))),
             fun srcr -> emit c (Ir.IStCk (aid, ii, srcr, lhs.eloc)) )
       in
       let x = alloci c in
       ld x;
       kload c ety;
       let t = alloci c in
       (match bop with
        | Add -> emit c (Ir.IAdd (t, x, y))
        | Sub -> emit c (Ir.ISub (t, x, y))
        | Mul -> emit c (Ir.IMul (t, x, y))
        | _ -> emit c (Ir.IDivZ (t, x, y, s.sloc)));
       kint c;
       st t;
       kstore c ety
     | Ir.Ebool -> reject "compound assignment on bool array")

(* names assigned / declared (including inner loop indexes) anywhere in the
   nest body, used for invariance and scoping decisions.  Assignments in the
   body of a user function [body] calls as a statement count as the body's
   own: inlined, the callee makes them during the nest. *)
let collect_info ~(funcs : (string, func) Hashtbl.t) body =
  let assigned = Hashtbl.create 8 in
  let all_locals = Hashtbl.create 8 in
  let rec callee s =
    (match s.sdesc with
     | Assign ({ edesc = Var v; _ }, _, _) -> Hashtbl.replace assigned v ()
     | _ -> ());
    List.iter (List.iter callee) (stmt_sub_blocks s)
  in
  let rec stmt s =
    (match s.sdesc with
     | Assign ({ edesc = Var v; _ }, _, _) -> Hashtbl.replace assigned v ()
     | Decl d -> Hashtbl.replace all_locals d.dname ()
     | For (h, _) -> Hashtbl.replace all_locals h.index ()
     | Expr_stmt { edesc = Call (f, _); _ } ->
       Option.iter (fun fn -> List.iter callee fn.fbody) (Hashtbl.find_opt funcs f)
     | Assign _ | Expr_stmt _ | If _ | While _ | Return _ | Break | Continue
     | Scope _ ->
       ());
    List.iter (List.iter stmt) (stmt_sub_blocks s)
  in
  List.iter stmt body;
  (assigned, all_locals)

(* Every statement charges one step into the enclosing block (the walker
   ticks one step per statement; a control statement's arms and bodies
   carry their own counts). *)
let rec lstmt c ~added (s : stmt) =
  if Hashtbl.mem c.region_set s.sid then reject "observation region";
  kadd c Counters.steps 1;
  match s.sdesc with
  | Decl d -> ldecl c ~added d
  | Assign (lhs, op, rhs) ->
    let lr = lexpr c rhs in
    (match lhs.edesc with
     | Var v -> lvar_assign c s v op lr
     | Index (b, idx) -> lindex_assign c s lhs b idx op lr
     | _ -> reject "unsupported assignment target")
  | Expr_stmt { edesc = Call (name, args); _ } when Hashtbl.mem c.user_funcs name ->
    linline c (Hashtbl.find c.user_funcs name) args
  | Expr_stmt e -> ignore (lexpr c e)
  | If (cond, b1, b2) ->
    (* walker If: count_branch, evaluate cond truth, run one arm *)
    kbranch c;
    let t = as_truth c (lexpr c cond) in
    let lower b = nested c (fun () -> arm c (fun () -> with_block c (fun () -> lblock c b))) in
    let bt = lower b1 in
    let be = lower b2 in
    add_site c t bt be
  | For (h, body) -> llevel c s h body
  | Scope b ->
    (* unconditional: the inner statements' cost folds into this block *)
    lblock c b
  | While _ -> reject "while loop"
  | Return _ ->
    reject (if c.in_callee then "return before the callee's end" else "return inside loop")
  | Break -> reject "break"
  | Continue -> reject "continue"

and lblock c (stmts : stmt list) =
  let added = ref [] in
  List.iter (fun s -> lstmt c ~added s) stmts;
  List.iter (fun n -> Hashtbl.remove c.sym n) !added

(* A statement call of a leaf user function, inlined (walker
   [call_function]): the arguments evaluate left to right in the caller's
   scope and the call counts; by-value parameters get fresh registers
   holding the coerced arguments, pointer parameters bind to the caller's
   array operands; the body runs in its own scope, where free names are
   globals.  A final [return;] is one more statement.  Alias tracing
   observes the call through the site's [Called] op. *)
and linline c (fn : func) args =
  if c.in_callee then reject "call inside an inlined callee";
  if Hashtbl.mem c.region_funcs fn.fname then reject "callee is an observation region";
  if fn.fret <> Tvoid then reject "non-void callee";
  if List.length args <> List.length fn.fparams then reject "call arity";
  let body, ret_steps =
    match List.rev fn.fbody with
    | ({ sdesc = Return None; _ } as r) :: rest ->
      if Hashtbl.mem c.region_set r.sid then reject "observation region";
      (List.rev rest, 1)
    | _ -> (fn.fbody, 0)
  in
  let binds, ptrs =
    List.fold_left2
      (fun (binds, ptrs) (prm : param) (arg : expr) ->
        match prm.prm_ty with
        | Tptr pt ->
          let aid, ma = larr c arg in
          if Ir.ty_of_ety ma.ma_ety <> pt then reject "pointer argument type";
          ((prm.prm_name, Sarr (aid, ma)) :: binds, aid :: ptrs)
        | ty -> ((prm.prm_name, Slocal (coerced c ty (lexpr c arg))) :: binds, ptrs))
      ([], []) fn.fparams args
  in
  kadd c Counters.calls 1;
  let k = c.ncalls in
  c.ncalls <- k + 1;
  c.calls <- { Ir.k_func = fn.fname; k_ptrs = Array.of_list (List.rev ptrs) } :: c.calls;
  emit c (Ir.Called k);
  if not (List.mem fn.fname c.callees) then c.callees <- c.callees @ [ fn.fname ];
  if c.depth > 0 then c.cond_call <- true;
  let env = c.env and all_locals = c.all_locals and sym = c.sym in
  let callee_sym = Hashtbl.create 8 in
  (* parameters bind in order, a repeated name to the last *)
  List.iter (fun (n, b) -> Hashtbl.replace callee_sym n b) (List.rev binds);
  c.env <- c.genv;
  c.all_locals <- snd (collect_info ~funcs:(Hashtbl.create 0) body);
  c.sym <- callee_sym;
  c.in_callee <- true;
  lblock c body;
  kadd c Counters.steps ret_steps;
  c.env <- env;
  c.all_locals <- all_locals;
  c.sym <- sym;
  c.in_callee <- false

and llevel c (s : stmt) (h : for_header) body =
  let lid = c.nlevels in
  c.nlevels <- lid + 1;
  (* all three bounds are re-evaluated by the walker (lo once per entry,
     hi per test, step per bump); they must be nest-invariant so the
     guard can derive one trip count per level per nest entry *)
  let lo, lo_ops = invariant c h.lo in
  let hi, hi_ops = invariant c h.hi in
  let step, step_ops = invariant c h.step in
  Hashtbl.add c.sym h.index (Sindex lid);
  let b = nested c (fun () -> with_block c (fun () -> lblock c body)) in
  Hashtbl.remove c.sym h.index;
  flush_ops c;
  Hashtbl.replace c.lvls lid
    {
      Ir.l_sid = s.sid;
      l_cle = h.cmp = CLe;
      l_lo = lo;
      l_lo_ops = lo_ops;
      l_hi = hi;
      l_hi_ops = hi_ops;
      l_step = step;
      l_step_ops = step_ops;
      l_index_reg = Hashtbl.find_opt c.lidx lid;
      l_body = b;
    };
  c.items <- Ir.Bloop lid :: c.items

(* ---- optimisation: hoisting, promotion, superinstruction fusion ---- *)

(* destination of a single-precision op: every value it writes is already
   demoted, so demoting it again is the identity *)
let single_dest (op : Ir.fop) =
  match op with
  | FDem (x, _) | FAddS (x, _, _) | FSubS (x, _, _) | FMulS (x, _, _)
  | FDivS (x, _, _) | FMath1S (_, x, _) | FMath2S (_, x, _, _)
  | FLdSubS (x, _, _) | FLdSub2S (x, _, _) | FLdMulS (x, _, _)
  | FLdAddS (x, _, _) | FMulAddS (x, _, _, _) | FAddMulS (x, _, _, _)
  | FSubMulS (x, _, _, _) ->
    Some x
  | _ -> None

(* float-register def/use counting over all sections; used to identify
   single-definition single-use temporaries that fusion may absorb *)
let fcounts nf ops_list =
  let defs = Array.make (max nf 1) 0 in
  let uses = Array.make (max nf 1) 0 in
  let d r = defs.(r) <- defs.(r) + 1 in
  let u r = uses.(r) <- uses.(r) + 1 in
  List.iter
    (List.iter (fun (op : Ir.fop) ->
         match op with
         | FConst (x, _) | Rand x | FLdSub2 (x, _, _) | FLdSub2S (x, _, _) -> d x
         | FMov (x, a) | FDem (x, a) | FNeg (x, a)
         | FMath1 (_, x, a) | FMath1S (_, x, a)
         | FRecip (x, a) | FRsqrt (x, a) ->
           d x;
           u a
         | ItoF (x, _) | FLd (x, _) | FLdCk (x, _, _, _) -> d x
         | FtoI (_, a) | FtoB (_, a) | FSt (_, a) | FStDem (_, a)
         | FStCk (_, _, a, _) | FAccSt (_, a) ->
           u a
         | FAdd (x, a, b) | FSub (x, a, b) | FMul (x, a, b) | FDiv (x, a, b)
         | FAddS (x, a, b) | FSubS (x, a, b) | FMulS (x, a, b) | FDivS (x, a, b)
         | FMath2 (_, x, a, b) | FMath2S (_, x, a, b) ->
           d x;
           u a;
           u b
         | FCmp (_, _, a, b) ->
           (* dest is an int register; both operands are float uses *)
           u a;
           u b
         | FLdSub (x, _, b) | FLdMul (x, _, b) | FLdAdd (x, _, b)
         | FLdSubS (x, _, b) | FLdMulS (x, _, b) | FLdAddS (x, _, b) ->
           d x;
           u b
         | FMulAdd (x, a, b, e) | FAddMul (x, e, a, b) | FSubMul (x, e, a, b)
         | FMulAddS (x, a, b, e) | FAddMulS (x, e, a, b) | FSubMulS (x, e, a, b) ->
           d x;
           u a;
           u b;
           u e
         | FMulAccSt (_, a, b) ->
           u a;
           u b
         | IConst _ | IMov _ | ItoB _ | IAdd _ | ISub _ | IMul _ | INeg _
         | IDivZ _ | IModZ _ | IAbs _ | IMin _ | IMax _ | ICmp _ | INot _
         | ILd _ | ISt _ | IStB _ | ILdCk _ | IStCk _ | Alloc _ | Called _ ->
           ()))
    ops_list;
  (defs, uses)

(* substitute register [d] with [r] in the float *use* positions of [op];
   None when [op] has no handled float-use of [d] *)
let subst_use (op : Ir.fop) d r : Ir.fop option =
  let hit = ref false in
  let sh x =
    if x = d then (
      hit := true;
      r)
    else x
  in
  let op' : Ir.fop =
    match op with
    | FMov (x, a) -> FMov (x, sh a)
    | FDem (x, a) -> FDem (x, sh a)
    | FNeg (x, a) -> FNeg (x, sh a)
    | FtoI (x, a) -> FtoI (x, sh a)
    | FtoB (x, a) -> FtoB (x, sh a)
    | FMath1 (m, x, a) -> FMath1 (m, x, sh a)
    | FMath1S (m, x, a) -> FMath1S (m, x, sh a)
    | FMath2 (m, x, a, b) -> FMath2 (m, x, sh a, sh b)
    | FMath2S (m, x, a, b) -> FMath2S (m, x, sh a, sh b)
    | FAdd (x, a, b) -> FAdd (x, sh a, sh b)
    | FSub (x, a, b) -> FSub (x, sh a, sh b)
    | FMul (x, a, b) -> FMul (x, sh a, sh b)
    | FDiv (x, a, b) -> FDiv (x, sh a, sh b)
    | FAddS (x, a, b) -> FAddS (x, sh a, sh b)
    | FSubS (x, a, b) -> FSubS (x, sh a, sh b)
    | FMulS (x, a, b) -> FMulS (x, sh a, sh b)
    | FDivS (x, a, b) -> FDivS (x, sh a, sh b)
    | FCmp (m, x, a, b) -> FCmp (m, x, sh a, sh b)
    | FSt (cu, a) -> FSt (cu, sh a)
    | FStDem (cu, a) -> FStDem (cu, sh a)
    | FStCk (ar, i, a, l) -> FStCk (ar, i, sh a, l)
    | FRecip (x, a) -> FRecip (x, sh a)
    | FRsqrt (x, a) -> FRsqrt (x, sh a)
    | FLdSub (x, cu, b) -> FLdSub (x, cu, sh b)
    | FLdMul (x, cu, b) -> FLdMul (x, cu, sh b)
    | FLdAdd (x, cu, b) -> FLdAdd (x, cu, sh b)
    | FMulAdd (x, a, b, e) -> FMulAdd (x, sh a, sh b, sh e)
    | FAddMul (x, e, a, b) -> FAddMul (x, sh e, sh a, sh b)
    | FSubMul (x, e, a, b) -> FSubMul (x, sh e, sh a, sh b)
    | FLdSubS (x, cu, b) -> FLdSubS (x, cu, sh b)
    | FLdMulS (x, cu, b) -> FLdMulS (x, cu, sh b)
    | FLdAddS (x, cu, b) -> FLdAddS (x, cu, sh b)
    | FMulAddS (x, a, b, e) -> FMulAddS (x, sh a, sh b, sh e)
    | FAddMulS (x, e, a, b) -> FAddMulS (x, sh e, sh a, sh b)
    | FSubMulS (x, e, a, b) -> FSubMulS (x, sh e, sh a, sh b)
    | FAccSt (cu, a) -> FAccSt (cu, sh a)
    | FMulAccSt (cu, a, b) -> FMulAccSt (cu, sh a, sh b)
    | _ -> op
  in
  if !hit then Some op' else None

(* retarget the float destination of [op] from [d] to [r] *)
let retarget (op : Ir.fop) d r : Ir.fop option =
  match op with
  | FConst (x, v) when x = d -> Some (FConst (r, v))
  | FMov (x, a) when x = d -> Some (FMov (r, a))
  | FDem (x, a) when x = d -> Some (FDem (r, a))
  | FNeg (x, a) when x = d -> Some (FNeg (r, a))
  | ItoF (x, a) when x = d -> Some (ItoF (r, a))
  | FMath1 (m, x, a) when x = d -> Some (FMath1 (m, r, a))
  | FMath1S (m, x, a) when x = d -> Some (FMath1S (m, r, a))
  | FMath2 (m, x, a, b) when x = d -> Some (FMath2 (m, r, a, b))
  | FMath2S (m, x, a, b) when x = d -> Some (FMath2S (m, r, a, b))
  | FAdd (x, a, b) when x = d -> Some (FAdd (r, a, b))
  | FSub (x, a, b) when x = d -> Some (FSub (r, a, b))
  | FMul (x, a, b) when x = d -> Some (FMul (r, a, b))
  | FDiv (x, a, b) when x = d -> Some (FDiv (r, a, b))
  | FAddS (x, a, b) when x = d -> Some (FAddS (r, a, b))
  | FSubS (x, a, b) when x = d -> Some (FSubS (r, a, b))
  | FMulS (x, a, b) when x = d -> Some (FMulS (r, a, b))
  | FDivS (x, a, b) when x = d -> Some (FDivS (r, a, b))
  | Rand x when x = d -> Some (Rand r)
  | FLd (x, cu) when x = d -> Some (FLd (r, cu))
  | FLdCk (x, ar, i, l) when x = d -> Some (FLdCk (r, ar, i, l))
  | FLdSub (x, a, b) when x = d -> Some (FLdSub (r, a, b))
  | FLdSub2 (x, a, b) when x = d -> Some (FLdSub2 (r, a, b))
  | FLdMul (x, a, b) when x = d -> Some (FLdMul (r, a, b))
  | FLdAdd (x, a, b) when x = d -> Some (FLdAdd (r, a, b))
  | FMulAdd (x, a, b, e) when x = d -> Some (FMulAdd (r, a, b, e))
  | FAddMul (x, e, a, b) when x = d -> Some (FAddMul (r, e, a, b))
  | FSubMul (x, e, a, b) when x = d -> Some (FSubMul (r, e, a, b))
  | FLdSubS (x, a, b) when x = d -> Some (FLdSubS (r, a, b))
  | FLdSub2S (x, a, b) when x = d -> Some (FLdSub2S (r, a, b))
  | FLdMulS (x, a, b) when x = d -> Some (FLdMulS (r, a, b))
  | FLdAddS (x, a, b) when x = d -> Some (FLdAddS (r, a, b))
  | FMulAddS (x, a, b, e) when x = d -> Some (FMulAddS (r, a, b, e))
  | FAddMulS (x, e, a, b) when x = d -> Some (FAddMulS (r, e, a, b))
  | FSubMulS (x, e, a, b) when x = d -> Some (FSubMulS (r, e, a, b))
  | FRecip (x, a) when x = d -> Some (FRecip (r, a))
  | FRsqrt (x, a) when x = d -> Some (FRsqrt (r, a))
  | _ -> None

(* [op1] followed by [FDem (r, t)] of its result [t] as one op writing [r] *)
let fold_dem (op1 : Ir.fop) t r : Ir.fop option =
  if single_dest op1 = Some t then retarget op1 t r
  else
    match op1 with
    | FAdd (x, a, b) when x = t -> Some (FAddS (r, a, b))
    | FSub (x, a, b) when x = t -> Some (FSubS (r, a, b))
    | FMul (x, a, b) when x = t -> Some (FMulS (r, a, b))
    | FDiv (x, a, b) when x = t -> Some (FDivS (r, a, b))
    | FMath1 (m, x, a) when x = t -> Some (FMath1S (m, r, a))
    | FMath2 (m, x, a, b) when x = t -> Some (FMath2S (m, r, a, b))
    | _ -> None

(* Fusion never crosses a PRNG draw, a checked access, or a zero-checked
   division (only adjacent ops merge, and none of those opcodes appear in
   any pattern), so memory/effect/raise order is preserved exactly.  Fused
   arithmetic keeps operand order — a*b+c stays (a*b)+c with the same
   rounding — so results are bit-identical to the unfused sequence.  The
   single-precision forms demote after every step the unfused ops demote
   after.  An [FDem] of the single-use result of the op just before it is
   dropped when that op is single-precision (demotion is idempotent, so the
   op writes the [FDem]'s destination instead) and folded into the op's
   [...S] form when it is a double op (that op followed by the demotion).
   [scan_fuse] applies at most one rewrite per call; the caller recomputes
   global def/use counts between rewrite sweeps. *)
let scan_fuse ~nf ~temp ~one_regs (ops : Ir.fop list) : Ir.fop list =
  let rec scan acc (ops : Ir.fop list) =
    match ops with
    | op1 :: Ir.FDem (r, t) :: tl when temp t && fold_dem op1 t r <> None ->
      List.rev_append acc (Option.get (fold_dem op1 t r) :: tl)
    | Ir.FLd (t1, c1) :: Ir.FLd (t2, c2) :: Ir.FSub (x, a, b) :: tl
      when a = t1 && b = t2 && t1 <> t2 && temp t1 && temp t2 ->
      List.rev_append acc (Ir.FLdSub2 (x, c1, c2) :: tl)
    | Ir.FLd (t1, c1) :: Ir.FLd (t2, c2) :: Ir.FSubS (x, a, b) :: tl
      when a = t1 && b = t2 && t1 <> t2 && temp t1 && temp t2 ->
      List.rev_append acc (Ir.FLdSub2S (x, c1, c2) :: tl)
    | Ir.FLd (t, cu) :: Ir.FAdd (x, a, b) :: Ir.FSt (cu2, r) :: tl
      when a = t && cu2 = cu && temp t && temp x && x = r && b <> t ->
      List.rev_append acc (Ir.FAccSt (cu, b) :: tl)
    | Ir.FLd (t, cu) :: Ir.FSub (x, a, b) :: tl when a = t && temp t && b <> t
      ->
      List.rev_append acc (Ir.FLdSub (x, cu, b) :: tl)
    | Ir.FLd (t, cu) :: Ir.FAdd (x, a, b) :: tl when a = t && temp t && b <> t
      ->
      List.rev_append acc (Ir.FLdAdd (x, cu, b) :: tl)
    | Ir.FLd (t, cu) :: Ir.FMul (x, a, b) :: tl when a = t && temp t && b <> t
      ->
      List.rev_append acc (Ir.FLdMul (x, cu, b) :: tl)
    | Ir.FLd (t, cu) :: Ir.FSubS (x, a, b) :: tl when a = t && temp t && b <> t
      ->
      List.rev_append acc (Ir.FLdSubS (x, cu, b) :: tl)
    | Ir.FLd (t, cu) :: Ir.FAddS (x, a, b) :: tl when a = t && temp t && b <> t
      ->
      List.rev_append acc (Ir.FLdAddS (x, cu, b) :: tl)
    | Ir.FLd (t, cu) :: Ir.FMulS (x, a, b) :: tl when a = t && temp t && b <> t
      ->
      List.rev_append acc (Ir.FLdMulS (x, cu, b) :: tl)
    | Ir.FMul (t, a, b) :: Ir.FAdd (x, p, q) :: tl
      when p = t && temp t && q <> t ->
      List.rev_append acc (Ir.FMulAdd (x, a, b, q) :: tl)
    | Ir.FMul (t, a, b) :: Ir.FAdd (x, p, q) :: tl
      when q = t && temp t && p <> t ->
      List.rev_append acc (Ir.FAddMul (x, p, a, b) :: tl)
    | Ir.FMul (t, a, b) :: Ir.FSub (x, p, q) :: tl
      when q = t && temp t && p <> t ->
      List.rev_append acc (Ir.FSubMul (x, p, a, b) :: tl)
    | Ir.FMulS (t, a, b) :: Ir.FAddS (x, p, q) :: tl
      when p = t && temp t && q <> t ->
      List.rev_append acc (Ir.FMulAddS (x, a, b, q) :: tl)
    | Ir.FMulS (t, a, b) :: Ir.FAddS (x, p, q) :: tl
      when q = t && temp t && p <> t ->
      List.rev_append acc (Ir.FAddMulS (x, p, a, b) :: tl)
    | Ir.FMulS (t, a, b) :: Ir.FSubS (x, p, q) :: tl
      when q = t && temp t && p <> t ->
      List.rev_append acc (Ir.FSubMulS (x, p, a, b) :: tl)
    | Ir.FMul (t, a, b) :: Ir.FAccSt (cu, q) :: tl when q = t && temp t ->
      List.rev_append acc (Ir.FMulAccSt (cu, a, b) :: tl)
    | Ir.FDiv (x, o, a) :: tl when o < nf && one_regs.(o) && a <> o ->
      List.rev_append acc (Ir.FRecip (x, a) :: tl)
    | Ir.FMath1 (Intrinsic.Sqrt, t, a) :: Ir.FRecip (x, q) :: tl
      when q = t && temp t ->
      List.rev_append acc (Ir.FRsqrt (x, a) :: tl)
    | Ir.FMov (d, r) :: (op2 :: tl as rest) when temp d -> (
      match subst_use op2 d r with
      | Some op2' -> List.rev_append acc (op2' :: tl)
      | None -> scan (Ir.FMov (d, r) :: acc) rest)
    | op1 :: Ir.FMov (r, d) :: tl when temp d -> (
      match retarget op1 d r with
      | Some op1' -> List.rev_append acc (op1' :: tl)
      | None -> scan (Ir.FMov (r, d) :: op1 :: acc) tl)
    | op :: tl -> scan (op :: acc) tl
    | [] -> List.rev acc
  in
  scan [] ops

(* ---- whole-nest lowering ---- *)

let plan_loop ~env ~genv ~user_funcs ~region_funcs ~region_set ~motion (s : stmt)
    (h : for_header) (body : block) : Ir.fast_loop =
  let assigned, all_locals = collect_info ~funcs:user_funcs body in
  let c =
    {
      env;
      assigned;
      all_locals;
      sym = Hashtbl.create 8;
      in_callee = false;
      genv;
      user_funcs;
      region_funcs;
      region_set;
      nf = 0;
      ni = 0;
      pro = [];
      cur = [];
      items = [];
      cnt = Counters.create ();
      nlevels = 1;
      lvls = Hashtbl.create 4;
      lidx = Hashtbl.create 4;
      sites = [];
      nsites = 0;
      vtbl = Hashtbl.create 8;
      vars = [];
      nvars = 0;
      atbl = Hashtbl.create 8;
      arrs = [];
      narrs = 0;
      cursors = [];
      ncursors = 0;
      fconsts = Hashtbl.create 8;
      iconsts = Hashtbl.create 8;
      calls = [];
      ncalls = 0;
      callees = [];
      depth = 0;
      cond_call = false;
      arms = 0;
    }
  in
  (* root level is id 0; its lo has already been evaluated into the index
     cell by the walker, so only hi/step are lowered *)
  Hashtbl.add c.sym h.index (Sindex 0);
  let hi, hi_ops = invariant c h.hi in
  let step, step_ops = invariant c h.step in
  let root_body = with_block c (fun () -> lblock c body) in
  Hashtbl.remove c.sym h.index;
  (* alias tracing notes each callee's calls once per entry, at commit, so
     the alias table gains callees in the order their first calls appear
     in the nest: with two distinct callees that order must be the same on
     every entry, which it is when every call runs on every iteration *)
  if List.length c.callees > 1 && c.cond_call then reject "callee order";
  (* a global a callee binds and a same-named variable of the nest's own
     scope may be one cell, held in two registers *)
  List.iter
    (fun mv ->
      if mv.mv_global then
        match Hashtbl.find_opt c.vtbl (false, mv.mv_name) with
        | Some (_, mv') when mv.mv_written || mv'.mv_written ->
          reject "global written under two names"
        | _ -> ())
    c.vars;
  Hashtbl.replace c.lvls 0
    {
      Ir.l_sid = s.sid;
      l_cle = h.cmp = CLe;
      l_lo = Ir.Iconst 0;
      l_lo_ops = 0;
      l_hi = hi;
      l_hi_ops = hi_ops;
      l_step = step;
      l_step_ops = step_ops;
      l_index_reg = Hashtbl.find_opt c.lidx 0;
      l_body = root_body;
    };
  let levels =
    Array.init c.nlevels (fun i ->
        match Hashtbl.find_opt c.lvls i with
        | Some l -> l
        | None -> assert false)
  in
  let sites = Array.of_list (List.rev c.sites) in
  let arrs = Array.of_list (List.rev c.arrs) in
  let cursors = Array.of_list (List.rev c.cursors) in
  let zero_coef cu =
    let _, coefs, _, _ = cursors.(cu) in
    coefs = []
  in
  let arr_of cu =
    let a, _, _, _ = cursors.(cu) in
    a
  in
  (* tree traversal helpers: every level/site block is referenced exactly
     once, so in-place array updates rewrite the whole nest *)
  let rewrite_tree (f : Ir.fop array -> Ir.fop array) =
    let rec blk (b : Ir.block) : Ir.block =
      { b with Ir.b_items = Array.map item b.Ir.b_items }
    and item (it : Ir.bitem) : Ir.bitem =
      match it with
      | Ir.Bops ops -> Ir.Bops (f ops)
      | Ir.Bsite sid ->
        let st = sites.(sid) in
        let s_then = blk st.Ir.s_then in
        let s_else = blk st.Ir.s_else in
        sites.(sid) <- { st with Ir.s_then; s_else };
        it
      | Ir.Bloop lid ->
        let lv = levels.(lid) in
        levels.(lid) <- { lv with Ir.l_body = blk lv.Ir.l_body };
        it
    in
    let lv0 = levels.(0) in
    levels.(0) <- { lv0 with Ir.l_body = blk lv0.Ir.l_body }
  in
  let iter_tree_ops (f : Ir.fop array -> unit) =
    let rec blk (b : Ir.block) = Array.iter item b.Ir.b_items
    and item = function
      | Ir.Bops ops -> f ops
      | Ir.Bsite sid ->
        blk sites.(sid).Ir.s_then;
        blk sites.(sid).Ir.s_else
      | Ir.Bloop lid -> blk levels.(lid).Ir.l_body
    in
    blk levels.(0).Ir.l_body
  in
  let pro = ref (List.rev c.pro) in
  let epi = ref [] in
  (* Code motion (skipped when [motion] is off): values cannot tell a moved
     access from one at its original site, but region footprints can — a
     hoisted load or promoted cell is touched once per entry even when its
     site sits under a zero-trip level or in an untaken arm.

     hoist: loads through invariant (all-zero-coefficient) cursors of
     arrays never stored move to the prologue (guard re-checks no aliasing
     store can clobber them); their counter costs stay at the original
     site, so accounting is unchanged.  Arrays the nest declares are new
     on every execution of their declaration, so neither they nor their
     cells move. *)
  let hoisted = Hashtbl.create 4 in
  if motion then
    rewrite_tree (fun ops ->
        let kept =
          List.filter_map
            (fun (op : Ir.fop) ->
              match op with
              | (FLd (_, cu) | ILd (_, cu))
                when zero_coef cu
                     && (not arrs.(arr_of cu).ma_stored)
                     && arrs.(arr_of cu).ma_size = None ->
                pro := !pro @ [ op ];
                Hashtbl.replace hoisted (arr_of cu) ();
                None
              | _ -> Some op)
            (Array.to_list ops)
        in
        Array.of_list kept);
  (* promote: an array cell addressed only through one invariant cursor
     becomes a register, loaded on entry and stored back on exit (guard
     re-checks its base is distinct from every other accessed base).  The
     unconditional epilogue store is unobservable even if the storing arm
     never ran: it writes back the originally loaded bits. *)
  let cursor_uses = Array.make (max c.ncursors 1) 0 in
  let ck_arrs = Hashtbl.create 4 in
  iter_tree_ops
    (Array.iter (fun (op : Ir.fop) ->
         match op with
         | FLd (_, cu) | FSt (cu, _) | FStDem (cu, _) | ILd (_, cu)
         | ISt (cu, _) | IStB (cu, _) ->
           cursor_uses.(cu) <- cursor_uses.(cu) + 1
         | FLdCk (_, a, _, _) | FStCk (a, _, _, _) | ILdCk (_, a, _, _)
         | IStCk (a, _, _, _) ->
           Hashtbl.replace ck_arrs a ()
         | _ -> ()));
  let promoted = ref [] in
  let promoted_regs = ref [] in
  Array.iteri
    (fun aid (ma : marr) ->
      if motion && ma.ma_stored && ma.ma_size = None && not (Hashtbl.mem ck_arrs aid)
      then begin
        let cus = ref [] in
        Array.iteri
          (fun cu (a, _, _, _) ->
            if a = aid && cursor_uses.(cu) > 0 then cus := cu :: !cus)
          cursors;
        match !cus with
        | [ cu ] when zero_coef cu ->
          let isf =
            match ma.ma_ety with
            | Ir.Efloat32 | Ir.Efloat64 -> true
            | _ -> false
          in
          let reg = if isf then allocf c else alloci c in
          pro := !pro @ [ (if isf then Ir.FLd (reg, cu) else Ir.ILd (reg, cu)) ];
          epi := !epi @ [ (if isf then Ir.FSt (cu, reg) else Ir.ISt (cu, reg)) ];
          rewrite_tree
            (Array.map (fun (op : Ir.fop) : Ir.fop ->
                 match op with
                 | FLd (d, cu') when cu' = cu -> FMov (d, reg)
                 | FSt (cu', sr) when cu' = cu -> FMov (reg, sr)
                 | FStDem (cu', sr) when cu' = cu -> FDem (reg, sr)
                 | ILd (d, cu') when cu' = cu -> IMov (d, reg)
                 | ISt (cu', sr) when cu' = cu -> IMov (reg, sr)
                 | IStB (cu', sr) when cu' = cu -> ItoB (reg, sr)
                 | _ -> op));
          promoted := aid :: !promoted;
          if isf then promoted_regs := reg :: !promoted_regs
        | _ -> ()
      end)
    arrs;
  (* fusion: fixpoint over the whole tree; def/use counts are global, so a
     temp absorbed in one block can never still be referenced in another *)
  let external_regs = Array.make (max c.nf 1) false in
  List.iter
    (fun mv ->
      match mv.mv_kind with
      | Ir.Kfloat _ -> external_regs.(mv.mv_reg) <- true
      | _ -> ())
    c.vars;
  List.iter (fun r -> external_regs.(r) <- true) !promoted_regs;
  let one_regs = Array.make (max c.nf 1) false in
  List.iter
    (fun (op : Ir.fop) ->
      match op with
      | FConst (r, v) when v = 1.0 -> one_regs.(r) <- true
      | _ -> ())
    !pro;
  let changed = ref true in
  while !changed do
    changed := false;
    let all = ref [ !pro; !epi ] in
    iter_tree_ops (fun ops -> all := Array.to_list ops :: !all);
    let defs, uses = fcounts c.nf !all in
    let temp d =
      d < c.nf && (not external_regs.(d)) && defs.(d) = 1 && uses.(d) = 1
    in
    rewrite_tree (fun ops ->
        let l = Array.to_list ops in
        let l' = scan_fuse ~nf:c.nf ~temp ~one_regs l in
        if l' <> l then begin
          changed := true;
          Array.of_list l'
        end
        else ops)
  done;
  {
    Ir.fl_sid = s.sid;
    fl_loc = s.sloc;
    fl_levels = levels;
    fl_sites = sites;
    fl_vars =
      Array.of_list
        (List.rev_map
           (fun mv ->
             {
               Ir.v_name = mv.mv_name;
               v_global = mv.mv_global;
               v_kind = mv.mv_kind;
               v_reg = mv.mv_reg;
               v_written = mv.mv_written;
             })
           c.vars);
    fl_arrs =
      Array.map
        (fun ma ->
          {
            Ir.a_name = ma.ma_name;
            a_global = ma.ma_global;
            a_ety = ma.ma_ety;
            a_stored = ma.ma_stored;
            a_size = ma.ma_size;
          })
        arrs;
    fl_cursors =
      Array.map
        (fun (a, coefs, base, arm) ->
          {
            Ir.c_arr = a;
            c_coefs =
              Array.init c.nlevels (fun l ->
                  match List.assoc_opt l coefs with
                  | Some e -> e
                  | None -> Ir.Iconst 0);
            c_base = base;
            c_arm = arm;
          })
        cursors;
    fl_calls = Array.of_list (List.rev c.calls);
    fl_prologue = Array.of_list !pro;
    fl_epilogue = Array.of_list !epi;
    fl_nf = c.nf;
    fl_ni = c.ni;
    fl_hoisted =
      Array.of_list (Hashtbl.fold (fun k () acc -> k :: acc) hoisted []);
    fl_promoted = Array.of_list !promoted;
  }

(* ---- program walk ---- *)

type outcome = Planned of { levels : int; sites : int } | Unplannable of string

let decl_binding_ty (d : decl) =
  match d.darray with Some _ -> Tptr d.dty | None -> d.dty

let plan_with ?(region_sids = []) ?(region_funcs = []) ?(motion = true)
    ~(note : stmt -> outcome -> unit) (p : program) : Ir.plan =
  let tbl : Ir.plan = Hashtbl.create 16 in
  (match Typecheck.check_program p with
   | Error _ ->
     (* ill-typed: run everything on the reference backends; still visit
        every loop so plan reports cover the whole program *)
     let rec walk blk =
       List.iter
         (fun s ->
           match s.sdesc with
           | If (_, b1, b2) ->
             walk b1;
             walk b2
           | While (_, b) | Scope b -> walk b
           | For (_, b) ->
             note s (Unplannable "ill-typed program");
             walk b
           | Decl _ | Assign _ | Expr_stmt _ | Return _ | Break | Continue ->
             ())
         blk
     in
     List.iter (fun f -> walk f.fbody) (funcs p)
   | Ok () ->
     (* the last definition of a name wins, as in the walker *)
     let user_funcs = Hashtbl.create 8 in
     List.iter (fun f -> Hashtbl.replace user_funcs f.fname f) (funcs p);
     let region_set = Hashtbl.create 8 in
     List.iter (fun sid -> Hashtbl.replace region_set sid ()) region_sids;
     let region_funcs =
       let t = Hashtbl.create 4 in
       List.iter (fun f -> Hashtbl.replace t f ()) region_funcs;
       t
     in
     let genv = Typecheck.env_of_program p in
     let rec walk_block env blk =
       ignore
         (List.fold_left
            (fun env s ->
              match s.sdesc with
              | Decl d -> Typecheck.bind env d.dname (decl_binding_ty d)
              | If (_, b1, b2) ->
                walk_block env b1;
                walk_block env b2;
                env
              | While (_, b) ->
                walk_block env b;
                env
              | Scope b ->
                walk_block env b;
                env
              | For (h, body) ->
                (match
                   plan_loop ~env ~genv ~user_funcs ~region_funcs ~region_set ~motion s
                     h body
                 with
                 | fl ->
                   Hashtbl.replace tbl s.sid fl;
                   note s
                     (Planned
                        {
                          levels = Array.length fl.Ir.fl_levels;
                          sites = Array.length fl.Ir.fl_sites;
                        })
                 | exception Reject r -> note s (Unplannable r));
                (* inner loops also get independent plan entries so the
                   fallback path still fast-paths them when the outer
                   guard declines *)
                walk_block (Typecheck.bind env h.index Tint) body;
                env
              | Assign _ | Expr_stmt _ | Return _ | Break | Continue -> env)
            env blk)
     in
     List.iter
       (fun f -> walk_block (Typecheck.env_for_func p f) f.fbody)
       (funcs p));
  tbl

let plan ?region_sids ?region_funcs ?motion (p : program) : Ir.plan =
  plan_with ?region_sids ?region_funcs ?motion ~note:(fun _ _ -> ()) p

let plan_report ?region_sids ?region_funcs (p : program) : (Loc.t * outcome) list =
  let acc = ref [] in
  ignore
    (plan_with ?region_sids ?region_funcs
       ~note:(fun s o -> acc := (s.sloc, o) :: !acc)
       p);
  List.rev !acc
