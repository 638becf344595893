(* Guarded executor for {!Ir.fast_loop}: the superinstruction VM's hot
   path.  [Compile] intercepts a planned [For] right after initialising the
   root index slot; [try_run] either executes the whole nest here — unboxed
   register files, flat op arrays, batched step/counter accounting with
   per-site taken counters, bounds checks verified once at the endpoints of
   every level — or returns [false] without any observable effect, in which
   case the caller falls back to the reference closure loop.

   Profiled runs stay on this path too.  Under [profile_loops] the inner
   levels' [loop_stats] are derived at commit from per-level entry counts,
   the per-entry trip counts and the per-site taken counters, exactly as
   the totals are; under active observation regions every access marks the
   frames' read-before-write/written footprints in program order.

   Soundness discipline: everything before "commit" below is read-only on
   interpreter state (it only scribbles on [prepared] scratch), so bailing
   out at any point — including via the [Failure] raised by dangling
   pointers inside [Memory] accessors — leaves the slow path to reproduce
   the walker's behaviour exactly.  After commit the nest runs to
   completion; the only exceptions it can raise ([Runtime_error] from
   checked accesses and division by zero) are raised at the exact point the
   walker would raise them, with identical memory, output, and PRNG state
   (counters are added after the run, but counter state is unobservable on
   aborted runs — only the raise identity is).  The step budget is
   pre-checked against the statically largest possible total, so the
   post-run [consume_steps] can never raise. *)

open Interp_rt

(* Where an external name lives in the enclosing compiled function. *)
type source = Slot of int | Global of Value.t ref

type f32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type prepared = {
  fl : Ir.fast_loop;
  index_slot : int;
  var_srcs : source array;  (* per fl_vars entry *)
  arr_srcs : source array;  (* per fl_arrs entry *)
  (* register files and per-entry scratch, reused across entries *)
  f : float array;
  n : int array;
  (* nest shape caches *)
  iregs : int array;  (* per level: index register or -1 *)
  simple : Ir.fop array option;
      (* single-level, site-free, one-run body: tight-loop special case *)
  (* per-entry level scratch: trip count, lo, step *)
  trip : int array;
  llo : int array;
  lstep : int array;
  (* per-site scratch: taken counter, max executions, cost delta vector *)
  tk : int array;
  cntmax : int array;
  dsite : int array array;
  (* the array resolution below matches the pointers currently in the
     frame, so re-entries with unchanged pointers can skip phases 4/4b *)
  mutable avalid : bool;
  (* per-array resolution: base id, pointer offset, length, name, raw data *)
  abase : int array;
  aoff : int array;
  alen : int array;
  aname : string array;
  afdata : float array array;
  aidata : int array array;
  adem : bool array;  (* element type is float32: stores demote *)
  abool : bool array;  (* element type is bool: stores normalise *)
  (* per-cursor position, per-level coefficient values, resolved data *)
  cpos : int array;
  ccoef : int array array;
  cfdata : float array array;
  cidata : int array array;
  (* per level: cursors with a statically nonzero coefficient there, and
     their per-entry enter/step/exit position deltas *)
  lev_cur : int array array;
  enter_d : int array array;
  step_d : int array array;
  exit_d : int array array;
  (* per level, the sites inside it (static); for loop profiling, the
     else-baseline cost of one entry (iterations and final test) and its
     largest entry count (per nest entry, from the cost walk), then the
     entries this run made and the order levels were first entered in *)
  lsites : int array array;
  lvec : int array array;
  lmult : int array;
  lent : int array;
  lord : int array;
  mutable nord : int;
  mutable prof : bool;
  (* region footprints: per array, the active frames' written and
     read-before-write bitsets, resolved at the array's first access in
     the entry ([no_fp] until then) *)
  carr : int array;  (* per cursor: its array *)
  mutable marking : bool;
  fpw : Bytes.t array array;
  fpr : Bytes.t array array;
  f32 : f32;  (* scratch cell for single-precision demotion *)
}

exception Bail of string

(* ---- bail-site registry (diagnostics only) ----

   [--explain] reports why planned loops fell back at runtime.  Keyed by
   (root loc, reason) so the report is a set: identical at any [--jobs],
   because memoization/single-flight dedup makes the set of executed runs
   identical even when their interleaving is not. *)

let bail_mu = Mutex.create ()

let bail_tbl : (Loc.t * string, unit) Hashtbl.t = Hashtbl.create 16

let record_bail loc reason =
  Mutex.lock bail_mu;
  Hashtbl.replace bail_tbl (loc, reason) ();
  Mutex.unlock bail_mu

let bail_sites () : (Loc.t * string) list =
  Mutex.lock bail_mu;
  let l = Hashtbl.fold (fun k () acc -> k :: acc) bail_tbl [] in
  Mutex.unlock bail_mu;
  List.sort compare l

let reset_bail_sites () =
  Mutex.lock bail_mu;
  Hashtbl.reset bail_tbl;
  Mutex.unlock bail_mu

(* steps executed on the fast path, for the vm.coverage metric *)
let m_planned = Obs.Metrics.counter "vm.steps.planned"

let planned_steps () = Obs.Metrics.Counter.value m_planned

(* the same count per domain: a run executes on one domain, so the
   difference across a run is that run's planned steps *)
let domain_planned = Domain.DLS.new_key (fun () -> ref 0)

let domain_planned_steps () = !(Domain.DLS.get domain_planned)

(* Magnitude caps under which the affine endpoint algebra below is exact
   (no wrap-around): |index|,|bound|,|base|,|offset| <= 2^40 and
   |coef| <= 2^20 keep every cursor position intermediate below 2^61 <
   max_int (re-checked cursor by cursor), and cost-walk quantities are
   checked against 2^55 so combining them with per-site counters cannot
   wrap either. *)
let cap = 1 lsl 40
let coef_cap = 1 lsl 20
let ccap = 1 lsl 55

let cadd x y =
  let s = x + y in
  if s > ccap || s < -ccap then raise (Bail "overflow");
  s

let cmul x y =
  if x = 0 || y = 0 then 0
  else begin
    let ax = abs x and ay = abs y in
    if ax > ccap / ay then raise (Bail "overflow");
    x * y
  end

let no_f : float array = [||]
let no_i : int array = [||]
let no_fp : Bytes.t array = [||]

(* every site in the subtree of block [b], nested levels included: the
   taken counters a level's total draws on (all of them for the root) *)
let rec block_sites (fl : Ir.fast_loop) (b : Ir.block) acc =
  Array.fold_left
    (fun acc (it : Ir.bitem) ->
      match it with
      | Ir.Bops _ -> acc
      | Ir.Bsite sid ->
        let s = fl.Ir.fl_sites.(sid) in
        block_sites fl s.Ir.s_else (block_sites fl s.Ir.s_then (sid :: acc))
      | Ir.Bloop lid -> block_sites fl fl.Ir.fl_levels.(lid).Ir.l_body acc)
    acc b.Ir.b_items

let prepare (fl : Ir.fast_loop) ~(index_slot : int)
    ~(lookup : string -> (source * Ast.ty) option) : prepared option =
  let ok = ref true in
  let dummy = Slot 0 in
  let var_srcs =
    Array.map
      (fun (v : Ir.var) ->
        match lookup v.Ir.v_name with
        | Some (src, ty) ->
          let want =
            match v.Ir.v_kind with
            | Ir.Kint -> Ast.Tint
            | Ir.Kbool -> Ast.Tbool
            | Ir.Kfloat Ir.Psingle -> Ast.Tfloat
            | Ir.Kfloat Ir.Pdouble -> Ast.Tdouble
          in
          if ty = want then src else (ok := false; dummy)
        | None -> (ok := false; dummy))
      fl.Ir.fl_vars
  in
  let arr_srcs =
    Array.map
      (fun (a : Ir.arr) ->
        match lookup a.Ir.a_name with
        | Some (src, Ast.Tptr ety) when ety = Ir.ty_of_ety a.Ir.a_ety -> src
        | _ -> (ok := false; dummy))
      fl.Ir.fl_arrs
  in
  if not !ok then begin
    record_bail fl.Ir.fl_loc "binding";
    None
  end
  else begin
    let nl = Array.length fl.Ir.fl_levels in
    let ns = max 1 (Array.length fl.Ir.fl_sites) in
    let na = max 1 (Array.length fl.Ir.fl_arrs) in
    let nc = max 1 (Array.length fl.Ir.fl_cursors) in
    let lev_cur =
      Array.init nl (fun l ->
          let ids = ref [] in
          Array.iteri
            (fun k (c : Ir.cursor) ->
              if c.Ir.c_coefs.(l) <> Ir.Iconst 0 then ids := k :: !ids)
            fl.Ir.fl_cursors;
          Array.of_list (List.rev !ids))
    in
    let simple =
      if nl = 1 && Array.length fl.Ir.fl_sites = 0 then
        match (fl.Ir.fl_levels.(0)).Ir.l_body.Ir.b_items with
        | [| Ir.Bops ops |] -> Some ops
        | [||] -> Some [||]
        | _ -> None
      else None
    in
    Some
      {
        fl;
        index_slot;
        var_srcs;
        arr_srcs;
        f = Array.make (max 1 fl.Ir.fl_nf) 0.0;
        n = Array.make (max 1 fl.Ir.fl_ni) 0;
        iregs =
          Array.map
            (fun (l : Ir.level) ->
              match l.Ir.l_index_reg with Some r -> r | None -> -1)
            fl.Ir.fl_levels;
        simple;
        trip = Array.make nl 0;
        llo = Array.make nl 0;
        lstep = Array.make nl 1;
        tk = Array.make ns 0;
        cntmax = Array.make ns 0;
        dsite = Array.init ns (fun _ -> Array.make 15 0);
        avalid = false;
        abase = Array.make na (-1);
        aoff = Array.make na 0;
        alen = Array.make na 0;
        aname = Array.make na "";
        afdata = Array.make na no_f;
        aidata = Array.make na no_i;
        adem = Array.map (fun (a : Ir.arr) -> a.Ir.a_ety = Ir.Efloat32) fl.Ir.fl_arrs;
        abool = Array.map (fun (a : Ir.arr) -> a.Ir.a_ety = Ir.Ebool) fl.Ir.fl_arrs;
        cpos = Array.make nc 0;
        ccoef = Array.init nc (fun _ -> Array.make nl 0);
        cfdata = Array.make nc no_f;
        cidata = Array.make nc no_i;
        lev_cur;
        enter_d = Array.map (fun cs -> Array.make (max 1 (Array.length cs)) 0) lev_cur;
        step_d = Array.map (fun cs -> Array.make (max 1 (Array.length cs)) 0) lev_cur;
        exit_d = Array.map (fun cs -> Array.make (max 1 (Array.length cs)) 0) lev_cur;
        lsites =
          Array.map
            (fun (l : Ir.level) -> Array.of_list (block_sites fl l.Ir.l_body []))
            fl.Ir.fl_levels;
        lvec = Array.make nl no_i;
        lmult = Array.make nl 0;
        lent = Array.make nl 0;
        lord = Array.make nl 0;
        nord = 0;
        prof = false;
        carr = Array.map (fun (c : Ir.cursor) -> c.Ir.c_arr) fl.Ir.fl_cursors;
        marking = false;
        fpw = Array.make na no_fp;
        fpr = Array.make na no_fp;
        f32 = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout 1;
      }
  end

(* Nest-invariant integer expressions; [Ivar] indexes the var table and is
   guaranteed int-kinded and unwritten by the lowering. *)
let rec ieval p (e : Ir.iexpr) : int =
  match e with
  | Ir.Iconst k -> k
  | Ir.Ivar v -> p.n.(p.fl.Ir.fl_vars.(v).Ir.v_reg)
  | Ir.Iadd (a, b) -> ieval p a + ieval p b
  | Ir.Isub (a, b) -> ieval p a - ieval p b
  | Ir.Imul (a, b) -> ieval p a * ieval p b
  | Ir.Ineg a -> -ieval p a
  | Ir.Imin (a, b) -> Int.min (ieval p a) (ieval p b)
  | Ir.Imax (a, b) -> Int.max (ieval p a) (ieval p b)

let m1 (m : Ir.m1) (x : float) : float =
  match m with
  | Ir.Msqrt -> sqrt x
  | Ir.Mrsqrt -> 1.0 /. sqrt x
  | Ir.Msin -> sin x
  | Ir.Mcos -> cos x
  | Ir.Mtan -> tan x
  | Ir.Mexp -> exp x
  | Ir.Mlog -> log x
  | Ir.Mtanh -> tanh x
  | Ir.Merf -> erf_approx x
  | Ir.Mfabs -> Float.abs x
  | Ir.Mfloor -> Float.floor x
  | Ir.Mceil -> Float.ceil x

let m2 (m : Ir.m2) (x : float) (y : float) : float =
  match m with
  | Ir.Mpow -> Float.pow x y
  | Ir.Mfmin -> Float.min x y
  | Ir.Mfmax -> Float.max x y

(* ---- static cost vectors ----

   15-element vectors: index 0 is steps, 1..14 the hardware-counter fields
   in a fixed order (see [apply_totals]).  All cost-walk arithmetic is
   checked against [ccap] so the combination with runtime taken counters
   below is provably exact. *)

let vec_of_block (b : Ir.block) =
  let c = b.Ir.b_cnt in
  [|
    b.Ir.b_steps;
    c.Ir.k_int_ops;
    c.Ir.k_sp_add;
    c.Ir.k_sp_mul;
    c.Ir.k_sp_div;
    c.Ir.k_sp_special;
    c.Ir.k_dp_add;
    c.Ir.k_dp_mul;
    c.Ir.k_dp_div;
    c.Ir.k_dp_special;
    c.Ir.k_loads;
    c.Ir.k_stores;
    c.Ir.k_bytes_loaded;
    c.Ir.k_bytes_stored;
    c.Ir.k_branches;
  |]

let ivec ~ints ~brs =
  let v = Array.make 15 0 in
  v.(1) <- ints;
  v.(14) <- brs;
  v

let vadd_into a b = Array.iteri (fun i x -> a.(i) <- cadd a.(i) x) b

let vscale k v = Array.map (fun x -> cmul k x) v

(* Cost of running [b] once, assuming each site takes its else arm; the
   per-site deltas (then cost minus else cost) and maximum execution
   counts land in [p.dsite]/[p.cntmax], and each inner level's cost per
   entry and maximum entry count in [p.lvec]/[p.lmult].  [mult]
   is the statically largest number of times [b] can run per nest entry.
   Loop trip counts are the per-entry constants already computed in
   [p.trip]. *)
let rec eval_block p (b : Ir.block) (mult : int) : int array =
  let v = vec_of_block b in
  Array.iter
    (fun (it : Ir.bitem) ->
      match it with
      | Ir.Bops _ -> ()
      | Ir.Bsite sid ->
        let s = p.fl.Ir.fl_sites.(sid) in
        let et = eval_block p s.Ir.s_then mult in
        let ee = eval_block p s.Ir.s_else mult in
        let d = p.dsite.(sid) in
        Array.iteri (fun i x -> d.(i) <- cadd x (-ee.(i))) et;
        p.cntmax.(sid) <- mult;
        vadd_into v ee
      | Ir.Bloop lid ->
        let lv = p.fl.Ir.fl_levels.(lid) in
        let trip = p.trip.(lid) in
        let inner = eval_block p lv.Ir.l_body (cmul mult trip) in
        (* closure-loop bookkeeping: lo evaluated once per entry; each
           iteration pays the test (1 int op + hi ops + 1 branch) and the
           bump (1 int op + step ops); the final failing test pays
           1 + hi ops and a branch *)
        vadd_into v (ivec ~ints:lv.Ir.l_lo_ops ~brs:0);
        vadd_into inner
          (ivec ~ints:(2 + lv.Ir.l_hi_ops + lv.Ir.l_step_ops) ~brs:1);
        let entry = vscale trip inner in
        vadd_into entry (ivec ~ints:(1 + lv.Ir.l_hi_ops) ~brs:1);
        p.lvec.(lid) <- entry;
        p.lmult.(lid) <- mult;
        vadd_into v entry)
    b.Ir.b_items;
  v

(* Batched counter update at commit: static baseline plus per-site taken
   deltas, scaled into the live counters.  Mirrors the per-operation
   count_* calls of the reference backends. *)
let apply_totals (t : Counters.t) (tot : int array) =
  t.Counters.int_ops <- t.Counters.int_ops + tot.(1);
  t.Counters.flops_sp_add <- t.Counters.flops_sp_add + tot.(2);
  t.Counters.flops_sp_mul <- t.Counters.flops_sp_mul + tot.(3);
  t.Counters.flops_sp_div <- t.Counters.flops_sp_div + tot.(4);
  t.Counters.flops_sp_special <- t.Counters.flops_sp_special + tot.(5);
  t.Counters.flops_dp_add <- t.Counters.flops_dp_add + tot.(6);
  t.Counters.flops_dp_mul <- t.Counters.flops_dp_mul + tot.(7);
  t.Counters.flops_dp_div <- t.Counters.flops_dp_div + tot.(8);
  t.Counters.flops_dp_special <- t.Counters.flops_dp_special + tot.(9);
  t.Counters.loads <- t.Counters.loads + tot.(10);
  t.Counters.stores <- t.Counters.stores + tot.(11);
  t.Counters.bytes_loaded <- t.Counters.bytes_loaded + tot.(12);
  t.Counters.bytes_stored <- t.Counters.bytes_stored + tot.(13);
  t.Counters.branches <- t.Counters.branches + tot.(14)

(* The exact total over one stretch of the nest: a baseline plus, for
   every site in [sites], its taken count times its delta.  [bound_total]
   is the overflow pre-verification of the same sum — the baseline and
   the sites' maximum counts, in absolute value, all checked — so the
   unchecked arithmetic of [add_taken] after commit cannot wrap. *)
let bound_total p (base : int array) (sites : int array) =
  for i = 0 to 14 do
    let acc = ref (abs base.(i)) in
    Array.iter
      (fun s -> acc := cadd !acc (cmul p.cntmax.(s) (abs p.dsite.(s).(i))))
      sites
  done

let add_taken p (tot : int array) (sites : int array) =
  Array.iter
    (fun s ->
      let tks = p.tk.(s) in
      if tks > 0 then begin
        let d = p.dsite.(s) in
        for i = 0 to 14 do
          tot.(i) <- tot.(i) + (tks * d.(i))
        done
      end)
    sites

let oob p (a : int) (idx : int) (loc : Loc.t) =
  runtime_error loc "array %s: index %d out of bounds [0,%d)" p.aname.(a) idx
    p.alen.(a)

(* ---- region footprints ----

   The walker marks every access into each active frame's bitsets for the
   accessed base ([Interp_rt.mark_read]/[mark_write]).  Here the bitsets
   are resolved once per array per nest entry, at its first access, so
   frames gain footprint entries in the walker's first-touch order and
   arrays the entry never touches get none.  Marking only happens with a
   region active, so a resolved array is never the empty [no_fp]. *)

let resolve_fp p st a =
  let fps = List.map (fun fr -> get_footprint st fr p.abase.(a)) st.active_regions in
  p.fpw.(a) <- Array.of_list (List.map (fun fp -> fp.fp_written) fps);
  p.fpr.(a) <- Array.of_list (List.map (fun fp -> fp.fp_read_first) fps)

let mark_rd p st a idx =
  if p.fpw.(a) == no_fp then resolve_fp p st a;
  let ws = p.fpw.(a) and rs = p.fpr.(a) in
  for j = 0 to Array.length ws - 1 do
    if Bytes.get ws.(j) idx = '\000' then Bytes.set rs.(j) idx '\001'
  done

let mark_wr p st a idx =
  if p.fpw.(a) == no_fp then resolve_fp p st a;
  let ws = p.fpw.(a) in
  for j = 0 to Array.length ws - 1 do
    Bytes.set ws.(j) idx '\001'
  done

let mark_cur_rd p st c = mark_rd p st p.carr.(c) p.cpos.(c)

let mark_cur_wr p st c = mark_wr p st p.carr.(c) p.cpos.(c)

(* [Value.demote] inline: a store to a float32 cell and a load back are
   the same two conversions (cvtsd2ss/cvtss2sd, round-to-nearest) as its
   [Int32] bit round trip, without the two C calls.  The cell belongs to
   the prepared nest, so domains never share it. *)
let[@inline] demote (s : f32) x =
  Bigarray.Array1.unsafe_set s 0 x;
  Bigarray.Array1.unsafe_get s 0

(* Flat-array dispatch loop.  Registers and cursor positions are validated
   by construction (lowering) and by the guard (bounds), so the only
   runtime checks left are the ones the source semantics demand: checked
   accesses and integer division by zero.  Memory ops mark footprints
   after the access, in the walker's order, only while regions are
   active. *)
let exec p st (ops : Ir.fop array) =
  let f = p.f and n = p.n and s32 = p.f32 in
  let mk = p.marking in
  let len = Array.length ops in
  for k = 0 to len - 1 do
    match Array.unsafe_get ops k with
    | Ir.FConst (d, x) -> f.(d) <- x
    | Ir.IConst (d, x) -> n.(d) <- x
    | Ir.FMov (d, a) -> f.(d) <- f.(a)
    | Ir.IMov (d, a) -> n.(d) <- n.(a)
    | Ir.ItoF (d, a) -> f.(d) <- float_of_int n.(a)
    | Ir.FtoI (d, a) -> n.(d) <- int_of_float f.(a)
    | Ir.FtoB (d, a) -> n.(d) <- (if f.(a) <> 0.0 then 1 else 0)
    | Ir.ItoB (d, a) -> n.(d) <- (if n.(a) <> 0 then 1 else 0)
    | Ir.FDem (d, a) -> f.(d) <- demote s32 f.(a)
    | Ir.FAdd (d, a, b) -> f.(d) <- f.(a) +. f.(b)
    | Ir.FSub (d, a, b) -> f.(d) <- f.(a) -. f.(b)
    | Ir.FMul (d, a, b) -> f.(d) <- f.(a) *. f.(b)
    | Ir.FDiv (d, a, b) -> f.(d) <- f.(a) /. f.(b)
    | Ir.FNeg (d, a) -> f.(d) <- -.f.(a)
    | Ir.FAddS (d, a, b) -> f.(d) <- demote s32 (f.(a) +. f.(b))
    | Ir.FSubS (d, a, b) -> f.(d) <- demote s32 (f.(a) -. f.(b))
    | Ir.FMulS (d, a, b) -> f.(d) <- demote s32 (f.(a) *. f.(b))
    | Ir.FDivS (d, a, b) -> f.(d) <- demote s32 (f.(a) /. f.(b))
    | Ir.IAdd (d, a, b) -> n.(d) <- n.(a) + n.(b)
    | Ir.ISub (d, a, b) -> n.(d) <- n.(a) - n.(b)
    | Ir.IMul (d, a, b) -> n.(d) <- n.(a) * n.(b)
    | Ir.INeg (d, a) -> n.(d) <- -n.(a)
    | Ir.IDivZ (d, a, b, loc) ->
      let y = n.(b) in
      if y = 0 then runtime_error loc "integer division by zero";
      n.(d) <- n.(a) / y
    | Ir.IModZ (d, a, b, loc) ->
      let y = n.(b) in
      if y = 0 then runtime_error loc "modulo by zero";
      n.(d) <- n.(a) mod y
    | Ir.IAbs (d, a) -> n.(d) <- abs n.(a)
    | Ir.IMin (d, a, b) ->
      let x = n.(a) and y = n.(b) in
      n.(d) <- (if x < y then x else y)
    | Ir.IMax (d, a, b) ->
      let x = n.(a) and y = n.(b) in
      n.(d) <- (if x > y then x else y)
    | Ir.ICmp (op, d, a, b) ->
      let x = n.(a) and y = n.(b) in
      let r =
        match op with
        | Ir.Clt -> x < y
        | Ir.Cle -> x <= y
        | Ir.Cgt -> x > y
        | Ir.Cge -> x >= y
        | Ir.Ceq -> x = y
        | Ir.Cne -> x <> y
      in
      n.(d) <- (if r then 1 else 0)
    | Ir.FCmp (op, d, a, b) ->
      let x = f.(a) and y = f.(b) in
      let r =
        match op with
        | Ir.Clt -> x < y
        | Ir.Cle -> x <= y
        | Ir.Cgt -> x > y
        | Ir.Cge -> x >= y
        | Ir.Ceq -> x = y
        | Ir.Cne -> x <> y
      in
      n.(d) <- (if r then 1 else 0)
    | Ir.INot (d, a) -> n.(d) <- (if n.(a) <> 0 then 0 else 1)
    | Ir.FMath1 (m, d, a) -> f.(d) <- m1 m f.(a)
    | Ir.FMath1S (m, d, a) -> f.(d) <- demote s32 (m1 m f.(a))
    | Ir.FMath2 (m, d, a, b) -> f.(d) <- m2 m f.(a) f.(b)
    | Ir.FMath2S (m, d, a, b) -> f.(d) <- demote s32 (m2 m f.(a) f.(b))
    | Ir.Rand d -> f.(d) <- Util.Prng.uniform st.prng
    | Ir.FLd (d, c) ->
      f.(d) <- p.cfdata.(c).(p.cpos.(c));
      if mk then mark_cur_rd p st c
    | Ir.FSt (c, s) ->
      p.cfdata.(c).(p.cpos.(c)) <- f.(s);
      if mk then mark_cur_wr p st c
    | Ir.FStDem (c, s) ->
      p.cfdata.(c).(p.cpos.(c)) <- demote s32 f.(s);
      if mk then mark_cur_wr p st c
    | Ir.ILd (d, c) ->
      n.(d) <- p.cidata.(c).(p.cpos.(c));
      if mk then mark_cur_rd p st c
    | Ir.ISt (c, s) ->
      p.cidata.(c).(p.cpos.(c)) <- n.(s);
      if mk then mark_cur_wr p st c
    | Ir.IStB (c, s) ->
      p.cidata.(c).(p.cpos.(c)) <- (if n.(s) <> 0 then 1 else 0);
      if mk then mark_cur_wr p st c
    | Ir.FLdCk (d, a, i, loc) ->
      let idx = p.aoff.(a) + n.(i) in
      if idx < 0 || idx >= p.alen.(a) then oob p a idx loc;
      f.(d) <- p.afdata.(a).(idx);
      if mk then mark_rd p st a idx
    | Ir.FStCk (a, i, s, loc) ->
      let idx = p.aoff.(a) + n.(i) in
      if idx < 0 || idx >= p.alen.(a) then oob p a idx loc;
      p.afdata.(a).(idx) <- (if p.adem.(a) then demote s32 f.(s) else f.(s));
      if mk then mark_wr p st a idx
    | Ir.ILdCk (d, a, i, loc) ->
      let idx = p.aoff.(a) + n.(i) in
      if idx < 0 || idx >= p.alen.(a) then oob p a idx loc;
      n.(d) <- p.aidata.(a).(idx);
      if mk then mark_rd p st a idx
    | Ir.IStCk (a, i, s, loc) ->
      let idx = p.aoff.(a) + n.(i) in
      if idx < 0 || idx >= p.alen.(a) then oob p a idx loc;
      p.aidata.(a).(idx) <-
        (if p.abool.(a) then (if n.(s) <> 0 then 1 else 0) else n.(s));
      if mk then mark_wr p st a idx
    | Ir.FLdSub (d, c, b) ->
      f.(d) <- p.cfdata.(c).(p.cpos.(c)) -. f.(b);
      if mk then mark_cur_rd p st c
    | Ir.FLdSub2 (d, c1, c2) ->
      f.(d) <- p.cfdata.(c1).(p.cpos.(c1)) -. p.cfdata.(c2).(p.cpos.(c2));
      if mk then begin
        mark_cur_rd p st c1;
        mark_cur_rd p st c2
      end
    | Ir.FLdMul (d, c, b) ->
      f.(d) <- p.cfdata.(c).(p.cpos.(c)) *. f.(b);
      if mk then mark_cur_rd p st c
    | Ir.FLdAdd (d, c, b) ->
      f.(d) <- p.cfdata.(c).(p.cpos.(c)) +. f.(b);
      if mk then mark_cur_rd p st c
    | Ir.FMulAdd (d, a, b, c) -> f.(d) <- (f.(a) *. f.(b)) +. f.(c)
    | Ir.FAddMul (d, c, a, b) -> f.(d) <- f.(c) +. (f.(a) *. f.(b))
    | Ir.FSubMul (d, c, a, b) -> f.(d) <- f.(c) -. (f.(a) *. f.(b))
    | Ir.FRecip (d, a) -> f.(d) <- 1.0 /. f.(a)
    | Ir.FRsqrt (d, a) -> f.(d) <- 1.0 /. sqrt f.(a)
    | Ir.FAccSt (c, s) ->
      let q = p.cfdata.(c) and i = p.cpos.(c) in
      q.(i) <- q.(i) +. f.(s);
      if mk then begin
        mark_cur_rd p st c;
        mark_cur_wr p st c
      end
    | Ir.FMulAccSt (c, a, b) ->
      let q = p.cfdata.(c) and i = p.cpos.(c) in
      q.(i) <- q.(i) +. (f.(a) *. f.(b));
      if mk then begin
        mark_cur_rd p st c;
        mark_cur_wr p st c
      end
  done

(* ---- tree executor ---- *)

let rec run_block p st (b : Ir.block) =
  let items = b.Ir.b_items in
  for k = 0 to Array.length items - 1 do
    match Array.unsafe_get items k with
    | Ir.Bops ops -> exec p st ops
    | Ir.Bsite sid ->
      let s = Array.unsafe_get p.fl.Ir.fl_sites sid in
      if p.n.(s.Ir.s_cond) <> 0 then begin
        p.tk.(sid) <- p.tk.(sid) + 1;
        run_block p st s.Ir.s_then
      end
      else run_block p st s.Ir.s_else
    | Ir.Bloop lid -> run_level p st lid
  done

and run_level p st lid =
  let lv = Array.unsafe_get p.fl.Ir.fl_levels lid in
  if p.prof then begin
    let e = p.lent.(lid) in
    if e = 0 then begin
      p.lord.(p.nord) <- lid;
      p.nord <- p.nord + 1
    end;
    p.lent.(lid) <- e + 1
  end;
  let cs = p.lev_cur.(lid) in
  let en = p.enter_d.(lid) and sd = p.step_d.(lid) and ex = p.exit_d.(lid) in
  let ncs = Array.length cs in
  for j = 0 to ncs - 1 do
    let c = Array.unsafe_get cs j in
    p.cpos.(c) <- p.cpos.(c) + Array.unsafe_get en j
  done;
  let trip = p.trip.(lid) and step = p.lstep.(lid) in
  let ireg = p.iregs.(lid) in
  let body = lv.Ir.l_body in
  let i = ref p.llo.(lid) in
  for _ = 1 to trip do
    if ireg >= 0 then p.n.(ireg) <- !i;
    run_block p st body;
    for j = 0 to ncs - 1 do
      let c = Array.unsafe_get cs j in
      p.cpos.(c) <- p.cpos.(c) + Array.unsafe_get sd j
    done;
    i := !i + step
  done;
  (* net out this level's contribution so re-entries (inner levels run
     once per enclosing iteration) start from the enclosing position *)
  for j = 0 to ncs - 1 do
    let c = Array.unsafe_get cs j in
    p.cpos.(c) <- p.cpos.(c) - Array.unsafe_get ex j
  done

(* Inner levels' loop_stats, as the walker's per-[For] snapshots would
   have recorded them: every entry of level [l] costs its else-baseline
   iterations and final test ([p.lvec]), and every taken then-arm inside
   it adds its site delta (all of a site's executions lie inside each enclosing
   level).  Accumulators are created in first-entry order, the order the
   walker touches them.  The lo bound is evaluated before the walker's
   snapshot, so it stays out, as does the [For] statement's own step. *)
let account_levels p st =
  let levels = p.fl.Ir.fl_levels in
  for k = 0 to p.nord - 1 do
    let l = p.lord.(k) in
    if l > 0 then begin
      let lv = levels.(l) in
      let e = p.lent.(l) in
      let a = loop_acc_of st lv.Ir.l_sid in
      a.la_entries <- a.la_entries + e;
      a.la_iterations <- a.la_iterations + (e * p.trip.(l));
      let tot = Array.map (fun x -> e * x) p.lvec.(l) in
      add_taken p tot p.lsites.(l);
      let c = a.la_counters in
      c.Counters.steps <- c.Counters.steps + tot.(0);
      apply_totals c tot
    end
  done

let read_src (fr : Value.t array) = function
  | Slot i -> fr.(i)
  | Global r -> !r

let attempt p st (fr : Value.t array) (acc : loop_acc) =
  let fl = p.fl in
  let levels = fl.Ir.fl_levels in
  let nl = Array.length levels in
  let nsites = Array.length fl.Ir.fl_sites in
  (* 0. profiling: the caller accounts the root level through [acc]; inner
     levels' loop_stats are derived at commit.  Footprints are marked only
     where the walker accesses memory, so a nest whose loads or cells the
     lowering moved out of the body cannot run under a region (plans for
     region-profiled runs are built without code motion). *)
  let prof = st.cfg.profile_loops && nl > 1 in
  let marking = st.active_regions <> [] in
  if marking
     && (Array.length fl.Ir.fl_hoisted > 0 || Array.length fl.Ir.fl_promoted > 0)
  then raise (Bail "code motion");
  (* 1. load external scalars, strictly typed (mismatch -> slow path) *)
  let vars = fl.Ir.fl_vars in
  for k = 0 to Array.length vars - 1 do
    let v = vars.(k) in
    match v.Ir.v_kind, read_src fr p.var_srcs.(k) with
    | Ir.Kint, Value.Vint x -> p.n.(v.Ir.v_reg) <- x
    | Ir.Kbool, Value.Vbool b -> p.n.(v.Ir.v_reg) <- (if b then 1 else 0)
    | Ir.Kfloat _, Value.Vfloat (_, x) -> p.f.(v.Ir.v_reg) <- x
    | _ -> raise (Bail "binding")
  done;
  (* 2. trip counts: every level is [for i = lo; i </<= hi; i += step]
     with nest-invariant bounds, so the whole iteration space is decided
     here once.  The root must run at least one iteration (a zero-trip
     root is cheaper on the slow path); inner levels may be empty. *)
  let root_lo =
    match fr.(p.index_slot) with
    | Value.Vint x -> x
    | _ -> raise (Bail "binding")
  in
  for l = 0 to nl - 1 do
    let lv = levels.(l) in
    let lo = if l = 0 then root_lo else ieval p lv.Ir.l_lo in
    let hi = ieval p lv.Ir.l_hi in
    let step = ieval p lv.Ir.l_step in
    if step < 1 || step > cap then raise (Bail "trip-count");
    if lo < -cap || lo > cap || hi < -cap || hi > cap then
      raise (Bail "trip-count");
    let d = hi - lo + (if lv.Ir.l_cle then 1 else 0) in
    let trip = if d <= 0 then 0 else ((d - 1) / step) + 1 in
    if l = 0 && trip = 0 then raise (Bail "trip-count");
    p.trip.(l) <- trip;
    p.llo.(l) <- lo;
    p.lstep.(l) <- step
  done;
  (* 3. cost walk: static baseline (all sites take their else arm) plus
     per-site deltas and max execution counts; all checked arithmetic.
     The budget must survive the statically largest possible total;
     otherwise the slow path runs and raises Step_limit_exceeded at the
     exact offending statement. *)
  let t0 = p.trip.(0) in
  let root = levels.(0) in
  let body_once = eval_block p root.Ir.l_body t0 in
  vadd_into body_once
    (ivec ~ints:(2 + root.Ir.l_hi_ops + root.Ir.l_step_ops) ~brs:1);
  let base_v = vscale t0 body_once in
  vadd_into base_v (ivec ~ints:(1 + root.Ir.l_hi_ops) ~brs:1);
  let max_steps = ref base_v.(0) in
  for s = 0 to nsites - 1 do
    let ds = p.dsite.(s).(0) in
    if ds > 0 then max_steps := cadd !max_steps (cmul p.cntmax.(s) ds)
  done;
  if st.steps_left <= !max_steps then raise (Bail "budget");
  (* 3b. overflow pre-verification: bound the absolute value of every
     per-field total the commit phase will compute — the nest's, and
     under profiling every inner level's loop_stats total — so the
     unchecked arithmetic there is provably exact.  The root's subtree
     holds every site. *)
  bound_total p base_v p.lsites.(0);
  if prof then
    for l = 1 to nl - 1 do
      bound_total p (vscale p.lmult.(l) p.lvec.(l)) p.lsites.(l)
    done;
  (* 4. resolve arrays: exact element type, raw storage, name for errors.
     [Memory] bases are append-only — an entry's storage is written
     exactly once, at allocation — so a resolution stays valid for as
     long as the frame holds the same base+offset pointer.  Re-entries
     with unchanged pointers (the common case for a nest entered many
     times) skip the accessor calls and the alias re-checks entirely. *)
  let arrs = fl.Ir.fl_arrs in
  let na = Array.length arrs in
  let same = ref p.avalid in
  for k = 0 to na - 1 do
    match read_src fr p.arr_srcs.(k) with
    | Value.Vptr ptr ->
      if ptr.Value.base <> p.abase.(k) || ptr.Value.offset <> p.aoff.(k) then
        same := false
    | _ -> raise (Bail "binding")
  done;
  if not !same then begin
    p.avalid <- false;
    for k = 0 to na - 1 do
      let a = arrs.(k) in
      match read_src fr p.arr_srcs.(k) with
      | Value.Vptr ptr ->
        let base = ptr.Value.base in
        if Memory.elem_ty st.mem base <> Ir.ty_of_ety a.Ir.a_ety then
          raise (Bail "types");
        let off = ptr.Value.offset in
        if off < -cap || off > cap then raise (Bail "bounds");
        p.abase.(k) <- base;
        p.aoff.(k) <- off;
        p.alen.(k) <- Memory.length st.mem base;
        p.aname.(k) <- Memory.name st.mem base;
        (match Memory.raw st.mem base with
         | Memory.Rfloat data -> p.afdata.(k) <- data
         | Memory.Rint data -> p.aidata.(k) <- data)
      | _ -> raise (Bail "binding")
    done;
    (* 4b. alias re-checks for the code-motion the lowering performed on
       statically distinct names: hoisted loads must not alias any stored
       array, promoted cells must not alias any other accessed array.
       The verdict depends only on the resolved bases, so it is part of
       the cached resolution. *)
    Array.iter
      (fun h ->
        let bh = p.abase.(h) in
        for k = 0 to na - 1 do
          if arrs.(k).Ir.a_stored && p.abase.(k) = bh then raise (Bail "alias")
        done)
      fl.Ir.fl_hoisted;
    Array.iter
      (fun pr ->
        let bp = p.abase.(pr) in
        for k = 0 to na - 1 do
          if k <> pr && p.abase.(k) = bp then raise (Bail "alias")
        done)
      fl.Ir.fl_promoted;
    p.avalid <- true
  end;
  (* 5. cursors: evaluate the affine coefficients and the separable
     endpoint bounds — in-bounds extrema imply every reached iteration is
     in bounds.  A cursor with a nonzero coefficient at a zero-trip level
     is never dereferenced (every access is scoped inside that level), so
     it skips the checks. *)
  let cursors = fl.Ir.fl_cursors in
  let ncur = Array.length cursors in
  for k = 0 to ncur - 1 do
    let cu = cursors.(k) in
    let a = cu.Ir.c_arr in
    let base = ieval p cu.Ir.c_base in
    if base < -cap || base > cap then raise (Bail "bounds");
    let pos0 = base + p.aoff.(a) in
    let coefs = p.ccoef.(k) in
    let accessed = ref true in
    for l = 0 to nl - 1 do
      let coef = ieval p cu.Ir.c_coefs.(l) in
      if coef < -coef_cap || coef > coef_cap then raise (Bail "bounds");
      coefs.(l) <- coef;
      if cu.Ir.c_coefs.(l) <> Ir.Iconst 0 && p.trip.(l) = 0 then
        accessed := false
    done;
    if !accessed then begin
      (* The position is pos0 plus a sum of per-level terms coef*i_l,
         each ranging over an arithmetic progression, so the extrema are
         the sums of per-level extrema.  [mag] additionally bounds every
         intermediate position — any subset of levels entered, the index
         possibly one bump past its last iteration before the level's
         exit delta nets it out — so no position computation can wrap. *)
      let lo_b = ref pos0 and hi_b = ref pos0 in
      let mag = ref (abs pos0) in
      for l = 0 to nl - 1 do
        let coef = coefs.(l) in
        if coef <> 0 && p.trip.(l) > 0 then begin
          let lo = p.llo.(l) and trip = p.trip.(l) and step = p.lstep.(l) in
          let last = lo + ((trip - 1) * step) in
          let x = coef * lo and y = coef * last in
          lo_b := cadd !lo_b (if x < y then x else y);
          hi_b := cadd !hi_b (if x > y then x else y);
          let m = abs coef * (abs last + step) in
          let m = if abs x > m then abs x else m in
          mag := cadd !mag m
        end
      done;
      if !lo_b < 0 || !hi_b >= p.alen.(a) then raise (Bail "bounds")
    end;
    p.cpos.(k) <- pos0;
    p.cfdata.(k) <- p.afdata.(a);
    p.cidata.(k) <- p.aidata.(a)
  done;
  (* 5b. per-level cursor deltas: entering level l at index lo adds
     coef*lo, each bump adds coef*step, and exiting subtracts
     coef*(lo + trip*step) — exactly what the enters and bumps summed to,
     restoring the enclosing level's position *)
  for l = 0 to nl - 1 do
    let cs = p.lev_cur.(l) in
    let en = p.enter_d.(l) and sd = p.step_d.(l) and ex = p.exit_d.(l) in
    let lo = p.llo.(l) and trip = p.trip.(l) and step = p.lstep.(l) in
    for j = 0 to Array.length cs - 1 do
      let coef = p.ccoef.(cs.(j)).(l) in
      en.(j) <- coef * lo;
      sd.(j) <- coef * step;
      ex.(j) <- coef * (lo + (trip * step))
    done
  done;
  (* ---- commit: from here on the fast path runs the nest to the end ---- *)
  Array.fill p.tk 0 (Array.length p.tk) 0;
  p.prof <- prof;
  if prof then begin
    Array.fill p.lent 0 nl 0;
    p.nord <- 0
  end;
  p.marking <- marking;
  if marking then begin
    Array.fill p.fpw 0 (Array.length p.fpw) no_fp;
    Array.fill p.fpr 0 (Array.length p.fpr) no_fp
  end;
  exec p st fl.Ir.fl_prologue;
  (match p.simple with
   | Some ops ->
     (* single-level site-free nests keep the PR6-style tight loop *)
     let cs = p.lev_cur.(0) in
     let en = p.enter_d.(0) and sd = p.step_d.(0) in
     let ncs = Array.length cs in
     for j = 0 to ncs - 1 do
       let c = Array.unsafe_get cs j in
       p.cpos.(c) <- p.cpos.(c) + Array.unsafe_get en j
     done;
     let trip = p.trip.(0) and step = p.lstep.(0) in
     let ireg = p.iregs.(0) in
     let i = ref root_lo in
     for _ = 1 to trip do
       if ireg >= 0 then p.n.(ireg) <- !i;
       exec p st ops;
       for j = 0 to ncs - 1 do
         let c = Array.unsafe_get cs j in
         p.cpos.(c) <- p.cpos.(c) + Array.unsafe_get sd j
       done;
       i := !i + step
     done
   | None -> run_level p st 0);
  exec p st fl.Ir.fl_epilogue;
  (* exact totals: baseline plus taken deltas; the overflow
     pre-verification above guarantees none of this unchecked arithmetic
     can wrap, and the budget pre-check that consume_steps cannot raise *)
  let tot = Array.copy base_v in
  add_taken p tot p.lsites.(0);
  if tot.(0) > 0 then consume_steps st tot.(0);
  apply_totals st.counters tot;
  Obs.Metrics.Counter.add m_planned tot.(0);
  let dp = Domain.DLS.get domain_planned in
  dp := !dp + tot.(0);
  acc.la_iterations <- acc.la_iterations + p.trip.(0);
  if prof then account_levels p st;
  (* write back mutated scalars with the representation [Set] maintains *)
  for k = 0 to Array.length vars - 1 do
    let v = vars.(k) in
    if v.Ir.v_written then begin
      let value =
        match v.Ir.v_kind with
        | Ir.Kint -> Value.Vint p.n.(v.Ir.v_reg)
        | Ir.Kbool -> Value.Vbool (p.n.(v.Ir.v_reg) <> 0)
        | Ir.Kfloat Ir.Psingle -> Value.Vfloat (Value.Sp, p.f.(v.Ir.v_reg))
        | Ir.Kfloat Ir.Pdouble -> Value.Vfloat (Value.Dp, p.f.(v.Ir.v_reg))
      in
      match p.var_srcs.(k) with Slot s -> fr.(s) <- value | Global r -> r := value
    end
  done;
  (* leave the root index slot where the failing loop test read it *)
  fr.(p.index_slot) <- Value.Vint (root_lo + (p.trip.(0) * p.lstep.(0)))

let try_run p st (fr : Value.t array) (acc : loop_acc) : bool =
  try
    attempt p st fr acc;
    true
  with
  | Bail r ->
    record_bail p.fl.Ir.fl_loc r;
    false
  | Failure _ ->
    record_bail p.fl.Ir.fl_loc "memory";
    false
