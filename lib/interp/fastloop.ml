(* Guarded executor for {!Ir.fast_loop}: the superinstruction VM's hot
   path.  [Compile] intercepts a planned [For] right after initialising the
   root index slot; [try_run] either executes the whole nest here — unboxed
   register files, the nest's ops compiled once per run into threaded
   closures, batched step/counter accounting with per-site taken counters,
   a cost walk reused while the trip counts stay the same, bounds checks
   verified once at the endpoints of every level — or returns [false]
   without any observable effect, in which case the caller falls back to
   the reference closure loop.

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

(* A prepared nest lives for one run: [Compile] binds it while compiling
   the run's program, so the run's state and config are fixed for its
   lifetime. *)
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
  (* per-entry level scratch: trip count, lo, step *)
  trip : int array;
  llo : int array;
  lstep : int array;
  (* per-site scratch: taken counter, max executions, cost delta vector *)
  tk : int array;
  cntmax : int array;
  dsite : int array array;
  (* the cost walk (guard phases 3 and 3b: [cntmax] and [dsite] above,
     [lvec] and [lmult] below) was computed for trip counts [wtrip]:
     re-entries with the same trip counts reuse it.  [wbase] is the nest's
     else-baseline total, [wmax] its largest possible step count; [tot] is
     commit scratch. *)
  mutable wvalid : bool;
  wtrip : int array;
  mutable wbase : int array;
  mutable wmax : int;
  tot : int array;
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
  (* region footprints: per array, the active frames' written and
     read-before-write bitsets, resolved at the array's first access in
     the entry ([no_fp] until then) *)
  carr : int array;  (* per cursor: its array *)
  fpw : Bytes.t array array;
  fpr : Bytes.t array array;
  f32 : f32;  (* scratch cell for single-precision demotion *)
  called : bool array;  (* per inlined call site: ran this entry (alias tracing) *)
  (* the nest compiled to closures, per footprint-marking mode (off, on) *)
  code : (unit -> unit) option array;
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

(* steps executed on the fast path, per domain: a run executes on one
   domain, so the difference across a run is that run's planned steps
   ([Machine.run] adds it to the vm.coverage metric when the run
   succeeds) *)
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

(* length of a cost vector: steps and the 15 counter fields *)
let nvec = 16

let no_f : float array = [||]
let no_i : int array = [||]
(* "not resolved yet": a unique array, since a resolution may be empty
   (every active frame treats the array as scratch) and empty arrays are
   all physically equal *)
let no_fp : Bytes.t array = [| Bytes.empty |]

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

(* [lookup ~global name]: where [name] lives — in the frame of the function
   holding the nest, or (when [global]) among the globals only *)
let prepare (fl : Ir.fast_loop) ~(index_slot : int)
    ~(lookup : global:bool -> string -> (source * Ast.ty) option) : prepared option =
  let ok = ref true in
  let dummy = Slot 0 in
  let var_srcs =
    Array.map
      (fun (v : Ir.var) ->
        match lookup ~global:v.Ir.v_global v.Ir.v_name with
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
        match lookup ~global:a.Ir.a_global a.Ir.a_name with
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
        trip = Array.make nl 0;
        llo = Array.make nl 0;
        lstep = Array.make nl 1;
        tk = Array.make ns 0;
        cntmax = Array.make ns 0;
        dsite = Array.init ns (fun _ -> Array.make nvec 0);
        wvalid = false;
        wtrip = Array.make nl 0;
        wbase = no_i;
        wmax = 0;
        tot = Array.make nvec 0;
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
        carr = Array.map (fun (c : Ir.cursor) -> c.Ir.c_arr) fl.Ir.fl_cursors;
        fpw = Array.make na no_fp;
        fpr = Array.make na no_fp;
        f32 = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout 1;
        called = Array.make (Array.length fl.Ir.fl_calls) false;
        code = [| None; None |];
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

   [nvec]-element vectors: index 0 is steps, 1..15 the counter fields in a
   fixed order (see [apply_totals]).  All cost-walk arithmetic is checked
   against [ccap] so the combination with runtime taken counters below is
   provably exact. *)

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
    c.Ir.k_calls;
  |]

let ivec ~ints ~brs =
  let v = Array.make nvec 0 in
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
  t.Counters.branches <- t.Counters.branches + tot.(14);
  t.Counters.calls <- t.Counters.calls + tot.(15)

(* The exact total over one stretch of the nest: a baseline plus, for
   every site in [sites], its taken count times its delta.  [bound_total]
   is the overflow pre-verification of the same sum — the baseline and
   the sites' maximum counts, in absolute value, all checked — so the
   unchecked arithmetic of [add_taken] after commit cannot wrap. *)
let bound_total p (base : int array) (sites : int array) =
  for i = 0 to nvec - 1 do
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
        for i = 0 to nvec - 1 do
          tot.(i) <- tot.(i) + (tks * d.(i))
        done
      end)
    sites

let oob p (a : int) (idx : int) (loc : Loc.t) =
  runtime_error loc "array %s: index %d out of bounds [0,%d)" p.aname.(a) idx
    p.alen.(a)

(* ---- region footprints ----

   The walker marks every access into each active frame's bitsets for the
   accessed base ([Interp_rt.mark_read]/[mark_write]), except in frames
   for which the base is scratch.  Here the bitsets are resolved once per
   array per nest entry, at its first access, so frames gain footprint
   entries in the walker's first-touch order and arrays the entry never
   touches get none.  The frames stay the same for the whole nest, so
   which of them treat an array as scratch does too. *)

let resolve_fp p st a =
  let base = p.abase.(a) in
  let fps =
    List.filter_map
      (fun fr -> if is_scratch fr base then None else Some (get_footprint st fr base))
      st.active_regions
  in
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

(* ---- closure-threaded execution ----

   On a nest's first commit in a run, its prologue, levels, sites, ops and
   epilogue are compiled into closures, one per op, each ending in a tail
   call of its successor; every later entry of the run runs the same
   closures.  Everything that does not change between entries is resolved
   while compiling — register, cursor, array and site ids, the comparison
   operator, the math function, element precision and the footprint-marking
   mode — so an op costs its own work plus one indirect jump, with no
   dispatch on the opcode.  Ids are validated against the prepared tables
   while compiling (an invalid one bails before commit), which licenses
   unchecked register access; element accesses keep OCaml's bounds check
   behind the guard's proof.  The only runtime checks the source semantics
   demand are checked accesses and integer division by zero.  Memory ops
   mark footprints after the access, in the walker's order, in the
   marking variant only. *)

type code = unit -> unit

let ret : code = fun () -> ()

external ( .%() ) : 'a array -> int -> 'a = "%array_unsafe_get"

external ( .%()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let valid len x = if x < 0 || x >= len then raise (Bail "registers") else x

(* element index of a checked access to array [a] at index register [i]:
   the walker's out-of-bounds error when outside the array *)
let[@inline] checked_index p (n : int array) a i loc =
  let idx = p.aoff.%(a) + n.%(i) in
  if idx < 0 || idx >= p.alen.%(a) then oob p a idx loc;
  idx

let math1 s32 (m : Ir.m1) ~single (f : float array) d a (k : code) : code =
  match m, single with
  | Ir.Msqrt, false -> fun () -> f.%(d) <- sqrt f.%(a); k ()
  | Ir.Msqrt, true -> fun () -> f.%(d) <- demote s32 (sqrt f.%(a)); k ()
  | Ir.Mrsqrt, false -> fun () -> f.%(d) <- 1.0 /. sqrt f.%(a); k ()
  | Ir.Mrsqrt, true -> fun () -> f.%(d) <- demote s32 (1.0 /. sqrt f.%(a)); k ()
  | Ir.Mexp, false -> fun () -> f.%(d) <- exp f.%(a); k ()
  | Ir.Mexp, true -> fun () -> f.%(d) <- demote s32 (exp f.%(a)); k ()
  | Ir.Mlog, false -> fun () -> f.%(d) <- log f.%(a); k ()
  | Ir.Mlog, true -> fun () -> f.%(d) <- demote s32 (log f.%(a)); k ()
  | Ir.Mfabs, false -> fun () -> f.%(d) <- Float.abs f.%(a); k ()
  | Ir.Mfabs, true -> fun () -> f.%(d) <- demote s32 (Float.abs f.%(a)); k ()
  | _, false -> fun () -> f.%(d) <- m1 m f.%(a); k ()
  | _, true -> fun () -> f.%(d) <- demote s32 (m1 m f.%(a)); k ()

let math2 s32 (m : Ir.m2) ~single (f : float array) d a b (k : code) : code =
  match m, single with
  | Ir.Mpow, false -> fun () -> f.%(d) <- Float.pow f.%(a) f.%(b); k ()
  | Ir.Mpow, true -> fun () -> f.%(d) <- demote s32 (Float.pow f.%(a) f.%(b)); k ()
  | _, false -> fun () -> f.%(d) <- m2 m f.%(a) f.%(b); k ()
  | _, true -> fun () -> f.%(d) <- demote s32 (m2 m f.%(a) f.%(b)); k ()

let fcmp (op : Ir.cmpop) (f : float array) (n : int array) d a b (k : code) : code =
  match op with
  | Ir.Clt -> fun () -> n.%(d) <- (if f.%(a) < f.%(b) then 1 else 0); k ()
  | Ir.Cle -> fun () -> n.%(d) <- (if f.%(a) <= f.%(b) then 1 else 0); k ()
  | Ir.Cgt -> fun () -> n.%(d) <- (if f.%(a) > f.%(b) then 1 else 0); k ()
  | Ir.Cge -> fun () -> n.%(d) <- (if f.%(a) >= f.%(b) then 1 else 0); k ()
  | Ir.Ceq -> fun () -> n.%(d) <- (if f.%(a) = f.%(b) then 1 else 0); k ()
  | Ir.Cne -> fun () -> n.%(d) <- (if f.%(a) <> f.%(b) then 1 else 0); k ()

let icmp (op : Ir.cmpop) (n : int array) d a b (k : code) : code =
  match op with
  | Ir.Clt -> fun () -> n.%(d) <- (if n.%(a) < n.%(b) then 1 else 0); k ()
  | Ir.Cle -> fun () -> n.%(d) <- (if n.%(a) <= n.%(b) then 1 else 0); k ()
  | Ir.Cgt -> fun () -> n.%(d) <- (if n.%(a) > n.%(b) then 1 else 0); k ()
  | Ir.Cge -> fun () -> n.%(d) <- (if n.%(a) >= n.%(b) then 1 else 0); k ()
  | Ir.Ceq -> fun () -> n.%(d) <- (if n.%(a) = n.%(b) then 1 else 0); k ()
  | Ir.Cne -> fun () -> n.%(d) <- (if n.%(a) <> n.%(b) then 1 else 0); k ()

(* [op] compiled in front of [k]; [mk]: footprint marking on *)
let op_code p st ~mk (op : Ir.fop) (k : code) : code =
  let f = p.f and n = p.n and s32 = p.f32 in
  let cpos = p.cpos and cf = p.cfdata and ci = p.cidata in
  let af = p.afdata and ai = p.aidata in
  let fr = valid (Array.length f) and ir = valid (Array.length n) in
  let cu = valid (Array.length p.carr) and ar = valid (Array.length p.adem) in
  match op with
  | Ir.FConst (d, x) ->
    let d = fr d in
    fun () -> f.%(d) <- x; k ()
  | Ir.IConst (d, x) ->
    let d = ir d in
    fun () -> n.%(d) <- x; k ()
  | Ir.FMov (d, a) ->
    let d = fr d and a = fr a in
    fun () -> f.%(d) <- f.%(a); k ()
  | Ir.IMov (d, a) ->
    let d = ir d and a = ir a in
    fun () -> n.%(d) <- n.%(a); k ()
  | Ir.ItoF (d, a) ->
    let d = fr d and a = ir a in
    fun () -> f.%(d) <- float_of_int n.%(a); k ()
  | Ir.FtoI (d, a) ->
    let d = ir d and a = fr a in
    fun () -> n.%(d) <- int_of_float f.%(a); k ()
  | Ir.FtoB (d, a) ->
    let d = ir d and a = fr a in
    fun () -> n.%(d) <- (if f.%(a) <> 0.0 then 1 else 0); k ()
  | Ir.ItoB (d, a) ->
    let d = ir d and a = ir a in
    fun () -> n.%(d) <- (if n.%(a) <> 0 then 1 else 0); k ()
  | Ir.FDem (d, a) ->
    let d = fr d and a = fr a in
    fun () -> f.%(d) <- demote s32 f.%(a); k ()
  | Ir.FAdd (d, a, b) ->
    let d = fr d and a = fr a and b = fr b in
    fun () -> f.%(d) <- f.%(a) +. f.%(b); k ()
  | Ir.FSub (d, a, b) ->
    let d = fr d and a = fr a and b = fr b in
    fun () -> f.%(d) <- f.%(a) -. f.%(b); k ()
  | Ir.FMul (d, a, b) ->
    let d = fr d and a = fr a and b = fr b in
    fun () -> f.%(d) <- f.%(a) *. f.%(b); k ()
  | Ir.FDiv (d, a, b) ->
    let d = fr d and a = fr a and b = fr b in
    fun () -> f.%(d) <- f.%(a) /. f.%(b); k ()
  | Ir.FNeg (d, a) ->
    let d = fr d and a = fr a in
    fun () -> f.%(d) <- -.f.%(a); k ()
  | Ir.FAddS (d, a, b) ->
    let d = fr d and a = fr a and b = fr b in
    fun () -> f.%(d) <- demote s32 (f.%(a) +. f.%(b)); k ()
  | Ir.FSubS (d, a, b) ->
    let d = fr d and a = fr a and b = fr b in
    fun () -> f.%(d) <- demote s32 (f.%(a) -. f.%(b)); k ()
  | Ir.FMulS (d, a, b) ->
    let d = fr d and a = fr a and b = fr b in
    fun () -> f.%(d) <- demote s32 (f.%(a) *. f.%(b)); k ()
  | Ir.FDivS (d, a, b) ->
    let d = fr d and a = fr a and b = fr b in
    fun () -> f.%(d) <- demote s32 (f.%(a) /. f.%(b)); k ()
  | Ir.IAdd (d, a, b) ->
    let d = ir d and a = ir a and b = ir b in
    fun () -> n.%(d) <- n.%(a) + n.%(b); k ()
  | Ir.ISub (d, a, b) ->
    let d = ir d and a = ir a and b = ir b in
    fun () -> n.%(d) <- n.%(a) - n.%(b); k ()
  | Ir.IMul (d, a, b) ->
    let d = ir d and a = ir a and b = ir b in
    fun () -> n.%(d) <- n.%(a) * n.%(b); k ()
  | Ir.INeg (d, a) ->
    let d = ir d and a = ir a in
    fun () -> n.%(d) <- -n.%(a); k ()
  | Ir.IDivZ (d, a, b, loc) ->
    let d = ir d and a = ir a and b = ir b in
    fun () ->
      let y = n.%(b) in
      if y = 0 then runtime_error loc "integer division by zero";
      n.%(d) <- n.%(a) / y;
      k ()
  | Ir.IModZ (d, a, b, loc) ->
    let d = ir d and a = ir a and b = ir b in
    fun () ->
      let y = n.%(b) in
      if y = 0 then runtime_error loc "modulo by zero";
      n.%(d) <- n.%(a) mod y;
      k ()
  | Ir.IAbs (d, a) ->
    let d = ir d and a = ir a in
    fun () -> n.%(d) <- abs n.%(a); k ()
  | Ir.IMin (d, a, b) ->
    let d = ir d and a = ir a and b = ir b in
    fun () ->
      let x = n.%(a) and y = n.%(b) in
      n.%(d) <- (if x < y then x else y);
      k ()
  | Ir.IMax (d, a, b) ->
    let d = ir d and a = ir a and b = ir b in
    fun () ->
      let x = n.%(a) and y = n.%(b) in
      n.%(d) <- (if x > y then x else y);
      k ()
  | Ir.ICmp (op, d, a, b) -> icmp op n (ir d) (ir a) (ir b) k
  | Ir.FCmp (op, d, a, b) -> fcmp op f n (ir d) (fr a) (fr b) k
  | Ir.INot (d, a) ->
    let d = ir d and a = ir a in
    fun () -> n.%(d) <- (if n.%(a) <> 0 then 0 else 1); k ()
  | Ir.FMath1 (m, d, a) -> math1 s32 m ~single:false f (fr d) (fr a) k
  | Ir.FMath1S (m, d, a) -> math1 s32 m ~single:true f (fr d) (fr a) k
  | Ir.FMath2 (m, d, a, b) -> math2 s32 m ~single:false f (fr d) (fr a) (fr b) k
  | Ir.FMath2S (m, d, a, b) -> math2 s32 m ~single:true f (fr d) (fr a) (fr b) k
  | Ir.Rand d ->
    let d = fr d in
    let prng = st.prng in
    fun () -> f.%(d) <- Util.Prng.uniform prng; k ()
  | Ir.FLd (d, c) ->
    let d = fr d and c = cu c in
    fun () ->
      f.%(d) <- cf.%(c).(cpos.%(c));
      if mk then mark_cur_rd p st c;
      k ()
  | Ir.FSt (c, s) ->
    let c = cu c and s = fr s in
    fun () ->
      cf.%(c).(cpos.%(c)) <- f.%(s);
      if mk then mark_cur_wr p st c;
      k ()
  | Ir.FStDem (c, s) ->
    let c = cu c and s = fr s in
    fun () ->
      cf.%(c).(cpos.%(c)) <- demote s32 f.%(s);
      if mk then mark_cur_wr p st c;
      k ()
  | Ir.ILd (d, c) ->
    let d = ir d and c = cu c in
    fun () ->
      n.%(d) <- ci.%(c).(cpos.%(c));
      if mk then mark_cur_rd p st c;
      k ()
  | Ir.ISt (c, s) ->
    let c = cu c and s = ir s in
    fun () ->
      ci.%(c).(cpos.%(c)) <- n.%(s);
      if mk then mark_cur_wr p st c;
      k ()
  | Ir.IStB (c, s) ->
    let c = cu c and s = ir s in
    fun () ->
      ci.%(c).(cpos.%(c)) <- (if n.%(s) <> 0 then 1 else 0);
      if mk then mark_cur_wr p st c;
      k ()
  | Ir.FLdCk (d, a, i, loc) ->
    let d = fr d and a = ar a and i = ir i in
    fun () ->
      let idx = checked_index p n a i loc in
      f.%(d) <- af.%(a).(idx);
      if mk then mark_rd p st a idx;
      k ()
  | Ir.FStCk (a, i, s, loc) ->
    let a = ar a and i = ir i and s = fr s in
    if p.adem.(a) then fun () ->
      let idx = checked_index p n a i loc in
      af.%(a).(idx) <- demote s32 f.%(s);
      if mk then mark_wr p st a idx;
      k ()
    else fun () ->
      let idx = checked_index p n a i loc in
      af.%(a).(idx) <- f.%(s);
      if mk then mark_wr p st a idx;
      k ()
  | Ir.ILdCk (d, a, i, loc) ->
    let d = ir d and a = ar a and i = ir i in
    fun () ->
      let idx = checked_index p n a i loc in
      n.%(d) <- ai.%(a).(idx);
      if mk then mark_rd p st a idx;
      k ()
  | Ir.IStCk (a, i, s, loc) ->
    let a = ar a and i = ir i and s = ir s in
    if p.abool.(a) then fun () ->
      let idx = checked_index p n a i loc in
      ai.%(a).(idx) <- (if n.%(s) <> 0 then 1 else 0);
      if mk then mark_wr p st a idx;
      k ()
    else fun () ->
      let idx = checked_index p n a i loc in
      ai.%(a).(idx) <- n.%(s);
      if mk then mark_wr p st a idx;
      k ()
  | Ir.FLdSub (d, c, b) ->
    let d = fr d and c = cu c and b = fr b in
    fun () ->
      f.%(d) <- cf.%(c).(cpos.%(c)) -. f.%(b);
      if mk then mark_cur_rd p st c;
      k ()
  | Ir.FLdSub2 (d, c1, c2) ->
    let d = fr d and c1 = cu c1 and c2 = cu c2 in
    fun () ->
      f.%(d) <- cf.%(c1).(cpos.%(c1)) -. cf.%(c2).(cpos.%(c2));
      if mk then begin
        mark_cur_rd p st c1;
        mark_cur_rd p st c2
      end;
      k ()
  | Ir.FLdMul (d, c, b) ->
    let d = fr d and c = cu c and b = fr b in
    fun () ->
      f.%(d) <- cf.%(c).(cpos.%(c)) *. f.%(b);
      if mk then mark_cur_rd p st c;
      k ()
  | Ir.FLdAdd (d, c, b) ->
    let d = fr d and c = cu c and b = fr b in
    fun () ->
      f.%(d) <- cf.%(c).(cpos.%(c)) +. f.%(b);
      if mk then mark_cur_rd p st c;
      k ()
  | Ir.FMulAdd (d, a, b, c) ->
    let d = fr d and a = fr a and b = fr b and c = fr c in
    fun () -> f.%(d) <- (f.%(a) *. f.%(b)) +. f.%(c); k ()
  | Ir.FAddMul (d, c, a, b) ->
    let d = fr d and a = fr a and b = fr b and c = fr c in
    fun () -> f.%(d) <- f.%(c) +. (f.%(a) *. f.%(b)); k ()
  | Ir.FSubMul (d, c, a, b) ->
    let d = fr d and a = fr a and b = fr b and c = fr c in
    fun () -> f.%(d) <- f.%(c) -. (f.%(a) *. f.%(b)); k ()
  | Ir.FRecip (d, a) ->
    let d = fr d and a = fr a in
    fun () -> f.%(d) <- 1.0 /. f.%(a); k ()
  | Ir.FRsqrt (d, a) ->
    let d = fr d and a = fr a in
    fun () -> f.%(d) <- 1.0 /. sqrt f.%(a); k ()
  | Ir.FAccSt (c, s) ->
    let c = cu c and s = fr s in
    fun () ->
      let q = cf.%(c) and i = cpos.%(c) in
      q.(i) <- q.(i) +. f.%(s);
      if mk then begin
        mark_cur_rd p st c;
        mark_cur_wr p st c
      end;
      k ()
  | Ir.FMulAccSt (c, a, b) ->
    let c = cu c and a = fr a and b = fr b in
    fun () ->
      let q = cf.%(c) and i = cpos.%(c) in
      q.(i) <- q.(i) +. (f.%(a) *. f.%(b));
      if mk then begin
        mark_cur_rd p st c;
        mark_cur_wr p st c
      end;
      k ()
  | Ir.FLdSubS (d, c, b) ->
    let d = fr d and c = cu c and b = fr b in
    fun () ->
      f.%(d) <- demote s32 (cf.%(c).(cpos.%(c)) -. f.%(b));
      if mk then mark_cur_rd p st c;
      k ()
  | Ir.FLdSub2S (d, c1, c2) ->
    let d = fr d and c1 = cu c1 and c2 = cu c2 in
    fun () ->
      f.%(d) <- demote s32 (cf.%(c1).(cpos.%(c1)) -. cf.%(c2).(cpos.%(c2)));
      if mk then begin
        mark_cur_rd p st c1;
        mark_cur_rd p st c2
      end;
      k ()
  | Ir.FLdMulS (d, c, b) ->
    let d = fr d and c = cu c and b = fr b in
    fun () ->
      f.%(d) <- demote s32 (cf.%(c).(cpos.%(c)) *. f.%(b));
      if mk then mark_cur_rd p st c;
      k ()
  | Ir.FLdAddS (d, c, b) ->
    let d = fr d and c = cu c and b = fr b in
    fun () ->
      f.%(d) <- demote s32 (cf.%(c).(cpos.%(c)) +. f.%(b));
      if mk then mark_cur_rd p st c;
      k ()
  | Ir.FMulAddS (d, a, b, c) ->
    let d = fr d and a = fr a and b = fr b and c = fr c in
    fun () -> f.%(d) <- demote s32 (demote s32 (f.%(a) *. f.%(b)) +. f.%(c)); k ()
  | Ir.FAddMulS (d, c, a, b) ->
    let d = fr d and a = fr a and b = fr b and c = fr c in
    fun () -> f.%(d) <- demote s32 (f.%(c) +. demote s32 (f.%(a) *. f.%(b))); k ()
  | Ir.FSubMulS (d, c, a, b) ->
    let d = fr d and a = fr a and b = fr b and c = fr c in
    fun () -> f.%(d) <- demote s32 (f.%(c) -. demote s32 (f.%(a) *. f.%(b))); k ()
  | Ir.Called j ->
    let j = valid (Array.length p.called) j in
    if st.cfg.trace_aliases then
      let called = p.called in
      fun () -> called.%(j) <- true; k ()
    else k

let ops_code p st ~mk (ops : Ir.fop array) (k : code) : code =
  Array.fold_right (op_code p st ~mk) ops k

(* A block runs its items in order and then [k]; a site's arms both
   continue into [k].  A level enters its cursors, runs its body once per
   iteration with the index register refreshed and the cursors bumped,
   then nets its cursor contribution out so re-entries (inner levels run
   once per enclosing iteration) start from the enclosing position.  Under
   loop profiling an inner level also counts its entries and notes the
   order levels are first entered in. *)
let rec block_code p st ~mk ~prof (b : Ir.block) (k : code) : code =
  Array.fold_right (item_code p st ~mk ~prof) b.Ir.b_items k

and item_code p st ~mk ~prof (it : Ir.bitem) (k : code) : code =
  match it with
  | Ir.Bops ops -> ops_code p st ~mk ops k
  | Ir.Bsite sid ->
    let s = p.fl.Ir.fl_sites.(valid (Array.length p.fl.Ir.fl_sites) sid) in
    let c = valid (Array.length p.n) s.Ir.s_cond in
    let n = p.n and tk = p.tk in
    let kt = block_code p st ~mk ~prof s.Ir.s_then k in
    let ke = block_code p st ~mk ~prof s.Ir.s_else k in
    fun () ->
      if n.%(c) <> 0 then begin
        tk.%(sid) <- tk.%(sid) + 1;
        kt ()
      end
      else ke ()
  | Ir.Bloop lid -> level_code p st ~mk ~prof lid k

and level_code p st ~mk ~prof lid (k : code) : code =
  let lv = p.fl.Ir.fl_levels.(valid (Array.length p.fl.Ir.fl_levels) lid) in
  let body = block_code p st ~mk ~prof lv.Ir.l_body ret in
  let n = p.n and cpos = p.cpos in
  let cs = p.lev_cur.(lid) in
  let en = p.enter_d.(lid) and sd = p.step_d.(lid) and ex = p.exit_d.(lid) in
  let ncs = Array.length cs in
  let trip = p.trip and llo = p.llo and lstep = p.lstep in
  let ireg = p.iregs.(lid) in
  if ireg >= 0 then ignore (valid (Array.length n) ireg);
  let count = prof && lid > 0 in
  let lent = p.lent and lord = p.lord in
  fun () ->
    if count then begin
      let e = lent.%(lid) in
      if e = 0 then begin
        lord.(p.nord) <- lid;
        p.nord <- p.nord + 1
      end;
      lent.%(lid) <- e + 1
    end;
    for j = 0 to ncs - 1 do
      let c = cs.%(j) in
      cpos.%(c) <- cpos.%(c) + en.%(j)
    done;
    let step = lstep.%(lid) in
    let i = ref llo.%(lid) in
    for _ = 1 to trip.%(lid) do
      if ireg >= 0 then n.%(ireg) <- !i;
      body ();
      for j = 0 to ncs - 1 do
        let c = cs.%(j) in
        cpos.%(c) <- cpos.%(c) + sd.%(j)
      done;
      i := !i + step
    done;
    for j = 0 to ncs - 1 do
      let c = cs.%(j) in
      cpos.%(c) <- cpos.%(c) - ex.%(j)
    done;
    k ()

(* The whole nest, prologue to epilogue, in marking mode [mk]; compiled on
   the mode's first commit in the run. *)
let nest_code p st ~mk ~prof =
  let slot = if mk then 1 else 0 in
  match p.code.(slot) with
  | Some c -> c
  | None ->
    let fl = p.fl in
    let c =
      ops_code p st ~mk fl.Ir.fl_prologue
        (level_code p st ~mk ~prof 0 (ops_code p st ~mk fl.Ir.fl_epilogue ret))
    in
    p.code.(slot) <- Some c;
    c

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
      let tot = p.tot and v = p.lvec.(l) in
      for i = 0 to nvec - 1 do
        tot.(i) <- e * v.(i)
      done;
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
     It depends only on the plan and the trip counts, so an entry with
     the trip counts of the last completed walk reuses it; a walk is
     marked valid only once 3b has passed, so a bail partway through
     leaves no half-written walk behind.  The budget must survive the
     statically largest possible total, checked on every entry;
     otherwise the slow path runs and raises Step_limit_exceeded at the
     exact offending statement. *)
  if p.wvalid && Array.for_all2 Int.equal p.trip p.wtrip then begin
    if st.steps_left <= p.wmax then raise (Bail "budget")
  end
  else begin
    p.wvalid <- false;
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
    Array.blit p.trip 0 p.wtrip 0 nl;
    p.wbase <- base_v;
    p.wmax <- !max_steps;
    p.wvalid <- true
  end;
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
  (* 6. the nest's closures for this run and marking mode (compiled on
     first use; an invalid register or id in the plan bails here) *)
  let code = nest_code p st ~mk:marking ~prof in
  (* ---- commit: from here on the fast path runs the nest to the end ---- *)
  Array.fill p.tk 0 (Array.length p.tk) 0;
  if prof then begin
    Array.fill p.lent 0 nl 0;
    p.nord <- 0
  end;
  if marking then begin
    Array.fill p.fpw 0 (Array.length p.fpw) no_fp;
    Array.fill p.fpr 0 (Array.length p.fpr) no_fp
  end;
  let tracing = st.cfg.trace_aliases in
  if tracing then Array.fill p.called 0 (Array.length p.called) false;
  code ();
  (* exact totals: baseline plus taken deltas; the overflow
     pre-verification above guarantees none of this unchecked arithmetic
     can wrap, and the budget pre-check that consume_steps cannot raise *)
  let tot = p.tot in
  Array.blit p.wbase 0 tot 0 nvec;
  add_taken p tot p.lsites.(0);
  if tot.(0) > 0 then consume_steps st tot.(0);
  apply_totals st.counters tot;
  let dp = Domain.DLS.get domain_planned in
  dp := !dp + tot.(0);
  acc.la_iterations <- acc.la_iterations + p.trip.(0);
  if prof then account_levels p st;
  (* alias tracing: the walker notes every call of an inlined callee; its
     pointer arguments are arrays of the nest, whose bases are fixed for
     the entry, so one note per call site that ran gives the same verdict.
     Sites are noted in program order, which is the callees' first-call
     order (the lowering makes sure of it when there are two or more) *)
  if tracing then
    Array.iteri
      (fun j (k : Ir.call) ->
        if p.called.(j) then
          note_alias_bases st k.Ir.k_func
            (Array.fold_right (fun a acc -> p.abase.(a) :: acc) k.Ir.k_ptrs []))
      fl.Ir.fl_calls;
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
