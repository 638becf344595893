(* Guarded executor for {!Ir.fast_loop}: the superinstruction VM's hot
   path.  The walker offers every [For] of a planned statement once the
   root index cell holds its lo bound ([runner]); [try_run] binds the
   nest's external names to the walker's cells and either executes the
   whole nest here —
   unboxed register files, the nest's ops compiled once per run into
   threaded closures, batched step/counter accounting with per-site taken
   counters from a cost walk on every entry, bounds checks verified once
   at the endpoints of every level — or returns [false] without any
   observable effect, in which case the walker runs the loop itself.

   Profiled runs stay on this path too.  Under [profile_loops] the inner
   levels' [loop_stats] are derived at commit from per-level entry counts,
   the per-entry trip counts and the per-site taken counters, exactly as
   the totals are; under active observation regions, arrays whose marks
   cannot depend on the order of the accesses are marked in bulk at commit
   and every other access marks the frames' read-before-write/written
   footprints in program order.

   Soundness discipline: everything before "commit" below is read-only on
   interpreter state (it only scribbles on [prepared] scratch), so bailing
   out at any point — including via the [Failure] raised by dangling
   pointers inside [Memory] accessors — leaves the walker to run the loop
   exactly as it would have.  After commit the nest runs to completion;
   the only exceptions it can raise ([Runtime_error] from checked accesses,
   checked cursors and division by zero) are raised at the exact point the
   walker would raise them, with identical memory, output, and PRNG state
   (counters are added after the run, but counter state is unobservable on
   aborted runs — only the raise identity is).  The step budget is
   pre-checked against the statically largest possible total, so the
   post-run step charge can never exhaust it.  Arrays the nest declares are
   allocated after commit, by each execution of their declaration, so the
   walker's allocation order and memory image are kept.

   At [--jobs] > 1 a committed nest whose root iterations the guard proves
   independent runs its root level as chunks on the pool ([run_split]);
   the merged state is the serial commit's, so nothing above changes. *)

open Interp_rt

(* A prepared nest lives for one run ([runner]), so the run's state and
   config are fixed for its lifetime. *)
type prepared = {
  fl : Ir.fast_loop;
  (* per entry, the walker's cells of the external scalars, per fl_vars
     entry *)
  vcell : Value.t ref array;
  (* register files and per-entry scratch, reused across entries *)
  f : float array;
  n : int array;
  (* nest shape caches *)
  iregs : int array;  (* per level: index register or -1 *)
  (* per level (static): its bounds read enclosing indexes
     ([Ir.level]), some level's bounds read its index (the cost walk runs
     its iterations one by one), and the site whose arm it sits in (-1:
     the root body) *)
  lnr : bool array;
  lenum : bool array;
  lparent : int array;
  (* per-entry level scratch: trip count (the root's: the iterations the
     clamp keeps), lo (for a level whose bounds read indexes: the
     invariant part of lo, and its per-level coefficients), step; and
     over all its entries: the largest trip, the first index of the
     lowest and the last of the highest entry that runs, and the largest
     magnitude its index reaches, one bump past the end included *)
  trip : int array;
  llo : int array;
  lcoef : int array array;
  lstep : int array;
  tmax : int array;
  ilo : int array;
  ihi : int array;
  imag : int array;
  mutable full : int;  (* the root's trip count without the clamp *)
  env : int array;  (* per level: an index value, for the walks below *)
  (* per-site scratch: taken counter, max executions, cost delta vector;
     for the cost walk, executions per execution of the arm (or the root
     body) around it, whether its arms were walked, and its else arm's
     cost; static, the site whose arm it sits in and the sites outermost
     first *)
  tk : int array;
  cntmax : int array;
  dsite : Counters.t array;
  ncnt : int array;
  sdone : bool array;
  selse : Counters.t array;
  sparent : int array;
  sorder : int array;
  (* the entry's cost walk (guard phases 3 and 3b) fills the per-site
     arrays above and [lvec], [lnent], [lnit] and [lmult] below; [wbase]
     is the nest's else-baseline total; [tot] is commit scratch *)
  mutable wbase : Counters.t;
  tot : Counters.t;
  (* per-array resolution: base id, pointer offset, length, name, raw data *)
  abase : int array;
  aoff : int array;
  alen : int array;
  aname : string array;
  afdata : float array array;
  aidata : int array array;
  adem : bool array;  (* element type is float32: stores demote *)
  abool : bool array;  (* element type is bool: stores normalise *)
  acur : int array array;  (* per declared array: its cursors *)
  (* per-cursor position, per-level coefficient values, resolved data;
     the cursor's position as [cbase + sum_m cexp.(m) * u_m] over each
     level's offset [u_m = i_m - lo_m], and per level its index so
     written ([expand]) *)
  cpos : int array;
  ccoef : int array array;
  cbase : int array;
  cexp : int array array;
  xb : int array;
  xa : int array array;
  cfdata : float array array;
  cidata : int array array;
  (* per level: cursors with a statically nonzero coefficient there, and
     their per-entry enter/step/exit position deltas *)
  lev_cur : int array array;
  enter_d : int array array;
  step_d : int array array;
  exit_d : int array array;
  (* per level, the sites inside it (static); for loop profiling, per
     execution of the arm (or root body) around it: its entries,
     iterations and else-baseline cost (iterations and final tests), and
     the most executions that arm can have (per nest entry, from the cost
     walk), then the entries this run made and the order levels were
     first entered in *)
  lsites : int array array;
  lnent : int array;
  lnit : int array;
  lvec : Counters.t array;
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
  (* bulk marking (static, see [footprint_plan]): per array, whether its
     marks land at commit, whether the nest loads it ([a_stored]: stores
     it), and a bulk array's distinct (cursor, enclosing levels) images;
     per cursor, its entry position *)
  bulk : bool array;
  aload : bool array;
  bimg : (int * int array) list array;
  cpos0 : int array;
  (* per cursor: its accesses may be checked one by one (every one of
     them lies in a site arm), and this entry checks them (its endpoints
     fall outside the array) *)
  ckok : bool array;
  cck : bool array;
  called : bool array;  (* per inlined call site: ran this entry (alias tracing) *)
  (* the nest compiled to closures, per footprint-marking mode (off, on)
     and cursor-checking mode (off, on) *)
  code : (unit -> unit) option array;
  (* parallel root chunks (see [run_split]): the static half of the split
     rules ([split_ok]; the arrays loaded by checked accesses; the
     declared arrays; per level, whether its subtree declares one), the
     arrays the nest accesses, whether this is a chunk instance and
     whether it may resolve footprints, per declared array the arrays
     allocated before the chunks start ([palloc], in the walker's order,
     shared with the chunk instances), where each root iteration's
     start, and the position of a chunk instance's next [Alloc]; the
     chunk instances, made on the first split of the run; and the call
     sites of the root body's own ops (a clamped root's skipped
     iterations make those calls) *)
  split_ok : bool;
  ck_loads : int array;
  allocs : int array;
  lalloc : bool array;
  touched : int array;
  chunk : bool;
  mutable resolve : bool;
  palloc : (int * Memory.raw) array array;
  astart : int array array;
  anext : int array;
  mutable chunks : prepared array;
  pcalls : int array;
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

let planned_on_domain () = !(Domain.DLS.get domain_planned)

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
(* "not resolved yet": a unique array, since a resolution may be empty
   (every active frame treats the array as scratch) and empty arrays are
   all physically equal *)
let no_fp : Bytes.t array = [| Bytes.empty |]

(* resolved to no frame at all: arrays scratch in every active frame *)
let no_marks : Bytes.t array = [||]

(* ---- the nest's shape ---- *)

(* the root guard's site ([Ir.clamp]), or -1: its then arm runs on every
   root iteration the executor runs, so it is no arm to the rules below *)
let clamp_site (fl : Ir.fast_loop) =
  match fl.Ir.fl_clamp with Some k -> k.Ir.k_site | None -> -1

(* the levels a level's bounds read *)
let bound_reads (lv : Ir.level) =
  let acc = ref (Ir.levels_read lv.Ir.l_hi) in
  Array.iteri (fun m e -> if e <> Ir.Iconst 0 then acc := m :: !acc) lv.Ir.l_lo_coefs;
  !acc

(* ---- bulk footprint marking: the static half ----

   An array's footprint marks can wait for commit when every access to it
   is a cursor access on the nest's unconditional path (outside any site
   arm) and the nest only loads it or only stores it.  Each such access
   then runs once for every combination of its enclosing levels' indices
   whenever all of them run, so the elements it touches are its cursor's
   image over those levels, and the
   marks cannot depend on the order of the accesses ([mark_bulk]).  A
   read-modify-write accumulation counts as a load and a store; a checked
   access, and an access under a level whose bounds read indexes (its
   image has no fixed trip count), keep the array per access. *)

(* [cur c ~ld] per cursor access and [ck a ~ld] per checked access of
   [op], [ld] for a load (an accumulation is a load and a store) *)
let iter_accesses (op : Ir.fop) ~(cur : int -> ld:bool -> unit)
    ~(ck : int -> ld:bool -> unit) =
  match op with
  | Ir.FLd (_, c) | Ir.ILd (_, c) | Ir.FLdSub (_, c, _) | Ir.FLdMul (_, c, _)
  | Ir.FLdMulS (_, c, _) | Ir.FLdAddS (_, c, _) | Ir.FAccSt (c, _)
  | Ir.FMulAccSt (c, _, _) ->
    cur c ~ld:true
  | Ir.FLdSub2 (_, c1, c2) | Ir.FLdSub2S (_, c1, c2) ->
    cur c1 ~ld:true;
    cur c2 ~ld:true
  | Ir.FSt (c, _) | Ir.FStDem (c, _) | Ir.ISt (c, _) | Ir.IStB (c, _) -> cur c ~ld:false
  | Ir.FLdCk (_, a, _, _) | Ir.ILdCk (_, a, _, _) -> ck a ~ld:true
  | Ir.FStCk (a, _, _, _) | Ir.IStCk (a, _, _, _) -> ck a ~ld:false
  | Ir.FConst _ | Ir.IConst _ | Ir.FMov _ | Ir.IMov _ | Ir.ItoF _ | Ir.FtoI _
  | Ir.FtoB _ | Ir.ItoB _ | Ir.FDem _ | Ir.FAdd _ | Ir.FSub _ | Ir.FMul _
  | Ir.FDiv _ | Ir.FNeg _ | Ir.FAddS _ | Ir.FSubS _ | Ir.FMulS _ | Ir.FDivS _
  | Ir.IAdd _ | Ir.ISub _ | Ir.IMul _ | Ir.INeg _ | Ir.IDivZ _ | Ir.IModZ _
  | Ir.IAbs _ | Ir.IMin _ | Ir.IMax _ | Ir.ICmp _ | Ir.FCmp _ | Ir.INot _
  | Ir.FMath1 _ | Ir.FMath1S _ | Ir.FMath2 _ | Ir.FMath2S _ | Ir.Rand _
  | Ir.FAddMul _ | Ir.FSubMul _ | Ir.FRecip _ | Ir.FRsqrt _ | Ir.FAddMulS _
  | Ir.FSubMulS _ | Ir.Alloc _ | Ir.Called _ ->
    ()

(* Per array: bulk-marked, loaded, and (bulk arrays only) the
   distinct (cursor, enclosing levels outermost first) pairs of its
   accesses.  A cursor that moves with a level not enclosing one of its
   accesses (none does: a level's index is only in scope inside it)
   keeps its array per access.  Ids are validated when the nest
   compiles, so bad ones are skipped here. *)
let footprint_plan (fl : Ir.fast_loop) =
  let na = Array.length fl.Ir.fl_arrs and nc = Array.length fl.Ir.fl_cursors in
  let ld = Array.make na false in
  let ok = Array.make na true and imgs = Array.make na [] in
  let scan ~chain ~armed ops =
    Array.iter
      (fun op ->
        iter_accesses op
          ~cur:(fun c ~ld:l ->
            if c < nc && fl.Ir.fl_cursors.(c).Ir.c_arr < na then begin
              let cu = fl.Ir.fl_cursors.(c) in
              let a = cu.Ir.c_arr in
              if l then ld.(a) <- true;
              let moves_outside = ref false in
              Array.iteri
                (fun lv e ->
                  if e <> Ir.Iconst 0 && not (List.mem lv chain) then moves_outside := true)
                cu.Ir.c_coefs;
              if armed || !moves_outside
                 || List.exists (fun l -> bound_reads fl.Ir.fl_levels.(l) <> []) chain
              then ok.(a) <- false
              else if not (List.mem (c, chain) imgs.(a)) then
                imgs.(a) <- (c, chain) :: imgs.(a)
            end)
          ~ck:(fun a ~ld:l ->
            if a < na then begin
              if l then ld.(a) <- true;
              ok.(a) <- false
            end))
      ops
  in
  let rec block ~chain ~armed (b : Ir.block) =
    Array.iter
      (function
        | Ir.Bops ops -> scan ~chain ~armed ops
        | Ir.Bsite sid ->
          let s = fl.Ir.fl_sites.(sid) in
          block ~chain ~armed:(armed || sid <> clamp_site fl) s.Ir.s_then;
          block ~chain ~armed:true s.Ir.s_else
        | Ir.Bloop lid ->
          block ~chain:(lid :: chain) ~armed fl.Ir.fl_levels.(lid).Ir.l_body)
      b.Ir.b_items
  in
  block ~chain:[ 0 ] ~armed:false fl.Ir.fl_levels.(0).Ir.l_body;
  (* an array the nest declares has no base before its [Alloc], so the
     guard's role check cannot see it: it marks per access (into no frame,
     as scratch to all of them) *)
  let bulk =
    Array.init na (fun a ->
        let arr = fl.Ir.fl_arrs.(a) in
        ok.(a) && ld.(a) <> arr.Ir.a_stored && arr.Ir.a_size = None)
  in
  let bimg =
    Array.init na (fun a ->
        if bulk.(a) then
          List.rev_map (fun (c, chain) -> (c, Array.of_list (List.rev chain))) imgs.(a)
        else [])
  in
  (bulk, ld, bimg)

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

(* The static half of the split rules ([split_chunks] checks the rest per
   entry): no PRNG draw, whose stream order is the iteration order; no
   checked store, whose index the guard cannot bound; no written external
   scalar, so no value crosses root iterations through a register
   (scalar reductions, floating-point ones included, stay serial); and
   no array declared in a site arm, so every declaration runs a fixed
   number of times per root iteration and its arrays can be allocated in
   the walker's order before the chunks start.  A declared array is
   private to the root iteration that declares it: its name is in scope
   only inside that iteration.  Returns the verdict, the arrays loaded by
   checked accesses and the declared arrays. *)
let split_plan (fl : Ir.fast_loop) =
  let ok = ref (Array.for_all (fun (v : Ir.var) -> not v.Ir.v_written) fl.Ir.fl_vars) in
  let ck_loads = ref [] and allocs = ref [] in
  let scan ~armed ops =
    Array.iter
      (fun (op : Ir.fop) ->
        match op with
        | Ir.Rand _ | Ir.FStCk _ | Ir.IStCk _ -> ok := false
        | Ir.FLdCk (_, a, _, _) | Ir.ILdCk (_, a, _, _) ->
          if not (List.mem a !ck_loads) then ck_loads := a :: !ck_loads
        | Ir.Alloc a -> if armed then ok := false else allocs := a :: !allocs
        | _ -> ())
      ops
  in
  let rec block ~armed (b : Ir.block) =
    Array.iter
      (function
        | Ir.Bops ops -> scan ~armed ops
        | Ir.Bsite sid ->
          let s = fl.Ir.fl_sites.(sid) in
          block ~armed:(armed || sid <> clamp_site fl) s.Ir.s_then;
          block ~armed:true s.Ir.s_else
        | Ir.Bloop lid -> block ~armed fl.Ir.fl_levels.(lid).Ir.l_body)
      b.Ir.b_items
  in
  block ~armed:false fl.Ir.fl_levels.(0).Ir.l_body;
  (!ok, Array.of_list !ck_loads, Array.of_list (List.rev !allocs))

let no_cell = ref (Value.Vint 0)

(* Per level: the site whose arm holds it (-1: the root body) and
   whether its subtree declares an array; per site, the same parent; the
   sites outermost first; the arrays the nest's blocks access (the nest's
   own declared arrays aside); the call sites of the root body's ops.
   Ids are validated when the nest compiles, so bad ones are skipped. *)
let tree_shape (fl : Ir.fast_loop) =
  let nl = Array.length fl.Ir.fl_levels and ns = Array.length fl.Ir.fl_sites in
  let na = Array.length fl.Ir.fl_arrs in
  let lparent = Array.make nl (-1) and lalloc = Array.make nl false in
  let sparent = Array.make (max ns 1) (-1) in
  let sorder = ref [] and touched = Array.make na false and pcalls = ref [] in
  let touch a = if a >= 0 && a < na && fl.Ir.fl_arrs.(a).Ir.a_size = None then touched.(a) <- true in
  let rec block ~par ~lvls ~root (b : Ir.block) =
    Array.iter
      (function
        | Ir.Bops ops ->
          Array.iter
            (fun op ->
              (match op with
               | Ir.Alloc _ -> List.iter (fun l -> lalloc.(l) <- true) lvls
               | Ir.Called j -> if root then pcalls := j :: !pcalls
               | _ -> ());
              iter_accesses op
                ~cur:(fun c ~ld:_ ->
                  if c < Array.length fl.Ir.fl_cursors then touch fl.Ir.fl_cursors.(c).Ir.c_arr)
                ~ck:(fun a ~ld:_ -> touch a))
            ops
        | Ir.Bsite sid when sid < ns ->
          sparent.(sid) <- par;
          sorder := sid :: !sorder;
          let st = fl.Ir.fl_sites.(sid) in
          block ~par:sid ~lvls ~root:false st.Ir.s_then;
          block ~par:sid ~lvls ~root:false st.Ir.s_else
        | Ir.Bloop lid when lid < nl ->
          lparent.(lid) <- par;
          block ~par ~lvls:(lid :: lvls) ~root:false fl.Ir.fl_levels.(lid).Ir.l_body
        | Ir.Bsite _ | Ir.Bloop _ -> ())
      b.Ir.b_items
  in
  block ~par:(-1) ~lvls:[ 0 ] ~root:true fl.Ir.fl_levels.(0).Ir.l_body;
  let touched = List.filter (fun a -> touched.(a)) (List.init na Fun.id) in
  ( lparent,
    lalloc,
    sparent,
    Array.of_list (List.rev !sorder),
    Array.of_list touched,
    Array.of_list !pcalls )

let prepare (fl : Ir.fast_loop) : prepared =
  let nl = Array.length fl.Ir.fl_levels in
  let ns = max 1 (Array.length fl.Ir.fl_sites) in
  let na = max 1 (Array.length fl.Ir.fl_arrs) in
  let nc = max 1 (Array.length fl.Ir.fl_cursors) in
  let bulk, aload, bimg = footprint_plan fl in
  let split_ok, ck_loads, allocs = split_plan fl in
  let reads = Array.map bound_reads fl.Ir.fl_levels in
  let lnr = Array.map (fun r -> r <> []) reads in
  let lenum = Array.make nl false in
  Array.iter (List.iter (fun m -> if m < nl then lenum.(m) <- true)) reads;
  let lparent, lalloc, sparent, sorder, touched, pcalls = tree_shape fl in
  let lev_cur =
    Array.init nl (fun l ->
        let ids = ref [] in
        Array.iteri
          (fun k (c : Ir.cursor) ->
            if c.Ir.c_coefs.(l) <> Ir.Iconst 0 then ids := k :: !ids)
          fl.Ir.fl_cursors;
        Array.of_list (List.rev !ids))
  in
  {
    fl;
    vcell = Array.make (Array.length fl.Ir.fl_vars) no_cell;
    f = Array.make (max 1 fl.Ir.fl_nf) 0.0;
    n = Array.make (max 1 fl.Ir.fl_ni) 0;
    iregs =
      Array.map
        (fun (l : Ir.level) ->
          match l.Ir.l_index_reg with Some r -> r | None -> -1)
        fl.Ir.fl_levels;
    lnr;
    lenum;
    lparent;
    trip = Array.make nl 0;
    llo = Array.make nl 0;
    lcoef = Array.init nl (fun _ -> Array.make nl 0);
    lstep = Array.make nl 1;
    tmax = Array.make nl 0;
    ilo = Array.make nl 0;
    ihi = Array.make nl 0;
    imag = Array.make nl 0;
    full = 0;
    env = Array.make nl 0;
    tk = Array.make ns 0;
    cntmax = Array.make ns 0;
    dsite = Array.init ns (fun _ -> Counters.create ());
    ncnt = Array.make ns 0;
    sdone = Array.make ns false;
    selse = Array.make ns no_i;
    sparent;
    sorder;
    wbase = no_i;
    tot = Counters.create ();
    abase = Array.make na (-1);
    aoff = Array.make na 0;
    alen = Array.make na 0;
    aname = Array.make na "";
    afdata = Array.make na no_f;
    aidata = Array.make na no_i;
    adem = Array.map (fun (a : Ir.arr) -> a.Ir.a_ety = Ir.Efloat32) fl.Ir.fl_arrs;
    abool = Array.map (fun (a : Ir.arr) -> a.Ir.a_ety = Ir.Ebool) fl.Ir.fl_arrs;
    acur =
      Array.init na (fun a ->
          let cs = ref [] in
          Array.iteri
            (fun k (c : Ir.cursor) -> if c.Ir.c_arr = a then cs := k :: !cs)
            fl.Ir.fl_cursors;
          Array.of_list !cs);
    cpos = Array.make nc 0;
    ccoef = Array.init nc (fun _ -> Array.make nl 0);
    cbase = Array.make nc 0;
    cexp = Array.init nc (fun _ -> Array.make nl 0);
    xb = Array.make nl 0;
    xa = Array.init nl (fun _ -> Array.make nl 0);
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
    lnent = Array.make nl 0;
    lnit = Array.make nl 0;
    lvec = Array.init nl (fun _ -> Counters.create ());
    lmult = Array.make nl 0;
    lent = Array.make nl 0;
    lord = Array.make nl 0;
    nord = 0;
    carr = Array.map (fun (c : Ir.cursor) -> c.Ir.c_arr) fl.Ir.fl_cursors;
    fpw = Array.make na no_fp;
    fpr = Array.make na no_fp;
    bulk;
    aload;
    bimg;
    cpos0 = Array.make nc 0;
    ckok =
      Array.init nc (fun k ->
          k < Array.length fl.Ir.fl_cursors && fl.Ir.fl_cursors.(k).Ir.c_arm <> None);
    cck = Array.make nc false;
    called = Array.make (Array.length fl.Ir.fl_calls) false;
    code = Array.make 4 None;
    split_ok;
    ck_loads;
    allocs;
    lalloc;
    touched;
    chunk = false;
    resolve = true;
    palloc = Array.make na [||];
    astart = Array.make na [||];
    anext = Array.make na 0;
    chunks = [||];
    pcalls;
  }

(* A chunk instance of [p]: private register files, scratch that the
   nest's closures write (cursor positions and data, declared arrays'
   storage, taken and entry counters, call flags, the root level's trip
   count, lo bound and cursor deltas), and its own closures; the rest —
   the plan, the guard's per-entry results and the footprint bitsets —
   is [p]'s. *)
let chunk_instance p =
  let enter_d = Array.copy p.enter_d and exit_d = Array.copy p.exit_d in
  enter_d.(0) <- Array.copy p.enter_d.(0);
  exit_d.(0) <- Array.copy p.exit_d.(0);
  {
    p with
    f = Array.copy p.f;
    n = Array.copy p.n;
    trip = Array.copy p.trip;
    llo = Array.copy p.llo;
    tk = Array.copy p.tk;
    abase = Array.copy p.abase;
    afdata = Array.copy p.afdata;
    aidata = Array.copy p.aidata;
    cpos = Array.copy p.cpos;
    cfdata = Array.copy p.cfdata;
    cidata = Array.copy p.cidata;
    enter_d;
    exit_d;
    lent = Array.copy p.lent;
    lord = Array.copy p.lord;
    nord = 0;
    called = Array.copy p.called;
    code = Array.make 4 None;
    chunk = true;
    resolve = false;
    anext = Array.copy p.anext;
    chunks = [||];
  }

(* Integer expressions, with [lev l] the current index of level [l];
   [Ivar] indexes the var table and is guaranteed int-kinded and
   unwritten by the lowering.  Native int arithmetic, as the walker's. *)
let rec ieval p ~lev (e : Ir.iexpr) : int =
  match e with
  | Ir.Iconst k -> k
  | Ir.Ivar v -> p.n.(p.fl.Ir.fl_vars.(v).Ir.v_reg)
  | Ir.Iadd (a, b) -> ieval p ~lev a + ieval p ~lev b
  | Ir.Isub (a, b) -> ieval p ~lev a - ieval p ~lev b
  | Ir.Imul (a, b) -> ieval p ~lev a * ieval p ~lev b
  | Ir.Ineg a -> -ieval p ~lev a
  | Ir.Imin (a, b) -> Int.min (ieval p ~lev a) (ieval p ~lev b)
  | Ir.Imax (a, b) -> Int.max (ieval p ~lev a) (ieval p ~lev b)
  | Ir.Ilev l -> lev l

(* a nest-invariant expression: the lowering puts no [Ilev] in one *)
let inv p e = ieval p ~lev:(fun _ -> raise (Bail "bounds")) e

(* [for i = lo; i </<= hi; i += step] runs this many times *)
let trips ~lo ~hi ~step ~cle =
  let d = hi - lo + if cle then 1 else 0 in
  if d <= 0 then 0 else ((d - 1) / step) + 1

(* ---- static cost vectors ----

   Cost vectors are {!Counters.t}: the blocks' static costs, their
   combinations and the totals added into the live counters.  All
   cost-walk arithmetic is checked against [ccap] so the combination with
   runtime taken counters below is provably exact. *)

let ivec ~ints ~brs =
  let v = Counters.create () in
  v.(Counters.int_ops) <- ints;
  v.(Counters.branches) <- brs;
  v

let vadd_into a b = Array.iteri (fun i x -> a.(i) <- cadd a.(i) x) b

let vscale k v = Array.map (fun x -> cmul k x) v

(* ---- per-iteration trip counts ----

   A level whose bounds read enclosing indexes ([p.lnr]) has a trip count
   per entry.  [bounds] gives an entry's lo and trip count from the index
   values in [p.env] (each within [cap], or the entry bails); [note_entry]
   folds an entry into the level's ranges over the nest entry ([p.tmax],
   [p.ilo], [p.ihi], [p.imag]).  The cost walk ([walk_block]) visits
   every entry whose trip count can differ and notes it. *)

let bounds p l =
  if not p.lnr.(l) then (p.llo.(l), p.trip.(l))
  else begin
    let lv = p.fl.Ir.fl_levels.(l) and env = p.env in
    let lo = ref p.llo.(l) and lc = p.lcoef.(l) in
    for m = 0 to l - 1 do
      if lc.(m) <> 0 then lo := cadd !lo (cmul lc.(m) env.(m))
    done;
    let lo = !lo and hi = ieval p ~lev:(fun m -> env.(m)) lv.Ir.l_hi in
    if lo < -cap || lo > cap || hi < -cap || hi > cap then raise (Bail "trip-count");
    (lo, trips ~lo ~hi ~step:p.lstep.(l) ~cle:lv.Ir.l_cle)
  end

let note_entry p l lo trip =
  let step = p.lstep.(l) in
  if trip > p.tmax.(l) then p.tmax.(l) <- trip;
  if trip > 0 then begin
    if lo < p.ilo.(l) then p.ilo.(l) <- lo;
    let last = lo + ((trip - 1) * step) in
    if last > p.ihi.(l) then p.ihi.(l) <- last
  end;
  let m = Int.max (abs lo) (abs (lo + (trip * step))) in
  if m > p.imag.(l) then p.imag.(l) <- m

let clear_ranges p l =
  p.tmax.(l) <- 0;
  p.ilo.(l) <- max_int;
  p.ihi.(l) <- min_int;
  p.imag.(l) <- 0

(* Cost of running [b] once at the index values in [p.env], assuming each
   site takes its else arm.  [f] is how many times [b] runs per execution
   of the site arm (or the root body) around it; each level adds, per such
   execution, its entries, iterations and else-baseline cost to [p.lnent],
   [p.lnit] and [p.lvec], and each site its executions to [p.ncnt].  A
   site's arms are walked once: what they cost does not depend on the
   index values (no level in an arm reads an index from outside it); its
   delta (then cost minus else cost) lands in [p.dsite].  A level whose
   index some bound reads runs its body one iteration at a time, the
   others once for all their iterations (no trip count below them depends
   on their index); each entry of a level whose bounds read indexes is
   noted into its ranges. *)
let rec walk_block p (b : Ir.block) ~f : Counters.t =
  let v = Counters.copy b.Ir.b_cnt in
  Array.iter
    (fun (it : Ir.bitem) ->
      match it with
      | Ir.Bops _ -> ()
      | Ir.Bsite sid ->
        p.ncnt.(sid) <- cadd p.ncnt.(sid) f;
        if not p.sdone.(sid) then begin
          p.sdone.(sid) <- true;
          let s = p.fl.Ir.fl_sites.(sid) in
          let et = walk_block p s.Ir.s_then ~f:1 in
          let ee = walk_block p s.Ir.s_else ~f:1 in
          let d = p.dsite.(sid) in
          Array.iteri (fun i x -> d.(i) <- cadd x (-ee.(i))) et;
          p.selse.(sid) <- ee
        end;
        vadd_into v p.selse.(sid)
      | Ir.Bloop lid ->
        let lv = p.fl.Ir.fl_levels.(lid) in
        let lo, trip = bounds p lid in
        if p.lnr.(lid) then note_entry p lid lo trip;
        (* closure-loop bookkeeping: lo evaluated once per entry; each
           iteration pays the test (1 int op + hi ops + 1 branch) and the
           bump (1 int op + step ops); the final failing test pays
           1 + hi ops and a branch *)
        let entry = walk_level p lid ~lo ~trip ~f in
        vadd_into entry (ivec ~ints:(1 + lv.Ir.l_hi_ops) ~brs:1);
        p.lnent.(lid) <- cadd p.lnent.(lid) f;
        p.lnit.(lid) <- cadd p.lnit.(lid) (cmul f trip);
        vadd_into p.lvec.(lid) (vscale f entry);
        vadd_into v (ivec ~ints:lv.Ir.l_lo_ops ~brs:0);
        vadd_into v entry)
    b.Ir.b_items;
  v

(* the cost of [trip] iterations of level [l] from index [lo], tests and
   bumps included *)
and walk_level p l ~lo ~trip ~f =
  let lv = p.fl.Ir.fl_levels.(l) in
  let iter = ivec ~ints:(2 + lv.Ir.l_hi_ops + lv.Ir.l_step_ops) ~brs:1 in
  if trip = 0 then Counters.create ()
  else if p.lenum.(l) then begin
    let e = Counters.create () in
    for k = 0 to trip - 1 do
      p.env.(l) <- lo + (k * p.lstep.(l));
      vadd_into e (walk_block p lv.Ir.l_body ~f);
      vadd_into e iter
    done;
    e
  end
  else begin
    let inner = walk_block p lv.Ir.l_body ~f:(cmul f trip) in
    vadd_into inner iter;
    vscale trip inner
  end

(* The exact total over one stretch of the nest: a baseline plus, for
   every site in [sites], its taken count times its delta.  [bound_total]
   is the overflow pre-verification of the same sum — the baseline and
   the sites' maximum counts, in absolute value, all checked — so the
   unchecked arithmetic of [add_taken] after commit cannot wrap. *)
let bound_total p (base : Counters.t) (sites : int array) =
  for i = 0 to Counters.length - 1 do
    let acc = ref (abs base.(i)) in
    Array.iter
      (fun s -> acc := cadd !acc (cmul p.cntmax.(s) (abs p.dsite.(s).(i))))
      sites
  done

let add_taken p (tot : Counters.t) (sites : int array) =
  Array.iter
    (fun s ->
      let tks = p.tk.(s) in
      if tks > 0 then begin
        let d = p.dsite.(s) in
        for i = 0 to Counters.length - 1 do
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
   which of them treat an array as scratch does too: an array scratch in
   every one of them is resolved to no frame before the nest runs, and
   marks nothing.  Accesses of a bulk array only resolve its bitsets;
   [mark_bulk] marks them at commit. *)

let resolve_fp p st a =
  (* a chunk instance never resolves: the frames' tables are written by
     the committing domain only, before the chunks start *)
  assert p.resolve;
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

(* Mark cursor [c]'s image over the levels [chain] into one frame's
   bitsets: the entry position plus, per level it moves with, its
   coefficient times each index value.  The guard's endpoint checks bound
   every such position (the chain holds every level the cursor moves
   with, and all of them ran). *)
let mark_image p c chain ~load (w : Bytes.t) (r : Bytes.t) =
  let coefs = p.ccoef.(c) and n = Array.length chain in
  let rec go k pos =
    if k = n then begin
      if not load then Bytes.set w pos '\001'
      else if Bytes.get w pos = '\000' then Bytes.set r pos '\001'
    end
    else begin
      let l = chain.(k) in
      let coef = coefs.(l) in
      if coef = 0 then go (k + 1) pos
      else begin
        let d = coef * p.lstep.(l) in
        let q = ref (pos + (coef * p.llo.(l))) in
        for _ = 1 to p.trip.(l) do
          go (k + 1) !q;
          q := !q + d
        done
      end
    end
  in
  go 0 p.cpos0.(c)

(* Commit-time marks of the bulk arrays the entry touched, each distinct
   (cursor, enclosing levels) image once per frame, when every enclosing
   level ran.  This equals the per-access marks: the guard's role check
   means no access of the nest wrote a base the nest only reads, so a
   frame's [written] bits at commit are those every load saw, and
   [read_first |= image & ~written] is what marking the loads one at a
   time sets; stores only ever set [written]. *)
let mark_bulk p =
  Array.iteri
    (fun a imgs ->
      let ws = p.fpw.(a) and rs = p.fpr.(a) in
      if imgs <> [] && ws != no_fp then
        List.iter
          (fun (c, chain) ->
            if Array.for_all (fun l -> p.trip.(l) > 0) chain then
              for j = 0 to Array.length ws - 1 do
                mark_image p c chain ~load:p.aload.(a) ws.(j) rs.(j)
              done)
          imgs)
    p.bimg

(* ---- closure-threaded execution ----

   On a nest's first commit in a run, its prologue, levels, sites and ops
   are compiled into closures, one per op, each ending in a tail
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
   marking variant only: a cursor access through a marking closure
   chained in front of its continuation ([cur_mark]), so the other
   variant pays nothing for it. *)

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

(* false only for an array resolved to no frame (scratch in all of
   them): its accesses skip the marking call *)
let[@inline] marks (fpw : Bytes.t array array) a = Array.length fpw.%(a) <> 0

(* [k] preceded by the footprint marks of a load ([~store:false]) or store
   through cursor [c], run right after the access: none when marking is
   off, only the first-touch resolution for a bulk array ([mark_bulk]
   marks it at commit), the per-access marks otherwise *)
let cur_mark p st ~mk ~store c (k : code) : code =
  if not mk then k
  else begin
    let a = valid (Array.length p.bulk) p.carr.(c) in
    let fpw = p.fpw in
    if p.bulk.(a) then fun () ->
      if fpw.%(a) == no_fp then resolve_fp p st a;
      k ()
    else if store then fun () ->
      if marks fpw a then mark_cur_wr p st c;
      k ()
    else fun () ->
      if marks fpw a then mark_cur_rd p st c;
      k ()
  end

(* One closure per float function and precision, each calling its
   implementation directly: an unboxed C call ([sqrt], [sin], ...,
   [Intrinsic.demote]), inline arithmetic, or [Intrinsic.erf_into] on the
   register file, so no call boxes its operands or its result.  Each
   computes what [Intrinsic.eval1]/[eval2] does. *)
let math1 (m : Intrinsic.fn1) ~single (f : float array) d a (k : code) : code =
  match m, single with
  | Intrinsic.Sqrt, false -> fun () -> f.%(d) <- sqrt f.%(a); k ()
  | Intrinsic.Sqrt, true -> fun () -> f.%(d) <- Intrinsic.demote (sqrt f.%(a)); k ()
  | Intrinsic.Rsqrt, false -> fun () -> f.%(d) <- 1.0 /. sqrt f.%(a); k ()
  | Intrinsic.Rsqrt, true -> fun () -> f.%(d) <- Intrinsic.demote (1.0 /. sqrt f.%(a)); k ()
  | Intrinsic.Sin, false -> fun () -> f.%(d) <- sin f.%(a); k ()
  | Intrinsic.Sin, true -> fun () -> f.%(d) <- Intrinsic.demote (sin f.%(a)); k ()
  | Intrinsic.Cos, false -> fun () -> f.%(d) <- cos f.%(a); k ()
  | Intrinsic.Cos, true -> fun () -> f.%(d) <- Intrinsic.demote (cos f.%(a)); k ()
  | Intrinsic.Tan, false -> fun () -> f.%(d) <- tan f.%(a); k ()
  | Intrinsic.Tan, true -> fun () -> f.%(d) <- Intrinsic.demote (tan f.%(a)); k ()
  | Intrinsic.Exp, false -> fun () -> f.%(d) <- exp f.%(a); k ()
  | Intrinsic.Exp, true -> fun () -> f.%(d) <- Intrinsic.demote (exp f.%(a)); k ()
  | Intrinsic.Log, false -> fun () -> f.%(d) <- log f.%(a); k ()
  | Intrinsic.Log, true -> fun () -> f.%(d) <- Intrinsic.demote (log f.%(a)); k ()
  | Intrinsic.Tanh, false -> fun () -> f.%(d) <- tanh f.%(a); k ()
  | Intrinsic.Tanh, true -> fun () -> f.%(d) <- Intrinsic.demote (tanh f.%(a)); k ()
  | Intrinsic.Erf, false -> fun () -> Intrinsic.erf_into f d a; k ()
  | Intrinsic.Erf, true ->
    fun () ->
      Intrinsic.erf_into f d a;
      f.%(d) <- Intrinsic.demote f.%(d);
      k ()
  | Intrinsic.Fabs, false -> fun () -> f.%(d) <- Float.abs f.%(a); k ()
  | Intrinsic.Fabs, true -> fun () -> f.%(d) <- Intrinsic.demote (Float.abs f.%(a)); k ()
  | Intrinsic.Floor, false -> fun () -> f.%(d) <- Float.floor f.%(a); k ()
  | Intrinsic.Floor, true -> fun () -> f.%(d) <- Intrinsic.demote (Float.floor f.%(a)); k ()
  | Intrinsic.Ceil, false -> fun () -> f.%(d) <- Float.ceil f.%(a); k ()
  | Intrinsic.Ceil, true -> fun () -> f.%(d) <- Intrinsic.demote (Float.ceil f.%(a)); k ()

let math2 (m : Intrinsic.fn2) ~single (f : float array) d a b (k : code) : code =
  match m, single with
  | Intrinsic.Pow, false -> fun () -> f.%(d) <- Float.pow f.%(a) f.%(b); k ()
  | Intrinsic.Pow, true ->
    fun () -> f.%(d) <- Intrinsic.demote (Float.pow f.%(a) f.%(b)); k ()
  | Intrinsic.Fmin, false -> fun () -> f.%(d) <- Float.min f.%(a) f.%(b); k ()
  | Intrinsic.Fmin, true ->
    fun () -> f.%(d) <- Intrinsic.demote (Float.min f.%(a) f.%(b)); k ()
  | Intrinsic.Fmax, false -> fun () -> f.%(d) <- Float.max f.%(a) f.%(b); k ()
  | Intrinsic.Fmax, true ->
    fun () -> f.%(d) <- Intrinsic.demote (Float.max f.%(a) f.%(b)); k ()

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
  let f = p.f and n = p.n in
  let cpos = p.cpos and cf = p.cfdata and ci = p.cidata and fpw = p.fpw in
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
    fun () -> f.%(d) <- Intrinsic.demote f.%(a); k ()
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
    fun () -> f.%(d) <- Intrinsic.demote (f.%(a) +. f.%(b)); k ()
  | Ir.FSubS (d, a, b) ->
    let d = fr d and a = fr a and b = fr b in
    fun () -> f.%(d) <- Intrinsic.demote (f.%(a) -. f.%(b)); k ()
  | Ir.FMulS (d, a, b) ->
    let d = fr d and a = fr a and b = fr b in
    fun () -> f.%(d) <- Intrinsic.demote (f.%(a) *. f.%(b)); k ()
  | Ir.FDivS (d, a, b) ->
    let d = fr d and a = fr a and b = fr b in
    fun () -> f.%(d) <- Intrinsic.demote (f.%(a) /. f.%(b)); k ()
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
  | Ir.FMath1 (m, d, a) -> math1 m ~single:false f (fr d) (fr a) k
  | Ir.FMath1S (m, d, a) -> math1 m ~single:true f (fr d) (fr a) k
  | Ir.FMath2 (m, d, a, b) -> math2 m ~single:false f (fr d) (fr a) (fr b) k
  | Ir.FMath2S (m, d, a, b) -> math2 m ~single:true f (fr d) (fr a) (fr b) k
  | Ir.Rand d ->
    let d = fr d in
    let prng = st.prng in
    fun () -> f.%(d) <- Util.Prng.uniform prng; k ()
  | Ir.FLd (d, c) ->
    let d = fr d and c = cu c in
    let k = cur_mark p st ~mk ~store:false c k in
    fun () -> f.%(d) <- cf.%(c).(cpos.%(c)); k ()
  | Ir.FSt (c, s) ->
    let c = cu c and s = fr s in
    let k = cur_mark p st ~mk ~store:true c k in
    fun () -> cf.%(c).(cpos.%(c)) <- f.%(s); k ()
  | Ir.FStDem (c, s) ->
    let c = cu c and s = fr s in
    let k = cur_mark p st ~mk ~store:true c k in
    fun () -> cf.%(c).(cpos.%(c)) <- Intrinsic.demote f.%(s); k ()
  | Ir.ILd (d, c) ->
    let d = ir d and c = cu c in
    let k = cur_mark p st ~mk ~store:false c k in
    fun () -> n.%(d) <- ci.%(c).(cpos.%(c)); k ()
  | Ir.ISt (c, s) ->
    let c = cu c and s = ir s in
    let k = cur_mark p st ~mk ~store:true c k in
    fun () -> ci.%(c).(cpos.%(c)) <- n.%(s); k ()
  | Ir.IStB (c, s) ->
    let c = cu c and s = ir s in
    let k = cur_mark p st ~mk ~store:true c k in
    fun () -> ci.%(c).(cpos.%(c)) <- (if n.%(s) <> 0 then 1 else 0); k ()
  | Ir.FLdCk (d, a, i, loc) ->
    let d = fr d and a = ar a and i = ir i in
    fun () ->
      let idx = checked_index p n a i loc in
      f.%(d) <- af.%(a).(idx);
      if mk && marks fpw a then mark_rd p st a idx;
      k ()
  | Ir.FStCk (a, i, s, loc) ->
    let a = ar a and i = ir i and s = fr s in
    if p.adem.(a) then fun () ->
      let idx = checked_index p n a i loc in
      af.%(a).(idx) <- Intrinsic.demote f.%(s);
      if mk && marks fpw a then mark_wr p st a idx;
      k ()
    else fun () ->
      let idx = checked_index p n a i loc in
      af.%(a).(idx) <- f.%(s);
      if mk && marks fpw a then mark_wr p st a idx;
      k ()
  | Ir.ILdCk (d, a, i, loc) ->
    let d = ir d and a = ar a and i = ir i in
    fun () ->
      let idx = checked_index p n a i loc in
      n.%(d) <- ai.%(a).(idx);
      if mk && marks fpw a then mark_rd p st a idx;
      k ()
  | Ir.IStCk (a, i, s, loc) ->
    let a = ar a and i = ir i and s = ir s in
    if p.abool.(a) then fun () ->
      let idx = checked_index p n a i loc in
      ai.%(a).(idx) <- (if n.%(s) <> 0 then 1 else 0);
      if mk && marks fpw a then mark_wr p st a idx;
      k ()
    else fun () ->
      let idx = checked_index p n a i loc in
      ai.%(a).(idx) <- n.%(s);
      if mk && marks fpw a then mark_wr p st a idx;
      k ()
  | Ir.FLdSub (d, c, b) ->
    let d = fr d and c = cu c and b = fr b in
    let k = cur_mark p st ~mk ~store:false c k in
    fun () -> f.%(d) <- cf.%(c).(cpos.%(c)) -. f.%(b); k ()
  | Ir.FLdSub2 (d, c1, c2) ->
    let d = fr d and c1 = cu c1 and c2 = cu c2 in
    let k = cur_mark p st ~mk ~store:false c1 (cur_mark p st ~mk ~store:false c2 k) in
    fun () ->
      f.%(d) <- cf.%(c1).(cpos.%(c1)) -. cf.%(c2).(cpos.%(c2));
      k ()
  | Ir.FLdMul (d, c, b) ->
    let d = fr d and c = cu c and b = fr b in
    let k = cur_mark p st ~mk ~store:false c k in
    fun () -> f.%(d) <- cf.%(c).(cpos.%(c)) *. f.%(b); k ()
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
    let k = cur_mark p st ~mk ~store:false c (cur_mark p st ~mk ~store:true c k) in
    fun () ->
      let q = cf.%(c) and i = cpos.%(c) in
      q.(i) <- q.(i) +. f.%(s);
      k ()
  | Ir.FMulAccSt (c, a, b) ->
    let c = cu c and a = fr a and b = fr b in
    let k = cur_mark p st ~mk ~store:false c (cur_mark p st ~mk ~store:true c k) in
    fun () ->
      let q = cf.%(c) and i = cpos.%(c) in
      q.(i) <- q.(i) +. (f.%(a) *. f.%(b));
      k ()
  | Ir.FLdSub2S (d, c1, c2) ->
    let d = fr d and c1 = cu c1 and c2 = cu c2 in
    let k = cur_mark p st ~mk ~store:false c1 (cur_mark p st ~mk ~store:false c2 k) in
    fun () ->
      f.%(d) <- Intrinsic.demote (cf.%(c1).(cpos.%(c1)) -. cf.%(c2).(cpos.%(c2)));
      k ()
  | Ir.FLdMulS (d, c, b) ->
    let d = fr d and c = cu c and b = fr b in
    let k = cur_mark p st ~mk ~store:false c k in
    fun () -> f.%(d) <- Intrinsic.demote (cf.%(c).(cpos.%(c)) *. f.%(b)); k ()
  | Ir.FLdAddS (d, c, b) ->
    let d = fr d and c = cu c and b = fr b in
    let k = cur_mark p st ~mk ~store:false c k in
    fun () -> f.%(d) <- Intrinsic.demote (cf.%(c).(cpos.%(c)) +. f.%(b)); k ()
  | Ir.FAddMulS (d, c, a, b) ->
    let d = fr d and a = fr a and b = fr b and c = fr c in
    fun () -> f.%(d) <- Intrinsic.demote (f.%(c) +. Intrinsic.demote (f.%(a) *. f.%(b))); k ()
  | Ir.FSubMulS (d, c, a, b) ->
    let d = fr d and a = fr a and b = fr b and c = fr c in
    fun () -> f.%(d) <- Intrinsic.demote (f.%(c) -. Intrinsic.demote (f.%(a) *. f.%(b))); k ()
  | Ir.Alloc a ->
    let a = ar a in
    let arr = p.fl.Ir.fl_arrs.(a) in
    let name = arr.Ir.a_name and elem_ty = Ir.ty_of_ety arr.Ir.a_ety in
    let curs = p.acur.(a) and alen = p.alen and abase = p.abase in
    let bind base (raw : Memory.raw) =
      abase.%(a) <- base;
      match raw with
      | Memory.Rfloat data ->
        af.%(a) <- data;
        Array.iter (fun c -> cf.%(c) <- data) curs
      | Memory.Rint data ->
        ai.%(a) <- data;
        Array.iter (fun c -> ci.%(c) <- data) curs
    in
    if p.chunk then
      (* a chunk instance: the array its root iteration declares was
         allocated before the chunks started *)
      let palloc = p.palloc and anext = p.anext in
      fun () ->
        let j = anext.%(a) in
        anext.%(a) <- j + 1;
        let base, raw = palloc.%(a).(j) in
        bind base raw;
        k ()
    else fun () ->
      let base = (Memory.alloc st.mem ~name ~elem_ty alen.%(a)).Value.base in
      bind base (Memory.raw st.mem base);
      k ()
  | Ir.Called j ->
    let j = valid (Array.length p.called) j in
    if st.cfg.trace_aliases then
      let called = p.called in
      fun () -> called.%(j) <- true; k ()
    else k

(* [k] preceded by the checks of the cursors [op] accesses that this entry
   may check one by one, in access order: each raises the walker's
   out-of-bounds error at the access's location when its cursor is
   checked ([p.cck]) and the position is outside the array *)
let cur_checks p (op : Ir.fop) (k : code) : code =
  let cs = ref [] in
  iter_accesses op
    ~cur:(fun c ~ld:_ -> if p.ckok.(valid (Array.length p.ckok) c) then cs := c :: !cs)
    ~ck:(fun _ ~ld:_ -> ());
  List.fold_left
    (fun k c ->
      let a = p.carr.(c) and cck = p.cck and cpos = p.cpos and alen = p.alen in
      let loc = Option.get p.fl.Ir.fl_cursors.(c).Ir.c_arm in
      fun () ->
        (if cck.%(c) then
           let pos = cpos.%(c) in
           if pos < 0 || pos >= alen.%(a) then oob p a pos loc);
        k ())
    k !cs

let ops_code p st ~mk ~ck (ops : Ir.fop array) (k : code) : code =
  if ck then Array.fold_right (fun op k -> cur_checks p op (op_code p st ~mk op k)) ops k
  else Array.fold_right (op_code p st ~mk) ops k

(* A block runs its items in order and then [k]; a site's arms both
   continue into [k].  A level enters its cursors, runs its body once per
   iteration with the index register refreshed and the cursors bumped,
   then nets its cursor contribution out so re-entries (inner levels run
   once per enclosing iteration) start from the enclosing position.  Under
   loop profiling an inner level also counts its entries and notes the
   order levels are first entered in. *)
let rec block_code p st ~mk ~ck ~prof (b : Ir.block) (k : code) : code =
  Array.fold_right (item_code p st ~mk ~ck ~prof) b.Ir.b_items k

and item_code p st ~mk ~ck ~prof (it : Ir.bitem) (k : code) : code =
  match it with
  | Ir.Bops ops -> ops_code p st ~mk ~ck ops k
  | Ir.Bsite sid ->
    let s = p.fl.Ir.fl_sites.(valid (Array.length p.fl.Ir.fl_sites) sid) in
    let c = valid (Array.length p.n) s.Ir.s_cond in
    let n = p.n and tk = p.tk in
    let kt = block_code p st ~mk ~ck ~prof s.Ir.s_then k in
    let ke = block_code p st ~mk ~ck ~prof s.Ir.s_else k in
    fun () ->
      if n.%(c) <> 0 then begin
        tk.%(sid) <- tk.%(sid) + 1;
        kt ()
      end
      else ke ()
  | Ir.Bloop lid -> level_code p st ~mk ~ck ~prof lid k

and level_code p st ~mk ~ck ~prof lid (k : code) : code =
  let lv = p.fl.Ir.fl_levels.(valid (Array.length p.fl.Ir.fl_levels) lid) in
  let body = block_code p st ~mk ~ck ~prof lv.Ir.l_body ret in
  let n = p.n and cpos = p.cpos in
  let cs = p.lev_cur.(lid) in
  let en = p.enter_d.(lid) and sd = p.step_d.(lid) and ex = p.exit_d.(lid) in
  let ncs = Array.length cs in
  let trip = p.trip and llo = p.llo and lstep = p.lstep in
  let ireg = p.iregs.(lid) in
  if ireg >= 0 then ignore (valid (Array.length n) ireg);
  let count = prof && lid > 0 in
  let lent = p.lent and lord = p.lord in
  let enter () =
    if count then begin
      let e = lent.%(lid) in
      if e = 0 then begin
        lord.(p.nord) <- lid;
        p.nord <- p.nord + 1
      end;
      lent.%(lid) <- e + 1
    end
  in
  if p.lnr.(lid) then begin
    (* bounds from the index registers of the levels they read *)
    let iregs = p.iregs and lc = p.lcoef.(lid) in
    List.iter
      (fun m ->
        if m >= lid || iregs.(m) < 0 then raise (Bail "registers");
        ignore (valid (Array.length n) iregs.(m)))
      (bound_reads lv);
    let lev m = n.%(iregs.%(m)) in
    let hi = lv.Ir.l_hi and cle = lv.Ir.l_cle in
    fun () ->
      enter ();
      let step = lstep.%(lid) in
      let lo = ref llo.%(lid) in
      for m = 0 to lid - 1 do
        let a = lc.%(m) in
        if a <> 0 then lo := !lo + (a * lev m)
      done;
      let lo = !lo in
      let t = trips ~lo ~hi:(ieval p ~lev hi) ~step ~cle in
      for j = 0 to ncs - 1 do
        let c = cs.%(j) in
        cpos.%(c) <- cpos.%(c) + (en.%(j) * lo)
      done;
      let i = ref lo in
      for _ = 1 to t do
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
        cpos.%(c) <- cpos.%(c) - (en.%(j) * (lo + (t * step)))
      done;
      k ()
  end
  else fun () ->
    enter ();
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

(* The whole nest, prologue first, in marking mode [mk] and, when
   [ck], with the per-access cursor checks ([cur_checks]); compiled on the
   modes' first commit in the run.  Entries that check no cursor run the
   variant without checks. *)
let nest_code p st ~mk ~ck ~prof =
  let slot = (if mk then 1 else 0) + if ck then 2 else 0 in
  match p.code.(slot) with
  | Some c -> c
  | None ->
    let fl = p.fl in
    let c =
      ops_code p st ~mk ~ck fl.Ir.fl_prologue (level_code p st ~mk ~ck ~prof 0 ret)
    in
    p.code.(slot) <- Some c;
    c

(* Inner levels' loop_stats, as the walker's per-[For] snapshots would
   have recorded them.  Per execution of the site arm (or root body)
   around a level, its entries, iterations and else-baseline cost
   (iterations and final tests) are the cost walk's [p.lnent], [p.lnit]
   and [p.lvec]: no bound inside an arm reads an index from outside it.
   So the level's [e] entries came from [e / lnent] such executions, and
   every taken then-arm inside it adds its site delta (all of a site's
   executions lie inside each enclosing level).  Accumulators are created
   in first-entry order, the order the walker touches them.  The lo bound
   is evaluated before the walker's snapshot, so it stays out, as does
   the [For] statement's own step. *)
let account_levels p st =
  let levels = p.fl.Ir.fl_levels in
  for k = 0 to p.nord - 1 do
    let l = p.lord.(k) in
    if l > 0 then begin
      let lv = levels.(l) in
      let e = p.lent.(l) in
      let x = if p.lnent.(l) = 0 then 0 else e / p.lnent.(l) in
      let a = loop_acc_of st lv.Ir.l_sid in
      a.la_entries <- a.la_entries + e;
      a.la_iterations <- a.la_iterations + (x * p.lnit.(l));
      let tot = p.tot and v = p.lvec.(l) in
      for i = 0 to Counters.length - 1 do
        tot.(i) <- x * v.(i)
      done;
      add_taken p tot p.lsites.(l);
      Counters.add_into a.la_counters tot
    end
  done

(* the walker's cell of an external name: in the scope around the loop
   (no external name is the root index), or (when [global]) among the
   globals only; unbound declines the nest *)
let cell st env ~global name =
  match if global then Hashtbl.find_opt st.globals name else lookup env name with
  | Some r -> r
  | None -> raise (Bail "binding")

(* ---- parallel root chunks ----

   At [--jobs] > 1 a committed nest may run its root level as contiguous
   chunks of root iterations, which the committing domain and one pool
   future per other job claim in order, each on its own chunk instance
   ([chunk_instance]).
   The guard splits an entry only when the chunks cannot observe one
   another ([split_plan], [split_chunks]): no value crosses root
   iterations through a register, every element a root iteration may
   store is touched by no other root iteration, and the run's shared
   state (memory allocation, footprint resolution, the PRNG) is used
   before the chunks start or not at all.  Merging the chunk instances'
   counters then gives exactly the serial commit's state ([run_split]). *)

let m_parallel = Obs.Metrics.counter "vm.nests.parallel"

(* Entries of fewer statements than this stay serial ([entry_steps]).  A
   parked pool worker starts a spawned future after ~55 us (p50; p90
   ~100 us, 2-vCPU host), the time the VM takes for a few thousand
   statements, so a smaller nest cannot win back a split's fixed
   cost. *)
let split_floor = 20_000

(* Per level, its index as [xb.(l) + sum_m xa.(l).(m) * u_m] over the
   levels' offsets [u_m = i_m - lo_m], each in
   [0, (tmax_m - 1) * step_m]: a level whose bounds read indexes starts
   at its invariant lo plus its coefficients times the enclosing
   indexes, themselves so expanded (enclosing levels have smaller ids) *)
let expand p =
  let nl = Array.length p.trip in
  for l = 0 to nl - 1 do
    let xa = p.xa.(l) in
    Array.fill xa 0 nl 0;
    xa.(l) <- 1;
    if not p.lnr.(l) then p.xb.(l) <- p.llo.(l)
    else begin
      let b = ref p.llo.(l) in
      for m = 0 to l - 1 do
        let c = p.lcoef.(l).(m) in
        if c <> 0 then begin
          b := cadd !b (cmul c p.xb.(m));
          for j = 0 to m do
            xa.(j) <- cadd xa.(j) (cmul c p.xa.(m).(j))
          done
        end
      done;
      p.xb.(l) <- !b
    end
  done

(* cursor [k]'s position, [pos0] plus its coefficients times the indexes,
   as [cbase.(k) + sum_m cexp.(k).(m) * u_m] ([expand]) *)
let cursor_form p k pos0 =
  let nl = Array.length p.trip and coefs = p.ccoef.(k) and cx = p.cexp.(k) in
  let b = ref pos0 in
  Array.fill cx 0 nl 0;
  for l = 0 to nl - 1 do
    let c = coefs.(l) in
    if c <> 0 then begin
      b := cadd !b (cmul c p.xb.(l));
      for m = 0 to l do
        cx.(m) <- cadd cx.(m) (cmul c p.xa.(l).(m))
      done
    end
  done;
  p.cbase.(k) <- !b

(* the extrema of cursor [k]'s position over the offsets of levels
   [from] and deeper, the others at 0 *)
let form_extrema p k ~from =
  let lo = ref p.cbase.(k) and hi = ref p.cbase.(k) in
  let cx = p.cexp.(k) in
  for m = from to Array.length cx - 1 do
    if cx.(m) <> 0 && p.tmax.(m) > 0 then begin
      let d = cmul cx.(m) (cmul (p.tmax.(m) - 1) p.lstep.(m)) in
      if d < 0 then lo := cadd !lo d else hi := cadd !hi d
    end
  done;
  (!lo, !hi)

(* a cursor is dereferenced only when every level it moves with runs *)
let accessed p k =
  let ok = ref true in
  Array.iteri
    (fun l e -> if e <> Ir.Iconst 0 && p.tmax.(l) = 0 then ok := false)
    p.fl.Ir.fl_cursors.(k).Ir.c_coefs;
  !ok

(* Every base a name of the nest stores (the nest's own declared arrays
   aside: each root iteration declares fresh ones) is touched in blocks
   no two root iterations share: no checked access loads it, and all its
   dereferenced cursors move with the root by the same [r] per root
   iteration ([cursor_form]: the root offset's coefficient times the
   step), so root iteration [v] touches [r*v + [lo, hi]] over the
   cursors' extrema over the inner levels' offsets (in base coordinates,
   offsets included), and consecutive root iterations, [r] apart, cannot
   meet when [hi - lo < |r|].  The guard's endpoint caps keep this
   arithmetic exact. *)
let disjoint_roots p =
  let arrs = p.fl.Ir.fl_arrs in
  let na = Array.length arrs in
  let declared a = arrs.(a).Ir.a_size <> None in
  let stored a =
    (not (declared a))
    && Array.exists Fun.id
         (Array.init na (fun k ->
              (not (declared k)) && arrs.(k).Ir.a_stored && p.abase.(k) = p.abase.(a)))
  in
  (not (Array.exists stored p.ck_loads))
  &&
  let blocks = Hashtbl.create 4 and ok = ref true in
  for k = 0 to Array.length p.fl.Ir.fl_cursors - 1 do
    let a = p.carr.(k) in
    if stored a && accessed p k then begin
      let lo, hi = form_extrema p k ~from:1 in
      let r = p.cexp.(k).(0) * p.lstep.(0) in
      let base = p.abase.(a) in
      match Hashtbl.find_opt blocks base with
      | None -> Hashtbl.replace blocks base (r, lo, hi)
      | Some (r', lo', hi') ->
        if r <> r' then ok := false
        else Hashtbl.replace blocks base (r, Int.min lo' lo, Int.max hi' hi)
    end
  done;
  !ok && Hashtbl.fold (fun _ (r, lo, hi) acc -> acc && r <> 0 && hi - lo < abs r) blocks true

(* The entry's statements, as far as the guard knows them: the
   else-baseline, plus the root guard's arm on every root iteration the
   clamp keeps *)
let entry_steps p =
  match p.fl.Ir.fl_clamp with
  | None -> p.wbase.(Counters.steps)
  | Some k -> p.wbase.(Counters.steps) + (p.trip.(0) * p.dsite.(k.Ir.k_site).(Counters.steps))

(* The per-entry half of the split rules, after the guard: the pool's
   job count; [None] keeps the entry serial.  Under a region the chunks
   also need every array's footprint entries in place before they start
   ([run_split]). *)
let split_chunks p =
  let jobs = Util.Pool.default_jobs () in
  if (not p.split_ok) || jobs < 2 || p.trip.(0) < 2
     || entry_steps p < split_floor
     || not (disjoint_roots p)
  then None
  else Some jobs

(* Root iterations [first, last) on instance [q], which starts every
   range from [p]'s state after the guard: [p] itself is left alone until
   every chunk has finished, so an instance may run any range, and a
   future can run again from the start (a crashed pool worker's claim is
   rerun elsewhere).  Taken counters and call flags accumulate over the
   instance's ranges; level entries are counted per range, so the levels'
   first entries are in range order. *)
let run_range p st ~mk ~ck ~prof q first last =
  let copy src dst = Array.blit src 0 dst 0 (Array.length src) in
  copy p.f q.f;
  copy p.n q.n;
  copy p.cpos0 q.cpos;
  copy p.cfdata q.cfdata;
  copy p.cidata q.cidata;
  copy p.afdata q.afdata;
  copy p.aidata q.aidata;
  copy p.abase q.abase;
  copy p.trip q.trip;
  copy p.llo q.llo;
  let step = p.lstep.(0) in
  let lo = p.llo.(0) + (first * step) and count = last - first in
  q.trip.(0) <- count;
  q.llo.(0) <- lo;
  let cs = p.lev_cur.(0) and en = q.enter_d.(0) and ex = q.exit_d.(0) in
  for j = 0 to Array.length cs - 1 do
    let coef = p.ccoef.(cs.(j)).(0) in
    en.(j) <- coef * lo;
    ex.(j) <- coef * (lo + (count * step))
  done;
  Array.fill q.lent 0 (Array.length q.lent) 0;
  q.nord <- 0;
  Array.iter (fun a -> q.anext.(a) <- p.astart.(a).(first)) p.allocs;
  nest_code q st ~mk ~ck ~prof ()

(* Root iterations per chunk, in else-baseline statements: small enough
   that the committing domain, which takes chunks until none is left,
   never waits long for a chunk a late worker started, and large enough
   that a chunk's set-up (copying [p]'s registers and cursors, about a
   microsecond) stays below 2 % of it. *)
let chunk_steps = 8_000

(* The arrays the nest declares, for every root iteration that runs, in
   the walker's order — root iteration, then the iterations of the
   levels around each declaration, then declaration order — each
   declaration's in [p.palloc], with where each root iteration's start
   in [p.astart].  No declaration sits in a site arm ([split_plan]) other
   than the root guard's, whose arm every root iteration that runs takes. *)
let prealloc p st =
  let fl = p.fl in
  let t = p.trip.(0) and ks = clamp_site fl in
  let made = Array.make (Array.length p.palloc) [] and count = Array.make (Array.length p.palloc) 0 in
  let alloc a =
    let arr = fl.Ir.fl_arrs.(a) in
    let elem_ty = Ir.ty_of_ety arr.Ir.a_ety in
    let base = (Memory.alloc st.mem ~name:arr.Ir.a_name ~elem_ty p.alen.(a)).Value.base in
    made.(a) <- (base, Memory.raw st.mem base) :: made.(a);
    count.(a) <- count.(a) + 1
  in
  let rec block (b : Ir.block) =
    Array.iter
      (function
        | Ir.Bops ops -> Array.iter (function Ir.Alloc a -> alloc a | _ -> ()) ops
        | Ir.Bsite sid -> if sid = ks then block fl.Ir.fl_sites.(sid).Ir.s_then
        | Ir.Bloop l ->
          if p.lalloc.(l) then begin
            let lo, trip = bounds p l in
            for k = 0 to trip - 1 do
              p.env.(l) <- lo + (k * p.lstep.(l));
              block fl.Ir.fl_levels.(l).Ir.l_body
            done
          end)
      b.Ir.b_items
  in
  Array.iter (fun a -> p.astart.(a) <- Array.make t 0) p.allocs;
  for v = 0 to t - 1 do
    p.env.(0) <- p.llo.(0) + (v * p.lstep.(0));
    Array.iter (fun a -> p.astart.(a).(v) <- count.(a)) p.allocs;
    block fl.Ir.fl_levels.(0).Ir.l_body
  done;
  Array.iter (fun a -> p.palloc.(a) <- Array.of_list (List.rev made.(a))) p.allocs

(* The committed nest as chunks of contiguous root iterations, claimed in
   order from a shared counter by the committing domain and by one future
   per other pool job, each on its own chunk instance ([chunk_instance]):
   a job that starts late takes fewer chunks, and one that starts after
   the last claim returns at once, with no [vm-chunks] span.  The arrays
   the nest declares are allocated first ([prealloc]).  Under a region, root
   iteration 0 runs first, alone on the committing domain, and resolves
   the frames' footprint entries in the walker's first-touch order; the
   rest splits only if that left no array the nest accesses unresolved
   (the chunks never resolve), and otherwise runs there too.  The merge is
   the serial commit's state: taken counters and level entries are sums,
   the first-entry level order is the ranges' orders concatenated in
   range order (a level's first entry lies in the first range that enters
   it), call flags are OR'ed, and the declared arrays keep the bases of
   their last allocation.  A chunk's error is raised once every future
   has settled, the earliest chunk's: the serial run raises that one, and
   no chunk instance is still running when the next entry reuses it. *)
let run_split p st ~mk ~ck ~prof jobs =
  let t = p.trip.(0) in
  if p.allocs <> [||] then prealloc p st;
  let have = Array.length p.chunks in
  if have < jobs then
    p.chunks <- Array.init jobs (fun i -> if i < have then p.chunks.(i) else chunk_instance p);
  Array.iter
    (fun q ->
      Array.fill q.tk 0 (Array.length q.tk) 0;
      Array.fill q.called 0 (Array.length q.called) false)
    p.chunks;
  (* per range in order: its level entries and first-entry order *)
  let ranges = ref [] in
  let note q = if prof then ranges := (Array.copy q.lent, Array.sub q.lord 0 q.nord) :: !ranges in
  let start =
    if not mk then 0
    else begin
      let q = p.chunks.(0) in
      q.resolve <- true;
      Fun.protect
        ~finally:(fun () -> q.resolve <- false)
        (fun () ->
          run_range p st ~mk ~ck ~prof q 0 1;
          note q;
          if Array.for_all (fun a -> p.fpw.(a) != no_fp) p.touched then 1
          else begin
            run_range p st ~mk ~ck ~prof q 1 t;
            note q;
            t
          end)
    end
  in
  let error = ref None in
  if start < t then begin
    Obs.Metrics.Counter.incr m_parallel;
    let n = Int.min (t - start) (Int.max jobs (entry_steps p / chunk_steps)) in
    let next = Atomic.make 0 in
    let errors = Array.make n None in
    let lents = Array.make n no_i and lords = Array.make n no_i in
    let work i () =
      let q = p.chunks.(i) in
      let rec claim () =
        let c = Atomic.fetch_and_add next 1 in
        if c < n then begin
          let first = start + (c * (t - start) / n) and last = start + ((c + 1) * (t - start) / n) in
          (match run_range p st ~mk ~ck ~prof q first last with
           | () -> ()
           | exception e -> errors.(c) <- Some (e, Printexc.get_raw_backtrace ()));
          if prof then begin
            lents.(c) <- Array.copy q.lent;
            lords.(c) <- Array.sub q.lord 0 q.nord
          end;
          claim ()
        end
      in
      claim ()
    in
    let futs =
      List.init (jobs - 1) (fun i ->
          Util.Pool.Fut.spawn (fun () ->
              if Atomic.get next < n then
                Obs.Trace.with_span ~name:"vm-chunks" ~kind:Obs.Trace.Interp_run (fun _ ->
                    work (i + 1) ())))
    in
    work 0 ();
    List.iter Util.Pool.Fut.await_no_help futs;
    if prof then Array.iteri (fun c l -> ranges := (l, lords.(c)) :: !ranges) lents;
    error := Array.find_map Fun.id errors
  end;
  Array.iter
    (fun q ->
      Array.iteri (fun s x -> p.tk.(s) <- p.tk.(s) + x) q.tk;
      Array.iteri (fun j b -> if b then p.called.(j) <- true) q.called)
    p.chunks;
  List.iter
    (fun (lent, lord) ->
      Array.iter
        (fun l ->
          if p.lent.(l) = 0 then begin
            p.lord.(p.nord) <- l;
            p.nord <- p.nord + 1
          end)
        lord;
      Array.iteri (fun l e -> p.lent.(l) <- p.lent.(l) + e) lent)
    (List.rev !ranges);
  Array.iter
    (fun a ->
      let made = p.palloc.(a) in
      if made <> [||] then p.abase.(a) <- fst made.(Array.length made - 1);
      p.palloc.(a) <- [||])
    p.allocs;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !error

let attempt p st env (index : Value.t ref) (acc : loop_acc) =
  let fl = p.fl in
  let levels = fl.Ir.fl_levels in
  let nl = Array.length levels in
  let nsites = Array.length fl.Ir.fl_sites in
  (* 0. profiling: the caller accounts the root level through [acc]; inner
     levels' loop_stats are derived at commit *)
  let prof = st.cfg.profile_loops && nl > 1 in
  let marking = st.active_regions <> [] in
  (* 1. bind the external scalars to the walker's cells and load them;
     a value of another representation than the lowering assumed
     (precision included) declines the nest *)
  let vars = fl.Ir.fl_vars in
  for k = 0 to Array.length vars - 1 do
    let v = vars.(k) in
    let r = cell st env ~global:v.Ir.v_global v.Ir.v_name in
    p.vcell.(k) <- r;
    match v.Ir.v_kind, !r with
    | Ir.Kint, Value.Vint x -> p.n.(v.Ir.v_reg) <- x
    | Ir.Kbool, Value.Vbool b -> p.n.(v.Ir.v_reg) <- (if b then 1 else 0)
    | Ir.Kfloat Ir.Psingle, Value.Vfloat (Value.Sp, x)
    | Ir.Kfloat Ir.Pdouble, Value.Vfloat (Value.Dp, x) ->
      p.f.(v.Ir.v_reg) <- x
    | _ -> raise (Bail "binding")
  done;
  (* 2. trip counts: every level is [for i = lo; i </<= hi; i += step].
     A level whose bounds read no index has one trip count for the whole
     entry; for the others the invariant parts of the bounds are
     evaluated here and the trip counts per iteration by the cost walk.
     The root must run at least one iteration (a zero-trip root is
     cheaper on the walker); inner levels may be empty. *)
  let root_lo =
    match !index with
    | Value.Vint x -> x
    | _ -> raise (Bail "binding")
  in
  let checked x = if x < -cap || x > cap then raise (Bail "trip-count") else x in
  for l = 0 to nl - 1 do
    let lv = levels.(l) in
    let step = inv p lv.Ir.l_step in
    if step < 1 || step > cap then raise (Bail "trip-count");
    p.lstep.(l) <- step;
    clear_ranges p l;
    if p.lnr.(l) then begin
      p.llo.(l) <- checked (inv p lv.Ir.l_lo);
      Array.iteri
        (fun m e ->
          let a = inv p e in
          if a < -coef_cap || a > coef_cap then raise (Bail "trip-count");
          p.lcoef.(l).(m) <- a)
        lv.Ir.l_lo_coefs
    end
    else begin
      let lo = checked (if l = 0 then root_lo else inv p lv.Ir.l_lo) in
      let hi = checked (inv p lv.Ir.l_hi) in
      let trip = trips ~lo ~hi ~step ~cle:lv.Ir.l_cle in
      if l = 0 && trip = 0 then raise (Bail "trip-count");
      p.trip.(l) <- trip;
      p.llo.(l) <- lo;
      note_entry p l lo trip
    end
  done;
  (* 2a. the root guard ([Ir.clamp]): the executor runs only the root
     iterations that pass it, a prefix of the walker's.  With the root
     index, [C] and [E] within [cap], neither [index + C] nor [E - C]
     wraps, so [index + C < E] exactly when [index < E - C] *)
  p.full <- p.trip.(0);
  (match fl.Ir.fl_clamp with
   | None -> ()
   | Some k ->
     let base = checked (inv p k.Ir.k_base) and bound = checked (inv p k.Ir.k_bound) in
     let run = trips ~lo:root_lo ~hi:(bound - base) ~step:p.lstep.(0) ~cle:k.Ir.k_cle in
     p.trip.(0) <- Int.min run p.full;
     clear_ranges p 0;
     note_entry p 0 root_lo p.trip.(0));
  (* 3. cost walk: static baseline (all sites take their else arm) plus
     per-site deltas and max execution counts; all checked arithmetic.
     The budget must survive the statically largest possible total;
     otherwise the walker runs the loop and raises Step_limit_exceeded at
     the exact offending statement. *)
  Array.fill p.ncnt 0 (Array.length p.ncnt) 0;
  Array.fill p.sdone 0 (Array.length p.sdone) false;
  Array.fill p.lnent 0 nl 0;
  Array.fill p.lnit 0 nl 0;
  Array.iter (fun v -> Array.fill v 0 Counters.length 0) p.lvec;
  let root = levels.(0) in
  let base_v = walk_level p 0 ~lo:root_lo ~trip:p.full ~f:1 in
  vadd_into base_v (ivec ~ints:(1 + root.Ir.l_hi_ops) ~brs:1);
  (* a site runs at most as often per nest entry as its arm allows (the
     root body: once) times its executions per arm execution; parents
     come first *)
  Array.iter
    (fun s ->
      let par = p.sparent.(s) in
      p.cntmax.(s) <- cmul (if par < 0 then 1 else p.cntmax.(par)) p.ncnt.(s))
    p.sorder;
  Array.iteri (fun l par -> p.lmult.(l) <- (if par < 0 then 1 else p.cntmax.(par))) p.lparent;
  let max_steps = ref base_v.(Counters.steps) in
  for s = 0 to nsites - 1 do
    let ds = p.dsite.(s).(Counters.steps) in
    if ds > 0 then max_steps := cadd !max_steps (cmul p.cntmax.(s) ds)
  done;
  if st.steps_left <= !max_steps then raise (Bail "budget");
  (* 3b. overflow pre-verification: bound the absolute value of every
     per-field total the commit phase will compute — the nest's, and under
     profiling every inner level's loop_stats total — so the unchecked
     arithmetic there is provably exact.  The root's subtree holds every
     site. *)
  bound_total p base_v p.lsites.(0);
  if prof then
    for l = 1 to nl - 1 do
      bound_total p (vscale p.lmult.(l) p.lvec.(l)) p.lsites.(l)
    done;
  p.wbase <- base_v;
  (* 4. resolve arrays: exact element type, raw storage, name for errors.
     An array the nest declares gets its length here (its offset stays 0)
     and its base and storage from each [Alloc]; until then its base is
     -1, which no resolved base equals. *)
  let arrs = fl.Ir.fl_arrs in
  let na = Array.length arrs in
  for k = 0 to na - 1 do
    let a = arrs.(k) in
    match a.Ir.a_size with
    | Some size ->
      (* declared in the nest: allocated after commit, [size] long; the
         walker raises its own error for a negative size *)
      let n = inv p size in
      if n < 0 || n > cap then raise (Bail "array size");
      p.abase.(k) <- -1;
      p.alen.(k) <- n;
      p.aname.(k) <- a.Ir.a_name
    | None ->
      (match !(cell st env ~global:a.Ir.a_global a.Ir.a_name) with
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
       | _ -> raise (Bail "binding"))
  done;
  (* 4b. bulk marking needs every base the nest marks as only read to be
     stored by none of its arrays, and every base it marks as only written
     to be loaded by none: two names for one base (aliased pointer
     arguments) can break that *)
  if marking then
    Array.iteri
      (fun a bulk ->
        if bulk then
          for k = 0 to na - 1 do
            if p.abase.(k) = p.abase.(a)
               && (if p.aload.(a) then arrs.(k).Ir.a_stored else p.aload.(k))
            then raise (Bail "alias")
          done)
      p.bulk;
  (* 5. cursors: evaluate the affine coefficients and bound every
     position a cursor reaches; in-bounds extrema imply every reached
     access is in bounds.  The position is pos0 plus per-level terms
     coef*i_l, and each index spans [p.ilo, p.ihi] over the entries that
     run its level, so the sums of per-level extrema bound it.  With
     levels whose bounds read indexes those ranges ignore how the indexes
     move together ([tile[j - jj]] under [j = jj .. jj + T]), so the
     position's form over the levels' offsets ([cursor_form]) bounds it
     too, and the tighter bound counts.  A cursor with a nonzero
     coefficient at a level that never runs is never dereferenced (every
     access is scoped inside that level), so it skips the checks.  A
     cursor whose accesses all lie in site arms may reach outside the
     array at its endpoints without ever doing so (a tile loop guarded by
     [if (jj + t < n)]): it is checked at each access instead
     ([cur_checks]), after commit.  [mag] additionally bounds every
     intermediate position — any subset of levels entered, the index
     possibly one bump past its last iteration before the level's exit
     delta nets it out — so no position computation can wrap. *)
  let cursors = fl.Ir.fl_cursors in
  let ncur = Array.length cursors in
  expand p;
  for k = 0 to ncur - 1 do
    let cu = cursors.(k) in
    let a = cu.Ir.c_arr in
    let base = inv p cu.Ir.c_base in
    if base < -cap || base > cap then raise (Bail "bounds");
    let pos0 = base + p.aoff.(a) in
    let coefs = p.ccoef.(k) in
    let accessed = ref true in
    p.cck.(k) <- false;
    for l = 0 to nl - 1 do
      let coef = inv p cu.Ir.c_coefs.(l) in
      if coef < -coef_cap || coef > coef_cap then raise (Bail "bounds");
      coefs.(l) <- coef;
      if cu.Ir.c_coefs.(l) <> Ir.Iconst 0 && p.tmax.(l) = 0 then accessed := false
    done;
    if !accessed then begin
      cursor_form p k pos0;
      let lo_b = ref pos0 and hi_b = ref pos0 in
      let mag = ref (abs pos0) in
      for l = 0 to nl - 1 do
        let coef = coefs.(l) in
        if coef <> 0 && p.tmax.(l) > 0 then begin
          let x = cmul coef p.ilo.(l) and y = cmul coef p.ihi.(l) in
          lo_b := cadd !lo_b (Int.min x y);
          hi_b := cadd !hi_b (Int.max x y);
          mag := cadd !mag (cmul (abs coef) p.imag.(l))
        end
      done;
      let lo_x, hi_x = form_extrema p k ~from:0 in
      lo_b := Int.max !lo_b lo_x;
      hi_b := Int.min !hi_b hi_x;
      if !lo_b < 0 || !hi_b >= p.alen.(a) then
        if p.ckok.(k) then p.cck.(k) <- true else raise (Bail "bounds")
    end;
    p.cpos.(k) <- pos0;
    p.cpos0.(k) <- pos0;
    p.cfdata.(k) <- p.afdata.(a);
    p.cidata.(k) <- p.aidata.(a)
  done;
  (* 5b. per-level cursor deltas: entering level l at index lo adds
     coef*lo, each bump adds coef*step, and exiting subtracts
     coef*(lo + trip*step) — exactly what the enters and bumps summed to,
     restoring the enclosing level's position.  A level whose bounds read
     indexes learns lo and its trip count on each entry: its enter deltas
     hold the coefficients instead *)
  for l = 0 to nl - 1 do
    let cs = p.lev_cur.(l) in
    let en = p.enter_d.(l) and sd = p.step_d.(l) and ex = p.exit_d.(l) in
    let lo = p.llo.(l) and trip = p.trip.(l) and step = p.lstep.(l) in
    for j = 0 to Array.length cs - 1 do
      let coef = p.ccoef.(cs.(j)).(l) in
      sd.(j) <- coef * step;
      if p.lnr.(l) then en.(j) <- coef
      else begin
        en.(j) <- coef * lo;
        ex.(j) <- coef * (lo + (trip * step))
      end
    done
  done;
  (* 6. the nest's closures for this run, marking mode and checking mode
     (compiled on first use; an invalid register or id in the plan bails
     here) *)
  let ck = Array.mem true p.cck in
  let code = nest_code p st ~mk:marking ~ck ~prof in
  (* 7. whether the root level runs as parallel chunks *)
  let split = split_chunks p in
  (* ---- commit: from here on the fast path runs the nest to the end ---- *)
  Array.fill p.tk 0 (Array.length p.tk) 0;
  if prof then begin
    Array.fill p.lent 0 nl 0;
    p.nord <- 0
  end;
  if marking then begin
    Array.fill p.fpw 0 (Array.length p.fpw) no_fp;
    Array.fill p.fpr 0 (Array.length p.fpr) no_fp;
    for a = 0 to na - 1 do
      let base = p.abase.(a) in
      if List.for_all (fun rf -> is_scratch rf base) st.active_regions then begin
        p.fpw.(a) <- no_marks;
        p.fpr.(a) <- no_marks
      end
    done;
    (* chunks resolve nothing, and a declared array is allocated after
       every active frame began, so it is scratch to all of them *)
    if split <> None then
      Array.iter
        (fun a ->
          p.fpw.(a) <- no_marks;
          p.fpr.(a) <- no_marks)
        p.allocs
  end;
  let tracing = st.cfg.trace_aliases in
  if tracing then Array.fill p.called 0 (Array.length p.called) false;
  (match split with
   | None -> code ()
   | Some jobs -> run_split p st ~mk:marking ~ck ~prof jobs);
  (* the root iterations the clamp skipped made the root body's calls *)
  if tracing && p.trip.(0) < p.full then Array.iter (fun j -> p.called.(j) <- true) p.pcalls;
  if marking then mark_bulk p;
  (* exact totals: baseline plus taken deltas; the overflow
     pre-verification above guarantees none of this unchecked arithmetic
     can wrap, and the budget pre-check that [steps_left] stays positive *)
  let tot = p.tot in
  Array.blit p.wbase 0 tot 0 Counters.length;
  add_taken p tot p.lsites.(0);
  let steps = tot.(Counters.steps) in
  st.steps_left <- st.steps_left - steps;
  Counters.add_into st.counters tot;
  let dp = Domain.DLS.get domain_planned in
  dp := !dp + steps;
  acc.la_iterations <- acc.la_iterations + p.full;
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
      p.vcell.(k) := value
    end
  done;
  (* leave the root index where the failing loop test read it *)
  index := Value.Vint (root_lo + (p.full * p.lstep.(0)))

let try_run p st env (index : Value.t ref) (acc : loop_acc) : bool =
  try
    attempt p st env index acc;
    true
  with
  | Bail r ->
    record_bail p.fl.Ir.fl_loc r;
    false
  | Failure _ ->
    record_bail p.fl.Ir.fl_loc "memory";
    false

(* The walker's [run_nest] for one run under [plan]: each planned [For]
   prepares its nest on first entry, and the nest lives for the run *)
let runner (plan : Ir.plan) st =
  let nests : (int, prepared option) Hashtbl.t = Hashtbl.create 16 in
  fun sid env index acc ->
    let p =
      match Hashtbl.find_opt nests sid with
      | Some p -> p
      | None ->
        let p = Option.map prepare (Hashtbl.find_opt plan sid) in
        Hashtbl.replace nests sid p;
        p
    in
    match p with Some p -> try_run p st env index acc | None -> false
