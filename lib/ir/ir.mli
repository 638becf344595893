(** Typed flat IR for the superinstruction VM backend.

    The lowering pass ({!Ir_lower}) selects canonical counted [for] loop
    {e nests} — an outer loop whose inner loops have nest-invariant bounds
    — whose bodies are statically typed code with structured control flow
    ([if] statements and ternaries), and compiles each into a
    {!fast_loop}: a tree of blocks over flat arrays of register-style
    instructions ({!fop}) on unboxed float and int register files, plus
    everything the executing backend needs to stay observably identical
    to the reference tree walker — static per-block hardware-counter
    deltas, per-site taken counters for the data-dependent part of the
    accounting, and nest-invariant index expressions whose runtime values
    drive bounds-check elision across every level.

    The IR is purely structural: it references variables and arrays by
    name/id and never captures closures or runtime values, so it can be
    built once per program, hashed into memoization keys (see {!version}),
    and bound to a concrete frame by whichever backend executes it. *)

val version : int
(** Version of the IR semantics and instruction encoding.  Folded into
    interpreter memoization keys alongside the backend tag so cached
    results produced by an older lowering are never replayed.  4 since
    the single-precision superinstructions, 5 since planned nests inline
    statement calls to leaf user functions, 6 since nests declare arrays
    and check cursors of site arms per access. *)

(** {1 Scalar bindings} *)

(** Floating-point precision of a register or operation.  Single-precision
    results are demoted through a 32-bit round trip exactly like
    [Value.demote]. *)
type prec = Psingle | Pdouble

(** Static kind of an external scalar variable captured by a loop.
    Booleans are carried as 0/1 integers. *)
type var_kind = Kint | Kbool | Kfloat of prec

type var = {
  v_name : string;  (** source name, resolved against the enclosing scope *)
  v_global : bool;
      (** read by an inlined callee, whose only free names are globals: the
          name resolves to the global even where the function holding the
          nest binds a local or parameter of the same name *)
  v_kind : var_kind;
  v_reg : int;  (** register (int or float file, per [v_kind]) *)
  v_written : bool;  (** written in the body: written back on loop exit *)
}

(** {1 Arrays and access paths} *)

(** Exact element type an access site assumes; the runtime guard verifies
    the resolved array matches before the fast path may run. *)
type ety = Efloat32 | Efloat64 | Eint | Ebool

(** Nest-invariant integer expression, evaluated once by the runtime guard
    (trip counts, affine coefficients).  [Ivar] indexes the {!var} table
    and must reference an int-kinded, unwritten variable; evaluation is
    total (no division, no effects).  [Imin]/[Imax] are the [imin]/[imax]
    intrinsics (tile clamps such as [imin(jj + 256, N)]); they appear in
    loop bounds and array sizes, never in affine access paths. *)
type iexpr =
  | Iconst of int
  | Ivar of int
  | Iadd of iexpr * iexpr
  | Isub of iexpr * iexpr
  | Imul of iexpr * iexpr
  | Ineg of iexpr
  | Imin of iexpr * iexpr
  | Imax of iexpr * iexpr

type arr = {
  a_name : string;
  a_global : bool;  (** resolves to the global, as [v_global] does for variables *)
  a_ety : ety;
  a_stored : bool;  (** some access site stores through this array *)
  a_size : iexpr option;
      (** [Some n] for an array the nest declares ([double t\[n\];] with [n]
          nest-invariant): not resolved from the enclosing scope, but
          allocated fresh and zeroed by every execution of its declaration
          ({!fop.Alloc}), [n] elements long *)
}

(** Affine access path across the whole nest: element index =
    [sum_l coefs.(l) * i_l + base] over the levels' loop variables (the
    pointer's own offset is added by the guard).  All components are
    nest-invariant, so in-bounds endpoints per level imply every reached
    iteration is in bounds — this is what licenses bounds-check elision.
    [c_coefs] is indexed by level id (0 = root).  [c_arm] is [Some loc]
    for a cursor whose accesses all lie in site arms and report an
    out-of-bounds index at [loc]: when its endpoints fall outside the
    array, the guard checks it at each access instead of declining the
    nest. *)
type cursor = {
  c_arr : int;
  c_coefs : iexpr array;
  c_base : iexpr;
  c_arm : Loc.t option;
}

(** Comparison operator for {!fop.ICmp}/{!fop.FCmp}. *)
type cmpop = Clt | Cle | Cgt | Cge | Ceq | Cne

(** {1 Instructions}

    Registers are indices into per-loop unboxed register files: [f]
    (floats) and [n] (ints; booleans as 0/1).  Plain arithmetic operates
    at double precision; [...S] variants demote the result through single
    precision.  [Ld]/[St] address memory through a {!cursor} with no
    per-access bounds check (unless its [c_arm] check is armed); [...Ck] variants take a runtime index
    register and check bounds, raising the walker's exact out-of-bounds
    error.  [ICmp]/[FCmp] materialise comparison results as 0/1 ints
    (each modelled as one integer op, like the walker).  The fused
    superinstructions at the end collapse the opcode pairs that dominate
    the suite's counter profile (load-sub, mul-add chains, and
    read-modify-write accumulations), in double and in single precision.
    Fusion runs after the static counter deltas are computed, so it never
    changes accounting.  An [FDem] that directly follows the op producing
    its single-use operand is dropped when that op is single-precision
    (its result is already demoted, and demotion is idempotent) and folded
    into the op's [...S] form when it is a double op. *)
type fop =
  (* constants and moves *)
  | FConst of int * float
  | IConst of int * int
  | FMov of int * int
  | IMov of int * int
  (* conversions *)
  | ItoF of int * int  (** float reg <- float_of_int (int reg) *)
  | FtoI of int * int  (** int reg <- int_of_float (float reg) *)
  | FtoB of int * int  (** int reg <- (float reg <> 0.) as 0/1 *)
  | ItoB of int * int  (** int reg <- (int reg <> 0) as 0/1 *)
  | FDem of int * int  (** float reg <- demoted float reg *)
  (* float arithmetic (double, then single-demoted) *)
  | FAdd of int * int * int
  | FSub of int * int * int
  | FMul of int * int * int
  | FDiv of int * int * int
  | FNeg of int * int
  | FAddS of int * int * int
  | FSubS of int * int * int
  | FMulS of int * int * int
  | FDivS of int * int * int
  (* int arithmetic; division and modulo raise the walker's
     divide-by-zero error at the recorded location *)
  | IAdd of int * int * int
  | ISub of int * int * int
  | IMul of int * int * int
  | INeg of int * int
  | IDivZ of int * int * int * Loc.t
  | IModZ of int * int * int * Loc.t
  | IAbs of int * int
  | IMin of int * int * int
  | IMax of int * int * int
  (* comparisons and boolean negation (results are 0/1 ints) *)
  | ICmp of cmpop * int * int * int  (** [(op, d, a, b)] over int regs *)
  | FCmp of cmpop * int * int * int  (** [(op, d, a, b)] over float regs *)
  | INot of int * int  (** d <- 1 - truth(a) *)
  (* math intrinsics, pre-resolved to direct operations *)
  | FMath1 of Intrinsic.fn1 * int * int
  | FMath1S of Intrinsic.fn1 * int * int
  | FMath2 of Intrinsic.fn2 * int * int * int
  | FMath2S of Intrinsic.fn2 * int * int * int
  | Rand of int  (** float reg <- next PRNG draw *)
  (* memory, affine (bounds elided by the guard) *)
  | FLd of int * int  (** float reg <- farray(cursor) *)
  | FSt of int * int  (** farray(cursor) <- float reg, raw *)
  | FStDem of int * int  (** farray(cursor) <- demoted float reg *)
  | ILd of int * int
  | ISt of int * int
  | IStB of int * int  (** bool array store: normalise to 0/1 *)
  (* memory, runtime-checked (non-affine index in an int register) *)
  | FLdCk of int * int * int * Loc.t  (** dst, arr, idx reg, error loc *)
  | FStCk of int * int * int * Loc.t  (** arr, idx reg, src, error loc *)
  | ILdCk of int * int * int * Loc.t
  | IStCk of int * int * int * Loc.t
  (* superinstructions *)
  | FLdSub of int * int * int  (** dst <- farray(cur) -. freg *)
  | FLdSub2 of int * int * int  (** dst <- farray(cur1) -. farray(cur2) *)
  | FLdMul of int * int * int  (** dst <- farray(cur) *. freg *)
  | FLdAdd of int * int * int  (** dst <- farray(cur) +. freg *)
  | FMulAdd of int * int * int * int  (** [(d, a, b, c)]: d <- a *. b +. c *)
  | FAddMul of int * int * int * int  (** [(d, c, a, b)]: d <- c +. a *. b *)
  | FSubMul of int * int * int * int  (** [(d, c, a, b)]: d <- c -. a *. b *)
  | FRecip of int * int  (** d <- 1.0 /. a *)
  | FRsqrt of int * int  (** d <- 1.0 /. sqrt a *)
  | FAccSt of int * int  (** farray(cur) <- farray(cur) +. freg *)
  | FMulAccSt of int * int * int  (** farray(cur) <- farray(cur) +. a *. b *)
  (* single-precision superinstructions: the same shapes over the [...S]
     arithmetic, demoting after every step exactly as the unfused
     sequence does ([dem] is the 32-bit round trip) *)
  | FLdSubS of int * int * int  (** dst <- dem (farray(cur) -. freg) *)
  | FLdSub2S of int * int * int  (** dst <- dem (farray(cur1) -. farray(cur2)) *)
  | FLdMulS of int * int * int  (** dst <- dem (farray(cur) *. freg) *)
  | FLdAddS of int * int * int  (** dst <- dem (farray(cur) +. freg) *)
  | FMulAddS of int * int * int * int
      (** [(d, a, b, c)]: d <- dem (dem (a *. b) +. c) *)
  | FAddMulS of int * int * int * int
      (** [(d, c, a, b)]: d <- dem (c +. dem (a *. b)) *)
  | FSubMulS of int * int * int * int
      (** [(d, c, a, b)]: d <- dem (c -. dem (a *. b)) *)
  (* array declarations *)
  | Alloc of int
      (** the declaration of array [a] (an [a_size] array) ran: allocate
          it fresh, as the walker does at that point *)
  (* inlined calls *)
  | Called of int
      (** inlined call site [k] (index into [fl_calls]) ran; only alias
          tracing observes it, and it does nothing otherwise *)

(** {1 Lowered loop nests}

    A planned nest is a tree of {!block}s.  A block's [b_cnt] is the
    {e static} cost of running the block once, in the interpreter's
    counter layout ({!Counters.t}, steps included): straight-line ops,
    each statement's own step, each site's branch + condition cost, and
    each inner [For]'s own step — but {e not} site arms (dynamic, covered
    by taken counters) or loop iterations (covered by trip counts).
    Computed statically per block so the executing backend can batch a
    whole nest's worth of counting into one update per entry. *)
type block = { b_items : bitem array; b_cnt : Counters.t }

(** One item of a block: a straight-line instruction run, a control-flow
    site (index into [fl_sites]), or an inner loop (index into
    [fl_levels]). *)
and bitem = Bops of fop array | Bsite of int | Bloop of int

(** One [if]/ternary/short-circuit site: [s_cond] is an int register
    holding 0/1 (written by the ops preceding the site); exactly one arm
    block runs per execution.  The executing backend counts taken
    then-arms per site so step/op accounting stays exact when the arms
    cost differently. *)
type site = { s_cond : int; s_then : block; s_else : block }

(** One loop level of the nest.  Level 0 is the root: its [l_lo] is
    unused (the root's initial index value is read from the index cell,
    already evaluated by the walker) and [l_lo_ops] is 0.  Inner levels' bounds are nest-invariant, so every level has a
    constant trip count for the whole entry. *)
type level = {
  l_sid : int;  (** statement id of the [For] this level came from *)
  l_cle : bool;  (** comparison is [<=] rather than [<] *)
  l_lo : iexpr;
  l_lo_ops : int;  (** int ops counted per evaluation of the bound *)
  l_hi : iexpr;
  l_hi_ops : int;
  l_step : iexpr;
  l_step_ops : int;
  l_index_reg : int option;  (** int reg refreshed with [i_l] each iteration *)
  l_body : block;
}

(** One call inlined into a nest: the callee, and the arrays (indices
    into [fl_arrs]) its pointer arguments bind to, in argument order — the
    bases alias tracing records for the call. *)
type call = { k_func : string; k_ptrs : int array }

(** One canonical loop nest lowered to the flat IR.  The root level's
    body executes once per outer iteration; [fl_prologue] (hoisted
    constants and nest-invariant loads) once per entry after the guard
    commits, and [fl_epilogue] (write-backs of register-promoted array
    cells) once on normal exit.  [fl_hoisted] and [fl_promoted] name the
    arrays whose loads/cells were moved out of the nest; the guard
    re-checks at runtime that their bases do not alias any conflicting
    access before using the fast path. *)
type fast_loop = {
  fl_sid : int;  (** statement id of the root [For] *)
  fl_loc : Loc.t;  (** source location of the root [For] (diagnostics) *)
  fl_levels : level array;  (** level 0 = root *)
  fl_sites : site array;
  fl_vars : var array;
  fl_arrs : arr array;
  fl_cursors : cursor array;
  fl_calls : call array;  (** inlined call sites, in program order *)
  fl_prologue : fop array;
  fl_epilogue : fop array;
  fl_nf : int;  (** float register file size *)
  fl_ni : int;  (** int register file size *)
  fl_hoisted : int array;  (** arrs with loads hoisted into the prologue *)
  fl_promoted : int array;  (** arrs register-promoted across the nest *)
}

(** Plan for a whole program: lowered nests keyed by [For] statement id.
    Inner loops of a planned nest also get their own independent entries,
    so the walker's fallback path still fast-paths them when the outer
    guard declines. *)
type plan = (int, fast_loop) Hashtbl.t

val ety_of_ty : Ast.ty -> ety option
(** Scalar element types only; [None] for [void] and pointers. *)

val ty_of_ety : ety -> Ast.ty
