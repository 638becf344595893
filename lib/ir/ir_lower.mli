(** Lowering pass: select canonical counted [for] loop nests and compile
    them to {!Ir.fast_loop} plans for the VM backend.

    A loop nest is plannable when every level's bounds are nest-invariant
    integer expressions (literals, unassigned outer int scalars, and
    [+]/[-]/[*]/negation/[imin]/[imax] over those), its body contains only statically
    typed statements the flat IR can express — declarations, assignments,
    expression statements, [if] statements, inner [for] loops, scopes,
    statement calls of leaf user functions — and all array accesses go
    through plain outer pointer variables or arrays the nest declares.
    An array declaration [T a\[n\];] needs a nest-invariant size [n]; each
    execution allocates a fresh zeroed array ([Ir.fop.Alloc]), as the
    walker does, so memory images and allocation order stay identical.
    A statement call [f(args);] is inlined: the arguments are lowered left
    to right in the caller's scope and the call is counted
    ([Counters.calls]); by-value parameters get fresh registers holding
    the arguments converted as [Value.coerce] converts, pointer parameters
    bind to the caller's array operands (plain pointer variables bound
    outside the nest); the body is lowered in its own scope — its
    parameters, its locals and the globals, so a global it reads binds to
    the global even where the caller has a same-named local
    ([Ir.var.v_global]).  The nest stays unplanned when the callee calls
    a user function (recursion included), is an [Rfunc] region of the run,
    is non-void, returns other than by a final [return;], is called with
    the wrong arity, or when a nest inlines two distinct
    callees not all called on every root iteration (alias tracing needs
    their first calls in a fixed order).
    Ternaries and short-circuit [&&]/[||] lower to control-flow sites with
    per-site taken counters, so the executing VM's batched step and
    hardware-counter accounting stays exact even when arms cost
    differently.  Loops containing [while], [return], [break],
    [continue], user function calls inside expressions, or statements
    that are themselves [Rstmt] observation regions are rejected, as is
    anything whose counter or rounding behaviour the flat IR cannot
    replicate bit-for-bit; rejected
    loops simply run on the walker, so lowering is a pure, sound
    optimisation with no effect on observable semantics (values, step
    budgets, counters, loop and region statistics, error messages, PRNG
    draws, or printed output).  Only [Rstmt] regions inside the nest and
    [Rfunc] regions on a callee make a nest unplannable: a nest running
    inside an active region (an [Rfunc] body, or an [Rstmt] around the
    whole nest) and a nest under [profile_loops] both stay planned.

    Lowering is purely syntactic + type-directed: it never looks at
    runtime values.  All value-dependent safety conditions (trip counts,
    bounds, aliasing, overflow) are checked per nest entry by the runtime
    guard in [Fastloop]. *)

(** Why a given [for] statement did or did not get a plan.  [Planned]
    reports the nest shape actually lowered (number of levels including
    the root, and number of control-flow sites). *)
type outcome =
  | Planned of { levels : int; sites : int }
  | Unplannable of string

val plan :
  ?region_sids:int list ->
  ?region_funcs:string list ->
  ?motion:bool ->
  Ast.program ->
  Ir.plan
(** [plan ~region_sids ~region_funcs ~motion p] typechecks [p] and builds
    fast-loop plans for every plannable [for] nest, keyed by the root [For]
    statement id.  Loops whose body contains a statement in [region_sids]
    ([Rstmt] observation regions) are not planned, since a region that
    starts and ends inside a nest needs per-statement granularity; nor are
    loops that call a function in [region_funcs] ([Rfunc] regions), whose
    region opens and closes on every call.
    [motion] (default [true]) enables hoisting nest-invariant loads into
    the prologue and promoting invariant cells to registers; runs with
    observation regions plan with [~motion:false], so every access marks
    footprints exactly where and when the walker performs it.  Inner loops
    of a planned nest also get independent entries of their own, so the
    walker's fallback still fast-paths them when the outer guard
    declines.  Programs that fail {!Typecheck.check_program} produce an
    empty plan (the backends reproduce the walker's dynamic behaviour
    instead). *)

val plan_report :
  ?region_sids:int list ->
  ?region_funcs:string list ->
  Ast.program ->
  (Loc.t * outcome) list
(** Same walk as {!plan}, but returns one entry per [for] statement (in
    deterministic program order, outer loops before the loops they
    contain) describing the planning outcome — used by [--explain] to
    make coverage misses diagnosable. *)
