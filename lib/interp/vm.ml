(* The superinstruction VM backend: lower the program's canonical loops to
   the typed flat IR (bounds-elided cursors, fused opcode pairs, batched
   step/counter accounting), then run the closure compiler with the plan
   installed.  Loops the lowering rejects — and any planned loop whose
   runtime guard declines (aliasing, step budget, overflow) — execute on
   the reference compiled closures, so the backend is observably identical
   to [Compile.run] and [Walker.run] on every program.  Runs with
   observation regions are planned without code motion, so footprints are
   marked only where the walker accesses memory; a call of an [Rfunc]
   region is never inlined into a nest, so the region opens and closes
   around every call as in the walker. *)

let plan_of (cfg : Interp_rt.config) (p : Ast.program) : Ir.plan =
  let regions = cfg.Interp_rt.regions in
  let region_sids =
    List.filter_map
      (function Interp_rt.Rstmt sid -> Some sid | Interp_rt.Rfunc _ -> None)
      regions
  in
  let region_funcs =
    List.filter_map
      (function Interp_rt.Rfunc f -> Some f | Interp_rt.Rstmt _ -> None)
      regions
  in
  Ir_lower.plan ~region_sids ~region_funcs ~motion:(regions = []) p

let run (config : Interp_rt.config) (p : Ast.program) : Interp_rt.result =
  Compile.run ~plan:(plan_of config p) config p
