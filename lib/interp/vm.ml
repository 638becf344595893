(* The superinstruction VM backend: lower the program's canonical loops to
   the typed flat IR (bounds-elided cursors, fused opcode pairs, batched
   step/counter accounting), then run the walker with the plan installed.
   The walker offers each planned [For] to its nest (Fastloop); loops the
   lowering rejects — and any planned loop whose runtime guard declines
   (aliasing, step budget, overflow) — run on the walker itself, so the
   backend is observably identical to the walker on every program.  A
   plan keeps every access where the source performs it, so footprints
   are marked where the walker accesses memory; regions change the plan
   only in what they keep out of nests: a nest holding an [Rstmt]
   region, and a call of an [Rfunc] region, which is never inlined, so
   the region opens and closes around every call as in the walker. *)

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
  Ir_lower.plan ~region_sids ~region_funcs p

let run (config : Interp_rt.config) (p : Ast.program) : Interp_rt.result =
  Walker.run ~plan:(plan_of config p) config p
