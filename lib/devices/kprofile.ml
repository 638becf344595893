type inner_loop = {
  il_sid : int;
  il_static_trips : int option;
  il_iters_per_outer : float;
  il_fully_unrollable : bool;
  il_fp_reduction : bool;
  il_parallel : bool;
}

type t = {
  kp_kernel : string;
  kp_invocations : int;
  kp_outer_sid : int;
  kp_outer_trips : int;
  kp_counters : Counters.t;
  kp_bytes_in : int;
  kp_bytes_out : int;
  kp_footprint_bytes : int;
  kp_outer_verdict : Dependence.verdict;
  kp_outer_parallel : bool;
  kp_inner : inner_loop list;
  kp_no_alias : bool;
  kp_cpu_baseline_result : Machine.result;
}

let collect ?config ?(unroll_threshold = 64) (p : Ast.program) ~kernel =
  match Ast.find_func p kernel with
  | None -> Error (Printf.sprintf "kernel function %s not found" kernel)
  | Some fn ->
    (match Query.outermost_loops fn with
     | [] -> Error (Printf.sprintf "kernel %s contains no loop" kernel)
     | outer :: _ ->
       let result = Memo.run ~config:(Memo.analysis_config ?config ~kernel ()) p in
       (match Machine.find_region_stats result (Machine.Rfunc kernel) with
        | None -> Error (Printf.sprintf "kernel %s was never invoked" kernel)
        | Some region ->
          let consts = Consteval.of_program p in
          let outer_stats = Machine.find_loop_stats result outer.lm_stmt.sid in
          let outer_trips =
            match outer_stats with
            | Some s -> s.Machine.ls_iterations
            | None -> 0
          in
          let verdict = Dependence.analyse_loop ~consts p outer in
          let is_fp (v : Dependence.verdict) =
            List.exists
              (fun (r : Dependence.reduction) -> Ast.is_float_ty r.red_ty)
              v.reductions
          in
          let inner =
            List.map
              (fun (lm : Query.loop_match) ->
                let v = Dependence.analyse_loop ~consts p lm in
                let stats = Machine.find_loop_stats result lm.lm_stmt.sid in
                let per_outer =
                  match stats with
                  | Some s when outer_trips > 0 ->
                    float_of_int s.Machine.ls_iterations /. float_of_int outer_trips
                  | Some _ | None -> 0.0
                in
                {
                  il_sid = lm.lm_stmt.sid;
                  il_static_trips = Dependence.static_trip_count consts lm.lm_header;
                  il_iters_per_outer = per_outer;
                  il_fully_unrollable =
                    Dependence.fully_unrollable ~threshold:unroll_threshold consts lm;
                  il_fp_reduction = is_fp v;
                  il_parallel = v.Dependence.parallel;
                })
              (Query.inner_loops outer)
          in
          let no_alias =
            match List.assoc_opt kernel result.Machine.aliased_funcs with
            | Some aliased -> not aliased
            | None -> false
          in
          Ok
            {
              kp_kernel = kernel;
              kp_invocations = region.Machine.rs_invocations;
              kp_outer_sid = outer.lm_stmt.sid;
              kp_outer_trips = outer_trips;
              kp_counters = region.Machine.rs_counters;
              kp_bytes_in = region.Machine.rs_bytes_in;
              kp_bytes_out = region.Machine.rs_bytes_out;
              kp_footprint_bytes =
                region.Machine.rs_bytes_in + region.Machine.rs_bytes_out;
              kp_outer_verdict = verdict;
              kp_outer_parallel = verdict.Dependence.parallel_with_reductions;
              kp_inner = inner;
              kp_no_alias = no_alias;
              (* drop the final memory image: profiles are kept inside
                 artifacts for the lifetime of a flow, and no consumer
                 reads [memory] — only output, counters and the
                 loop/region statistics.  The image is ~800 KB per app. *)
              kp_cpu_baseline_result = { result with Machine.memory = Memory.create () };
            }))

let scale t k =
  if k <= 1 then t
  else
    {
      t with
      kp_outer_trips = k * t.kp_outer_trips;
      kp_counters = Counters.scale t.kp_counters k;
      kp_bytes_in = k * t.kp_bytes_in;
      kp_bytes_out = k * t.kp_bytes_out;
      kp_footprint_bytes = k * t.kp_footprint_bytes;
    }
