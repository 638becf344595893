type result = {
  ud_program : Ast.program;
  ud_unroll : int option;
  ud_estimate : Fpga_model.estimate;
  ud_trace : (int * float) list;
}

let max_unroll = 1024

let run (spec : Device.fpga_spec) (ks : Kstatic.t) (kp : Kprofile.t) ~zero_copy p
    ~kernel_fn =
  let resources_for =
    Search.observed ~tag:"fpga-unroll" (fun unroll ->
        Fpga_model.resources_of spec ks ~unroll)
  in
  let trace = ref [] in
  let feasible unroll =
    let r = resources_for unroll in
    trace := (unroll, r) :: !trace;
    r.Fpga_model.r_alm_frac <= Fpga_model.overmap_threshold
    && r.Fpga_model.r_dsp_frac <= Fpga_model.overmap_threshold
  in
  let unroll = Search.doubling_until ~init:1 ~max:max_unroll ~feasible in
  let factor = Option.value unroll ~default:1 in
  (* the doubling loop already evaluated the winner's resource report;
     hand it to the estimator instead of recomputing it *)
  let resources = List.assoc_opt factor !trace in
  let estimate =
    Fpga_model.estimate ?resources spec ks kp { Fpga_model.unroll = factor; zero_copy }
  in
  let program =
    match unroll with
    | Some factor -> Unroll.set_outer_unroll p ~kernel:kernel_fn ~factor
    | None -> p
  in
  {
    ud_program = program;
    ud_unroll = unroll;
    ud_estimate = estimate;
    ud_trace =
      List.rev_map (fun (u, r) -> (u, r.Fpga_model.r_alm_frac)) !trace;
  }
