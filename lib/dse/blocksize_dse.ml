type result = {
  bd_program : Ast.program;
  bd_blocksize : int;
  bd_estimate : Gpu_model.estimate;
  bd_sweep : (int * float) list;
}

let run (spec : Device.gpu_spec) (ks : Kstatic.t) (kp : Kprofile.t) ~base p ~launch_fn =
  let candidates = Search.powers_of_two ~lo:32 ~hi:1024 in
  let eval =
    Search.observed ~tag:"gpu-blocksize" (fun blocksize ->
        (Gpu_model.estimate spec ks kp { base with Gpu_model.blocksize })
          .Gpu_model.ge_time_s)
  in
  let sweep = Search.sweep_all candidates ~eval in
  let best =
    match Search.best sweep with
    | Some b -> b.Search.point
    | None -> 256
  in
  {
    bd_program = Hip.set_blocksize p ~launch_fn best;
    bd_blocksize = best;
    bd_estimate = Gpu_model.estimate spec ks kp { base with Gpu_model.blocksize = best };
    bd_sweep = List.map (fun (c : int Search.evaluated) -> (c.point, c.score)) sweep;
  }
