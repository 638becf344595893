type result = {
  td_program : Ast.program;
  td_threads : int;
  td_estimate : Cpu_model.estimate;
  td_sweep : (int * float) list;
}

let run (spec : Device.cpu_spec) (kp : Kprofile.t) p ~kernel =
  let candidates = Search.powers_of_two ~lo:1 ~hi:spec.Device.cores in
  let candidates =
    if List.mem spec.Device.cores candidates then candidates
    else candidates @ [ spec.Device.cores ]
  in
  let eval =
    Search.observed ~tag:"cpu-threads" (fun threads ->
        (Cpu_model.openmp spec ~threads kp).Cpu_model.ce_time_s)
  in
  let sweep = Search.sweep_all candidates ~eval in
  let best =
    match Search.best sweep with
    | Some b -> b.Search.point
    | None -> spec.Device.cores
  in
  {
    td_program = Openmp.set_num_threads p ~kernel ~threads:best;
    td_threads = best;
    td_estimate = Cpu_model.openmp spec ~threads:best kp;
    td_sweep = List.map (fun (c : int Search.evaluated) -> (c.point, c.score)) sweep;
  }
