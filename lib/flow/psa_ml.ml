type features = {
  ft_log_intensity : float;
  ft_log_transfer_ratio : float;
  ft_outer_parallel : float;
  ft_dep_inner : float;
  ft_unrollable_dep_inner : float;
  ft_log_outer_trips : float;
  ft_special_fraction : float;
}

let features_of ?(psa_config = Psa.default_config) (art : Artifact.t) =
  match
    ( art.Artifact.art_kprofile,
      art.Artifact.art_intensity,
      art.Artifact.art_t_cpu_single,
      art.Artifact.art_t_transfer )
  with
  | Some kp, Some ai, Some t_cpu, Some t_transfer ->
    let log10_pos x = Float.log10 (Float.max 1e-12 x) in
    let dep_inner =
      List.exists (fun (il : Kprofile.inner_loop) -> not il.Kprofile.il_parallel)
        kp.Kprofile.kp_inner
    in
    let unrollable_dep_inner =
      List.exists
        (fun (il : Kprofile.inner_loop) ->
          (not il.Kprofile.il_parallel)
          &&
          match il.Kprofile.il_static_trips with
          | Some n -> n <= psa_config.Psa.unroll_threshold
          | None -> false)
        kp.Kprofile.kp_inner
    in
    let c = kp.Kprofile.kp_counters in
    let specials = float_of_int (Counters.flops_of c Counters.Special) in
    let flops = float_of_int (Counters.flops c) in
    Ok
      {
        ft_log_intensity = log10_pos ai.Intensity.ai_value;
        ft_log_transfer_ratio = log10_pos (t_cpu /. Float.max 1e-12 t_transfer);
        ft_outer_parallel = (if kp.Kprofile.kp_outer_parallel then 1.0 else 0.0);
        ft_dep_inner = (if dep_inner then 1.0 else 0.0);
        ft_unrollable_dep_inner = (if unrollable_dep_inner then 1.0 else 0.0);
        ft_log_outer_trips = log10_pos (float_of_int kp.Kprofile.kp_outer_trips);
        ft_special_fraction = (if flops = 0.0 then 0.0 else specials /. flops);
      }
  | _, _, _, _ -> Error "learned PSA needs the target-independent analyses to have run"

let to_vector f =
  [|
    f.ft_log_intensity;
    f.ft_log_transfer_ratio;
    f.ft_outer_parallel;
    f.ft_dep_inner;
    f.ft_unrollable_dep_inner;
    f.ft_log_outer_trips;
    f.ft_special_fraction;
  |]

type example = { ex_features : features; ex_label : string }

let branch_of_target = function
  | Target.Omp _ -> "cpu"
  | Target.Gpu _ -> "gpu"
  | Target.Fpga _ -> "fpga"

let label_of_report (rep : Engine.report) =
  match Engine.best_design rep with
  | None -> None
  | Some best ->
    (match features_of rep.Engine.rep_analysed with
     | Ok ft -> Some { ex_features = ft; ex_label = branch_of_target best.Design.d_target }
     | Error _ -> None)

type model = {
  m_mean : float array;
  m_scale : float array;         (* 1 / stddev, 1 when degenerate *)
  m_points : (float array * string) list;  (* standardised *)
  m_labels : string list;
}

let dims = 7

let standardise mean scale v =
  Array.init dims (fun i -> (v.(i) -. mean.(i)) *. scale.(i))

let train = function
  | [] -> Error "empty training set"
  | examples ->
    let vectors = List.map (fun e -> to_vector e.ex_features) examples in
    let n = float_of_int (List.length vectors) in
    let mean =
      Array.init dims (fun i ->
          List.fold_left (fun acc v -> acc +. v.(i)) 0.0 vectors /. n)
    in
    let scale =
      Array.init dims (fun i ->
          let var =
            List.fold_left (fun acc v -> acc +. ((v.(i) -. mean.(i)) ** 2.0)) 0.0 vectors
            /. n
          in
          let sd = sqrt var in
          if sd < 1e-9 then 1.0 else 1.0 /. sd)
    in
    let points =
      List.map2
        (fun v e -> (standardise mean scale v, e.ex_label))
        vectors examples
    in
    let labels =
      List.sort_uniq compare (List.map (fun e -> e.ex_label) examples)
    in
    Ok { m_mean = mean; m_scale = scale; m_points = points; m_labels = labels }

let distance2 a b =
  let acc = ref 0.0 in
  for i = 0 to dims - 1 do
    acc := !acc +. ((a.(i) -. b.(i)) ** 2.0)
  done;
  !acc

let predict model features =
  let q = standardise model.m_mean model.m_scale (to_vector features) in
  let best =
    List.fold_left
      (fun acc (p, label) ->
        let d = distance2 q p in
        match acc with
        | None -> Some (d, label)
        | Some (db, _) when d < db -> Some (d, label)
        | Some _ -> acc)
      None model.m_points
  in
  match best with Some (_, label) -> label | None -> "cpu"

let strategy model art =
  match features_of art with
  | Error _ as e -> (match e with Error m -> Error m | Ok _ -> assert false)
  | Ok ft ->
    let branch = predict model ft in
    Graph.select
      ~reasons:[ Printf.sprintf "learned 1-NN strategy chose %s" branch ]
      [ branch ]

let labels model = model.m_labels
