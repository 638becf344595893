type 'p evaluated = { point : 'p; score : float }

let h_point_seconds = Obs.Metrics.histogram "dse.point.seconds"

(* Every model call runs inside a [Dse_point] span, so traces show the
   sweep shape, and lands in the dse.point.seconds histogram that the
   run ledger persists. *)
let observed ~tag eval point =
  Obs.Trace.with_span
    ~attrs:[ ("point", Obs.Trace.Int point) ]
    ~name:tag ~kind:Obs.Trace.Dse_point
    (fun _ ->
      let t0 = Obs.Monotonic.now_s () in
      Fun.protect
        ~finally:(fun () ->
          Obs.Metrics.Histogram.observe h_point_seconds (Obs.Monotonic.now_s () -. t0))
        (fun () -> eval point))

let sweep_all points ~eval =
  (* one future per point, settled in input order; spawning is cheap
     enough that even 1–2 point sweeps (constant in nested DSE calls) no
     longer warrant a serial fast path, and the futures let a sweep
     overlap with sibling branch paths instead of barriering on them *)
  points
  |> List.map (fun point -> Util.Pool.Fut.spawn (fun () -> { point; score = eval point }))
  |> Util.Pool.Fut.await_all

let best evaluated =
  let pick acc c =
    if not (Float.is_finite c.score) then acc
    else
      match acc with
      | None -> Some c
      | Some b -> if c.score < b.score then Some c else acc
  in
  List.fold_left pick None evaluated

let sweep points ~eval = best (sweep_all points ~eval)

let doubling_until ~init ~max ~feasible =
  if init <= 0 then invalid_arg "Search.doubling_until: init must be positive";
  if init > max || not (feasible init) then None
  else begin
    let rec grow n =
      let next = 2 * n in
      if next > max then n else if feasible next then grow next else n
    in
    Some (grow init)
  end

let powers_of_two ~lo ~hi =
  if lo <= 0 then invalid_arg "Search.powers_of_two: lo must be positive";
  let rec collect n acc = if n > hi then List.rev acc else collect (2 * n) (n :: acc) in
  collect lo []
