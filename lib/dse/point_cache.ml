module Score = Cache.Make (struct
  type value = float

  let kind = "dsept"

  (* v2: entries use the Obs.Atomic_io record format *)
  let version = 2
end)

module Resources = Cache.Make (struct
  type value = Fpga_model.resources

  let kind = "dsefr"

  (* v2: entries use the Obs.Atomic_io record format *)
  let version = 2
end)

(* The context (device spec, kernel features, profile, base params) is
   digested once per DSE invocation; each point then costs one small
   string key.  Contexts must be closure-free (they are marshalled). *)
(* No_sharing: the profile inside a context may be freshly computed or
   unmarshalled from the disk tier; structural serialization keeps the
   key independent of that provenance *)
let ctx_key ~tag ctx = Digest.string (Marshal.to_string (tag, ctx) [ Marshal.No_sharing ])

(* Kernel profiles and static features embed raw statement ids, which
   depend on this process's id-allocation history — stable within a run
   but not across cold/warm runs.  For context keys the ids are replaced
   by positional information: inner loops by their index in [kp_inner],
   the serial-inner link by the index of the matching profile entry, and
   the baseline run's sid-keyed statistics by sorted sid-free lists. *)
let inner_index (kp : Kprofile.t) sid =
  let rec go i = function
    | [] -> -1
    | (il : Kprofile.inner_loop) :: _ when il.Kprofile.il_sid = sid -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 kp.Kprofile.kp_inner

let stable_kp (kp : Kprofile.t) =
  let r = kp.Kprofile.kp_cpu_baseline_result in
  {
    kp with
    Kprofile.kp_outer_sid = 0;
    kp_inner =
      List.mapi
        (fun i il -> { il with Kprofile.il_sid = i })
        kp.Kprofile.kp_inner;
    kp_outer_verdict = { kp.Kprofile.kp_outer_verdict with Dependence.loop_sid = 0 };
    kp_cpu_baseline_result =
      {
        r with
        Machine.loop_stats =
          List.sort compare (List.map (fun (_, ls) -> (0, ls)) r.Machine.loop_stats);
        region_stats =
          List.sort compare
            (List.map
               (fun (rg, rs) ->
                 ((match rg with Machine.Rstmt _ -> Machine.Rstmt 0 | rg -> rg), rs))
               r.Machine.region_stats);
      };
  }

let stable_ks ~(kp : Kprofile.t) (ks : Kstatic.t) =
  {
    ks with
    Kstatic.ks_has_serial_inner =
      Option.map
        (fun is -> { is with Kstatic.is_sid = inner_index kp is.Kstatic.is_sid })
        ks.Kstatic.ks_has_serial_inner;
  }

let point_key ctx point = ctx ^ "." ^ string_of_int point

let h_point_seconds = Obs.Metrics.histogram "dse.point.seconds"

(* Every point evaluation runs inside a [Dse_point] span — with or
   without the cache — so traces show the sweep shape either way, and
   each observation lands in the dse.point.seconds histogram that the
   run ledger persists. *)
let spanned ~tag eval point =
  Obs.Trace.with_span
    ~attrs:[ ("point", Obs.Trace.Int point) ]
    ~name:tag ~kind:Obs.Trace.Dse_point
    (fun _ ->
      let t0 = Obs.Monotonic.now_s () in
      Fun.protect
        ~finally:(fun () ->
          Obs.Metrics.Histogram.observe h_point_seconds
            (Obs.Monotonic.now_s () -. t0))
        (fun () -> eval point))

let scores ~tag ctx eval =
  if not (Cache.enabled ()) then spanned ~tag eval
  else
    let ctx = ctx_key ~tag ctx in
    fun point ->
      spanned ~tag
        (fun point ->
          Score.find_or_compute ~key:(point_key ctx point) (fun () -> eval point))
        point

let resources ~tag ctx eval =
  if not (Cache.enabled ()) then spanned ~tag eval
  else
    let ctx = ctx_key ~tag ctx in
    fun point ->
      spanned ~tag
        (fun point ->
          Resources.find_or_compute ~key:(point_key ctx point) (fun () -> eval point))
        point
