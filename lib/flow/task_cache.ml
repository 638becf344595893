exception Task_failed of string

module C = Cache.Make (struct
  type value = Artifact.t

  let kind = "task"

  (* v2: Artifact.t gained [art_prov]; older marshalled layouts must miss.
     v3: kernel profiles no longer retain the baseline run's final memory
     image; v2 entries would splice the ~800 KB images back in.
     v4: entries use the Obs.Atomic_io record format. *)
  let version = 4
end)

(* Only the expensive task classes are cached: dynamic tasks run the
   interpreter and Optimisation tasks run DSE sweeps.  Static transforms
   are cheaper to recompute than to key (they would also recompute with
   fresh node ids, which keeps id allocation on the `--cache off` path
   byte-identical to a cache-free build). *)
let cacheable (t : Task.t) = t.Task.dynamic || t.Task.kind = Task.Optimisation

(* Structural log lines only: task tags "[name]" (from {!Task.apply}) and
   branch tags "<branch b -> p>" (from {!Graph.run}).  Free-text lines
   are dropped from the key because they embed raw statement ids, which
   are allocation-order-dependent; the tag subsequence alone identifies
   which flow path produced the artifact. *)
let tag_line l = String.length l > 0 && (l.[0] = '[' || l.[0] = '<')

(* Canonical projection of an artifact: the program in canonical id
   space, every sid-bearing field translated through the same mapping
   (sids minted by earlier interpreter runs but since rewritten away map
   to -1), and the log reduced to its tag subsequence.  Two artifacts
   with equal projections are indistinguishable to any task. *)
let project (art : Artifact.t) =
  let canon_p, to_canon, _ = Memo.canonicalize art.Artifact.art_program in
  let t sid = match Hashtbl.find_opt to_canon sid with Some s -> s | None -> -1 in
  let t_region = function
    | Machine.Rstmt s -> Machine.Rstmt (t s)
    | r -> r
  in
  let t_result (r : Machine.result) =
    {
      r with
      Machine.loop_stats =
        List.sort compare
          (List.map (fun (s, ls) -> (t s, ls)) r.Machine.loop_stats);
      region_stats =
        List.sort compare
          (List.map (fun (rg, rs) -> (t_region rg, rs)) r.Machine.region_stats);
    }
  in
  let t_kp (kp : Kprofile.t) =
    {
      kp with
      Kprofile.kp_outer_sid = t kp.Kprofile.kp_outer_sid;
      kp_inner =
        List.map
          (fun il -> { il with Kprofile.il_sid = t il.Kprofile.il_sid })
          kp.Kprofile.kp_inner;
      kp_outer_verdict =
        { kp.Kprofile.kp_outer_verdict with
          Dependence.loop_sid = t kp.Kprofile.kp_outer_verdict.Dependence.loop_sid };
      kp_cpu_baseline_result = t_result kp.Kprofile.kp_cpu_baseline_result;
    }
  in
  let t_ks (ks : Kstatic.t) =
    {
      ks with
      Kstatic.ks_has_serial_inner =
        Option.map
          (fun is -> { is with Kstatic.is_sid = t is.Kstatic.is_sid })
          ks.Kstatic.ks_has_serial_inner;
    }
  in
  let t_hs (h : Hotspot.hotspot) = { h with Hotspot.hs_sid = t h.Hotspot.hs_sid } in
  let t_design (d : Artifact.design_state) =
    {
      d with
      Artifact.ds_kprofile = Option.map t_kp d.Artifact.ds_kprofile;
      ds_kstatic = Option.map t_ks d.Artifact.ds_kstatic;
    }
  in
  ( canon_p,
    {
      art with
      Artifact.art_program = { Ast.pglobals = [] };
      art_hotspot_sid = Option.map t art.Artifact.art_hotspot_sid;
      art_hotspots = Option.map (List.map t_hs) art.Artifact.art_hotspots;
      art_kprofile = Option.map t_kp art.Artifact.art_kprofile;
      art_design = Option.map t_design art.Artifact.art_design;
      art_log = List.filter tag_line art.Artifact.art_log;
      (* the trail differs between cold and warm runs (cache statuses);
         it must never influence a key *)
      art_prov = [];
    } )

let key_of (task : Task.t) art =
  Digest.string
    (Marshal.to_string
       ( Machine.interp_version,
         Ir.version,
         Machine.backend_tag (Machine.default_backend ()),
         task.Task.name,
         Task.scope_label task.Task.scope,
         task.Task.kind,
         project art )
       (* No_sharing: artifacts loaded from the disk tier have different
          physical sharing than freshly computed ones; keys must depend
          on content only *)
       [ Marshal.No_sharing ])

let prov_step (task : Task.t) status =
  Prov.Stask
    {
      st_name = task.Task.name;
      st_kind = Task.kind_letter task.Task.kind;
      st_scope = Task.scope_label task.Task.scope;
      st_dynamic = task.Task.dynamic;
      st_cache = status;
    }

(* Drop the first [k] steps: splits a cached artifact's trail into the
   prefix that mirrors this input's trail and the steps the task itself
   appended (e.g. {!Prov.Sdse}).  Trails are structurally determined by
   the tag subsequence in the key, so equal keys imply equal prefix
   lengths even across processes. *)
let rec drop k = function
  | l when k <= 0 -> l
  | [] -> []
  | _ :: tl -> drop (k - 1) tl

(* Wall-clock of every task application, hit or compute: the population
   behind the ledger's flow.task.seconds latency percentiles. *)
let h_task_seconds = Obs.Metrics.histogram "flow.task.seconds"

let apply (task : Task.t) art =
  let t0 = Obs.Monotonic.now_s () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.Histogram.observe h_task_seconds (Obs.Monotonic.now_s () -. t0))
  @@ fun () ->
  Obs.Trace.with_span
    ~attrs:[ ("kind", Obs.Trace.Str (Task.kind_letter task.Task.kind)) ]
    ~name:task.Task.name ~kind:Obs.Trace.Task
    (fun sp ->
      let finish status (out : Artifact.t) =
        Obs.Trace.add_attr sp "cache" (Obs.Trace.Str (Prov.cache_status_label status));
        Artifact.add_prov out (prov_step task status)
      in
      if not (Cache.enabled () && cacheable task) then
        Result.map (finish Prov.Bypass) (Task.apply task art)
      else
        let key = key_of task art in
        let computed = ref false in
        match
          C.find_or_compute ~key
            ~on_disk_hit:(fun out ->
              (* the loaded artifact carries another process's ids; move the
                 counter past them so later transforms cannot collide *)
              Ast.reserve_ids (Ast.max_id out.Artifact.art_program))
            (fun () ->
              computed := true;
              match Task.apply task art with
              | Ok out -> out
              | Error e -> raise (Task_failed e))
        with
        | out ->
          if !computed then Ok (finish Prov.Miss out)
          else
            (* the cached trail records the *first* run's cache statuses;
               splice this run's input trail onto the task-added suffix *)
            let suffix =
              drop (List.length art.Artifact.art_prov) out.Artifact.art_prov
            in
            let out =
              { out with Artifact.art_prov = art.Artifact.art_prov @ suffix }
            in
            Ok (finish Prov.Hit out)
        | exception Task_failed e -> Error e)
