let pf = Printf.sprintf

(* ---- small aggregation helpers (all deterministic folds) ---- *)

let metric r name = List.assoc_opt name r.Ledger.r_metrics

let is_real f = not (Float.is_nan f) && Float.abs f <> Float.infinity

let sum_metric recs name =
  List.fold_left
    (fun acc r ->
      match metric r name with Some v when is_real v -> acc +. v | _ -> acc)
    0.0 recs

let tally key xs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let k = key x in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    xs;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [] |> List.sort compare

let status_label = function
  | 0 -> "ok"
  | 1 -> "flow-failed"
  | 2 -> "bad-spec"
  | 3 -> "partial"
  | 4 -> "no-design"
  | n -> pf "exit-%d" n

(* names matching prefix.<mid>.suffix, collected across all records *)
let middle_names recs ~prefix ~suffix =
  let plen = String.length prefix and slen = String.length suffix in
  List.concat_map (fun r -> List.map fst r.Ledger.r_metrics) recs
  |> List.filter_map (fun n ->
         let len = String.length n in
         if
           len > plen + slen
           && String.sub n 0 plen = prefix
           && String.sub n (len - slen) slen = suffix
           && not (String.contains (String.sub n plen (len - plen - slen)) '.')
         then Some (String.sub n plen (len - plen - slen))
         else None)
  |> List.sort_uniq compare

let cache_kinds recs = middle_names recs ~prefix:"cache." ~suffix:".mem_hits"

(* histogram families persisted flat: base.count with a base.p50 sibling *)
let histogram_bases recs =
  List.concat_map (fun r -> List.map fst r.Ledger.r_metrics) recs
  |> List.filter_map (fun n ->
         if Filename.check_suffix n ".count" then
           Some (Filename.chop_suffix n ".count")
         else None)
  |> List.sort_uniq compare
  |> List.filter (fun base ->
         List.exists
           (fun r -> metric r (base ^ ".p50") <> None)
           recs)

(* count-weighted mean of a per-record percentile: an approximation of
   the population percentile that needs only the persisted summaries *)
let weighted_pct recs base p =
  let num, den =
    List.fold_left
      (fun (num, den) r ->
        match (metric r (base ^ ".count"), metric r (base ^ "." ^ p)) with
        | Some c, Some v when c > 0.0 && is_real v -> (num +. (c *. v), den +. c)
        | _ -> (num, den))
      (0.0, 0.0) recs
  in
  if den = 0.0 then None else Some (num /. den)

(* fastest feasible+valid design of a record, if any *)
let best_design r =
  List.filter
    (fun d -> d.Ledger.ds_feasible && d.Ledger.ds_valid && d.Ledger.ds_time_s <> None)
    r.Ledger.r_stable.s_designs
  |> List.sort (fun a b -> compare a.Ledger.ds_time_s b.Ledger.ds_time_s)
  |> function
  | [] -> None
  | d :: _ -> Some d

let mean_opt = function
  | [] -> None
  | vs -> Some (List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs))

let mean_best_speedup recs =
  mean_opt
    (List.filter_map
       (fun r -> Option.bind (best_design r) (fun d -> d.Ledger.ds_speedup))
       recs)

let failure_pairs recs =
  List.concat_map
    (fun r ->
      List.map
        (fun f -> (f.Ledger.fs_class, f.Ledger.fs_site))
        r.Ledger.r_stable.s_failures)
    recs

(* ---- report ---- *)

let add_tally buf label items fmt_item =
  if items <> [] then begin
    Buffer.add_string buf label;
    List.iter (fun (k, n) -> Buffer.add_string buf (pf " %s=%d" (fmt_item k) n)) items;
    Buffer.add_char buf '\n'
  end

let report (recs, skipped) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (pf "ledger: %d records%s\n" (List.length recs)
       (if skipped > 0 then pf " (%d skipped: corrupt or foreign version)" skipped
        else ""));
  if recs = [] then Buffer.contents buf
  else begin
    add_tally buf "kinds:" (tally (fun r -> r.Ledger.r_stable.s_kind) recs) Fun.id;
    add_tally buf "apps:" (tally (fun r -> r.Ledger.r_stable.s_app) recs) Fun.id;
    add_tally buf "status:"
      (tally (fun r -> status_label r.Ledger.r_stable.s_status) recs)
      Fun.id;
    (match failure_pairs recs with
    | [] -> ()
    | pairs ->
      Buffer.add_string buf "failures:\n";
      List.iter
        (fun ((cls, site), n) ->
          Buffer.add_string buf (pf "  %-12s @ %-24s x%d\n" cls site n))
        (tally Fun.id pairs));
    (match cache_kinds recs with
    | [] -> ()
    | kinds ->
      Buffer.add_string buf "cache:\n";
      List.iter
        (fun kind ->
          let m field = sum_metric recs (pf "cache.%s.%s" kind field) in
          let mem = m "mem_hits" and disk = m "disk_hits" and miss = m "misses" in
          let total = mem +. disk +. miss in
          let rate = if total = 0.0 then 0.0 else (mem +. disk) /. total *. 100.0 in
          Buffer.add_string buf
            (pf "  %-8s hits %.0f/%.0f (%.1f%%)  mem=%.0f disk=%.0f corrupt=%.0f\n"
               kind (mem +. disk) total rate mem disk (m "corrupt")))
        kinds);
    (match histogram_bases recs with
    | [] -> ()
    | bases ->
      Buffer.add_string buf "latency (count-weighted across records):\n";
      List.iter
        (fun base ->
          let n = sum_metric recs (base ^ ".count") in
          let pct p =
            match weighted_pct recs base p with
            | Some v -> pf "%.6f" v
            | None -> "n/a"
          in
          Buffer.add_string buf
            (pf "  %-24s n=%-8.0f p50=%ss p90=%ss p99=%ss\n" base n (pct "p50")
               (pct "p90") (pct "p99")))
        bases);
    let runs = sum_metric recs "interp.runs" and steps = sum_metric recs "interp.steps" in
    if runs > 0.0 then
      Buffer.add_string buf
        (pf "interp: runs=%.0f steps=%.0f (%.1f steps/run)\n" runs steps (steps /. runs));
    let retries = sum_metric recs "flow.retries"
    and tfail = sum_metric recs "flow.task.failures" in
    if retries > 0.0 || tfail > 0.0 then
      Buffer.add_string buf
        (pf "resilience: retries=%.0f task-failures=%.0f\n" retries tfail);
    Buffer.contents buf
  end

(* ---- diff ---- *)

let pct_change a b = (b -. a) /. a *. 100.0

let diff ~label_a ~label_b (ra, ska) (rb, skb) =
  let buf = Buffer.create 1024 in
  let regression = ref false in
  let flag cond = if cond then regression := true in
  Buffer.add_string buf
    (pf "diff: A=%s (%d records, %d skipped) vs B=%s (%d records, %d skipped)\n"
       label_a (List.length ra) ska label_b (List.length rb) skb);
  if ra = [] || rb = [] then begin
    Buffer.add_string buf "one side is empty: nothing to compare\nverdict: ok\n";
    (Buffer.contents buf, false)
  end
  else begin
    (match (mean_best_speedup ra, mean_best_speedup rb) with
    | Some a, Some b when a > 0.0 ->
      let regressed = b < a *. 0.9 in
      flag regressed;
      Buffer.add_string buf
        (pf "speedup (mean best): A=%.2f B=%.2f  %+.1f%%  %s\n" a b (pct_change a b)
           (if regressed then "REGRESSION" else "ok"))
    | _ -> ());
    let hit_rate recs =
      let total kind field = sum_metric recs (pf "cache.%s.%s" kind field) in
      let kinds = cache_kinds recs in
      let hits =
        List.fold_left (fun acc k -> acc +. total k "mem_hits" +. total k "disk_hits") 0.0 kinds
      in
      let all =
        List.fold_left (fun acc k -> acc +. total k "misses") hits kinds
      in
      if all = 0.0 then None else Some (hits /. all *. 100.0)
    in
    (match (hit_rate ra, hit_rate rb) with
    | Some a, Some b ->
      Buffer.add_string buf
        (pf "cache hit rate: A=%.1f%% B=%.1f%%  (%+.1fpp)\n" a b (b -. a))
    | _ -> ());
    (* any (class, site) failure pair new in B is a regression *)
    let pa = List.sort_uniq compare (failure_pairs ra)
    and pb = List.sort_uniq compare (failure_pairs rb) in
    let fresh = List.filter (fun p -> not (List.mem p pa)) pb in
    List.iter
      (fun (cls, site) ->
        flag true;
        Buffer.add_string buf (pf "new failure in B: %s @ %s  REGRESSION\n" cls site))
      fresh;
    Buffer.add_string buf
      (pf "verdict: %s\n" (if !regression then "REGRESSION" else "ok"));
    (Buffer.contents buf, !regression)
  end

(* ---- stats ---- *)

let stats (recs, skipped) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (pf "ledger: %d records%s\n" (List.length recs)
       (if skipped > 0 then pf " (%d skipped)" skipped else ""));
  if recs <> [] then begin
    let groups =
      tally (fun r -> (r.Ledger.r_stable.s_app, r.Ledger.r_stable.s_mode)) recs
    in
    Buffer.add_string buf
      (pf "%-14s %-12s %5s %5s %8s %10s %8s\n" "app" "mode" "runs" "ok" "designs"
         "best_s" "speedup");
    List.iter
      (fun ((app, mode), n) ->
        let mine =
          List.filter
            (fun r ->
              r.Ledger.r_stable.s_app = app && r.Ledger.r_stable.s_mode = mode)
            recs
        in
        let ok =
          List.length (List.filter (fun r -> r.Ledger.r_stable.s_status = 0) mine)
        in
        let designs =
          mean_opt
            (List.map
               (fun r -> float_of_int (List.length r.Ledger.r_stable.s_designs))
               mine)
        in
        let best_t =
          mean_opt
            (List.filter_map
               (fun r -> Option.bind (best_design r) (fun d -> d.Ledger.ds_time_s))
               mine)
        in
        let fmt_opt fmt = function Some v -> pf fmt v | None -> "n/a" in
        Buffer.add_string buf
          (pf "%-14s %-12s %5d %5d %8s %10s %8s\n" app mode n ok
             (fmt_opt "%.1f" designs)
             (fmt_opt "%.5f" best_t)
             (fmt_opt "%.2f" (mean_best_speedup mine))))
      groups
  end;
  Buffer.contents buf
