(* Compare two bench JSON dumps (written by main.exe --json) and fail on
   performance regressions.

   Usage: compare.exe CURRENT.json BASELINE.json
          compare.exe --warm-cold COLD.json WARM.json
          compare.exe --jobs-speedup JOBS1.json JOBSN.json

   The second form checks the evaluation cache's effectiveness: WARM must
   have been produced by rerunning the same bench against the cache
   directory COLD populated.  It requires the combined runs+ablation wall
   time to drop at least 2x and the warm run to have actually served
   entries from the disk tier.

   The third form checks the work-stealing scheduler's effectiveness:
   both files must come from the same commit with the cache off, JOBS1
   run at --jobs 1 and JOBSN at --jobs 4 (or more).  It requires the
   combined runs+ablation wall time to drop at least 1.8x and the
   parallel run to have actually scheduled futures (pool.spawned > 0).
   The gate is skipped (exit 0) when the recording host reports fewer
   than 4 cores, where no such speedup is physically available.

   Gates (first form):
   - every wall-clock section present in both files may regress by at
     most 20% (lower is better);
   - every "statements_per_sec" entry present in both files may regress
     by at most 10% per backend (higher is better);
   - the current vm-backend throughput must be at least 20x the baseline
     walker throughput (the committed seed's "ast" entry is the reference
     tree walker on the recording host) and at least 20x the walker
     throughput measured in the same run (the superinstruction VM's
     reason to exist on the DSE hot path; host speed cancels out);
   - per-app VM step coverage ("vm_coverage": planned statements / total
     statements on the evaluation workloads) must hold absolute floors on
     the loop-nest apps — AdPredictor >= 0.9, K-Means >= 0.9, N-Body >=
     0.99, Bezier >= 0.99 — and no app may drop more than 0.02 below its
     baseline coverage;
   - flow-level VM coverage ("flow_vm_coverage": planned statements /
     interpreted statements over the "runs" section's five uninformed
     flows, profiled analysis runs included) must hold an absolute floor
     and may drop at most 0.02 below the baseline's, when the baseline
     recorded it.  Skipped when the current file has no such key (a warm
     cache interpreted nothing).

   Exit status 1 on any violation, 0 otherwise. *)

open Obs.Json

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg ->
    Printf.eprintf "compare: cannot read %s: %s\n" path msg;
    exit 2
  | ic ->
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s

(* a top-level number field, if present *)
let top j name = match member name j with Some (Num f) -> Some f | _ -> None

let num_members j =
  match j with
  | Obj fields ->
    List.filter_map (function k, Num f -> Some (k, f) | _ -> None) fields
  | _ -> []

let tolerance = 0.20

(* the VM's minimum throughput over the tree walker *)
let vm_speedup = 20.0

(* throughput is measured over tens of millions of statements, so it is
   far less noisy than wall-clock sections: gate each backend tighter *)
let throughput_tolerance = 0.10

(* sections this fast are dominated by scheduling noise; report but never
   gate on them *)
let section_floor_s = 0.05

(* absolute per-app floors for VM step coverage: the loop-nest lowering's
   reason to exist is keeping these apps' hot loops on the planned path *)
let coverage_floors =
  [ ("AdPredictor", 0.90);
    ("K-Means Classification", 0.90);
    ("N-Body Simulation", 0.99);
    ("Bezier Surface Generation", 0.99)
  ]

(* coverage is deterministic, so any drop is a real planning regression;
   the small slack only absorbs workload-mix changes between revisions *)
let coverage_slack = 0.02

(* flow-level coverage floor: 0.9705 measured (at --jobs 1, 2 and 4) once
   HIP launch loops inlined their per-thread body calls, minus
   [coverage_slack] *)
let flow_coverage_floor = 0.9505

let failures = ref 0

let report fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL  %s\n" msg)
    fmt

(* every parsed input, so a failing gate can say exactly which code and
   configuration produced each side *)
let parsed : (string * t) list ref = ref []

let parse path =
  match Obs.Json.parse (read_file path) with
  | Ok j ->
    parsed := !parsed @ [ (path, j) ];
    j
  | Error msg ->
    Printf.eprintf "compare: %s: %s\n" path msg;
    exit 2

let print_meta () =
  List.iter
    (fun (path, j) ->
      match member "meta" j with
      | Some (Obj fields) ->
        Printf.printf "meta  %s:" path;
        List.iter
          (fun (k, v) ->
            let s =
              match v with
              | Str s -> s
              | Num f -> Printf.sprintf "%g" f
              | Bool b -> string_of_bool b
              | Null -> "null"
              | List _ | Obj _ -> "{..}"
            in
            Printf.printf " %s=%s" k s)
          fields;
        print_newline ()
      | _ -> Printf.printf "meta  %s: none recorded (pre-ledger dump)\n" path)
    !parsed

(* ---- warm/cold cache-effectiveness gate ---- *)

(* the sections whose work the cache replays: [micro] runs for as long as
   Bechamel's quota, cached or not *)
let warm_cold_sections = [ "runs"; "ablation" ]

let warm_cold_speedup = 2.0

let run_warm_cold cold_path warm_path =
  let cold = parse cold_path in
  let warm = parse warm_path in
  let sections j = Option.fold ~none:[] ~some:num_members (member "sections" j) in
  let combined label j =
    List.fold_left
      (fun acc name ->
        match List.assoc_opt name (sections j) with
        | Some t -> acc +. t
        | None ->
          report "%s is missing section %S" label name;
          acc)
      0.0 warm_cold_sections
  in
  let cold_t = combined "cold run" cold in
  let warm_t = combined "warm run" warm in
  let ratio = if warm_t > 0.0 then cold_t /. warm_t else infinity in
  if ratio < warm_cold_speedup then
    report "warm %s only %.2fx faster than cold (%.3fs -> %.3fs, needs >= %.1fx)"
      (String.concat "+" warm_cold_sections)
      ratio cold_t warm_t warm_cold_speedup
  else
    Printf.printf "ok    warm %s %.3fs -> %.3fs (%.2fx >= %.1fx)\n"
      (String.concat "+" warm_cold_sections)
      cold_t warm_t ratio warm_cold_speedup;
  (* the speedup must come from the cache, not from noise: sum a
     cache.<kind>.<field> counter over every kind in the metrics map *)
  let cache_stat j field =
    let suffix = "." ^ field in
    match member "metrics" j with
    | Some m ->
      Some
        (List.fold_left
           (fun acc (name, v) ->
             if String.starts_with ~prefix:"cache." name
                && String.ends_with ~suffix name
             then acc +. v
             else acc)
           0.0 (num_members m))
    | None -> None
  in
  (match cache_stat warm "disk_hits" with
   | Some h when h > 0.0 ->
     Printf.printf "ok    warm run served %.0f entries from the disk tier\n" h
   | Some _ | None -> report "warm run has no disk hits (cache not exercised)");
  (match cache_stat warm "errors" with
   | Some e when e > 0.0 -> Printf.printf "note  warm run logged %.0f cache errors\n" e
   | _ -> ());
  (match cache_stat warm "corrupt" with
   | Some e when e > 0.0 ->
     Printf.printf "note  warm run evicted %.0f corrupted cache entries\n" e
   | _ -> ())

(* ---- parallel-speedup gate ---- *)

(* micro and interp are single-domain by construction, so the scheduler
   gate only sums the sections that fan out over the pool *)
let jobs_sections = [ "runs"; "ablation" ]

let jobs_speedup = 1.8

(* below this the host cannot show a 1.8x four-way speedup even in
   principle; the gate degrades to an informational skip *)
let jobs_min_cores = 4.0

let run_jobs_speedup seq_path par_path =
  let seq = parse seq_path in
  let par = parse par_path in
  (match top seq "jobs" with
   | Some j when j > 1.0 ->
     report "%s was recorded at --jobs %.0f (expected 1)" seq_path j
   | _ -> ());
  (match top par "jobs" with
   | Some j when j < jobs_min_cores ->
     report "%s was recorded at --jobs %.0f (expected >= %.0f)" par_path j
       jobs_min_cores
   | _ -> ());
  match top par "cores" with
  | Some cores when cores < jobs_min_cores ->
    Printf.printf
      "skip  host reports %.0f core%s (< %.0f): parallel speedup gate not applicable\n"
      cores
      (if cores = 1.0 then "" else "s")
      jobs_min_cores
  | _ ->
    let sections j = Option.fold ~none:[] ~some:num_members (member "sections" j) in
    let combined label j =
      List.fold_left
        (fun acc name ->
          match List.assoc_opt name (sections j) with
          | Some t -> acc +. t
          | None ->
            report "%s is missing section %S" label name;
            acc)
        0.0 jobs_sections
    in
    let seq_t = combined "jobs-1 run" seq in
    let par_t = combined "parallel run" par in
    let ratio = if par_t > 0.0 then seq_t /. par_t else infinity in
    if ratio < jobs_speedup then
      report "parallel %s only %.2fx faster than --jobs 1 (%.3fs -> %.3fs, needs >= %.1fx)"
        (String.concat "+" jobs_sections)
        ratio seq_t par_t jobs_speedup
    else
      Printf.printf "ok    parallel %s %.3fs -> %.3fs (%.2fx >= %.1fx)\n"
        (String.concat "+" jobs_sections)
        seq_t par_t ratio jobs_speedup;
    (* the speedup must come from the scheduler, not from noise *)
    let metric j name =
      match member "metrics" j with
      | Some m -> List.assoc_opt name (num_members m)
      | None -> None
    in
    (match metric par "pool.spawned" with
     | Some n when n > 0.0 ->
       Printf.printf "ok    parallel run spawned %.0f futures" n;
       (match metric par "pool.steals" with
        | Some s -> Printf.printf " (%.0f stolen)\n" s
        | None -> print_newline ())
     | Some _ | None ->
       report "parallel run spawned no futures (scheduler not exercised)")

(* ---- seed-baseline regression gate ---- *)

let run_regressions current_path baseline_path =
  let current = parse current_path in
  let baseline = parse baseline_path in
  (* wall-clock sections: lower is better *)
  let cur_sections = Option.fold ~none:[] ~some:num_members (member "sections" current) in
  let base_sections =
    Option.fold ~none:[] ~some:num_members (member "sections" baseline)
  in
  List.iter
    (fun (name, base_t) ->
      match List.assoc_opt name cur_sections with
      | None -> ()
      | Some cur_t ->
        if Float.max base_t cur_t < section_floor_s then
          Printf.printf "ok    section %-10s %.3fs -> %.3fs (below noise floor)\n" name
            base_t cur_t
        else if base_t > 0.0 && cur_t > base_t *. (1.0 +. tolerance) then
          report "section %-10s %.3fs -> %.3fs (+%.0f%%, limit +%.0f%%)" name base_t
            cur_t
            ((cur_t /. base_t -. 1.0) *. 100.0)
            (tolerance *. 100.0)
        else
          Printf.printf "ok    section %-10s %.3fs -> %.3fs\n" name base_t cur_t)
    base_sections;
  (* interpreter throughput: higher is better *)
  let cur_tp =
    Option.fold ~none:[] ~some:num_members (member "statements_per_sec" current)
  in
  let base_tp =
    Option.fold ~none:[] ~some:num_members (member "statements_per_sec" baseline)
  in
  List.iter
    (fun (name, base_sps) ->
      match List.assoc_opt name cur_tp with
      | None -> ()
      | Some cur_sps ->
        if base_sps > 0.0 && cur_sps < base_sps *. (1.0 -. throughput_tolerance)
        then
          report "throughput %-8s %.2e -> %.2e stmts/s (%.0f%%, limit -%.0f%%)" name
            base_sps cur_sps
            ((cur_sps /. base_sps -. 1.0) *. 100.0)
            (throughput_tolerance *. 100.0)
        else
          Printf.printf "ok    throughput %-8s %.2e -> %.2e stmts/s\n" name base_sps
            cur_sps)
    base_tp;
  (* the VM must hold its >= 20x win over the seed walker, and over the
     walker measured within the same run, where host speed cancels out *)
  let vm_over label walker =
    match walker, List.assoc_opt "vm" cur_tp with
    | Some w, Some cur_vm when w > 0.0 ->
      let ratio = cur_vm /. w in
      if ratio < vm_speedup then
        report "vm backend only %.2fx %s (needs >= %.0fx)" ratio label vm_speedup
      else Printf.printf "ok    vm backend %.2fx %s (>= %.0fx)\n" ratio label vm_speedup
    | _ -> ()
  in
  vm_over "the seed walker" (List.assoc_opt "ast" base_tp);
  vm_over "the walker of this run" (List.assoc_opt "ast" cur_tp);
  (* VM step coverage: absolute floors on the loop-nest apps ... *)
  let cur_cov =
    Option.fold ~none:[] ~some:num_members (member "vm_coverage" current)
  in
  if cur_cov <> [] then begin
    List.iter
      (fun (name, floor) ->
        match List.assoc_opt name cur_cov with
        | None -> report "vm coverage is missing app %S" name
        | Some c ->
          if c < floor then
            report "vm coverage %-26s %.3f (needs >= %.2f)" name c floor
          else Printf.printf "ok    vm coverage %-26s %.3f (>= %.2f)\n" name c floor)
      coverage_floors;
    (* ... and no regression against the recorded baseline for any app *)
    let base_cov =
      Option.fold ~none:[] ~some:num_members (member "vm_coverage" baseline)
    in
    List.iter
      (fun (name, base_c) ->
        match List.assoc_opt name cur_cov with
        | None -> report "vm coverage dropped app %S (baseline %.3f)" name base_c
        | Some cur_c ->
          if cur_c < base_c -. coverage_slack then
            report "vm coverage %-26s %.3f -> %.3f (limit -%.2f)" name base_c cur_c
              coverage_slack
          else if not (List.mem_assoc name coverage_floors) then
            Printf.printf "ok    vm coverage %-26s %.3f -> %.3f\n" name base_c cur_c)
      base_cov
  end;
  (* flow-level VM coverage: what the flows' own (profiled) runs execute
     planned, gated absolutely and against the baseline when it has one *)
  match top current "flow_vm_coverage" with
  | None ->
    print_endline "skip  flow vm coverage not recorded (no statements interpreted)"
  | Some c ->
    if c < flow_coverage_floor then
      report "flow vm coverage %.3f (needs >= %.3f)" c flow_coverage_floor
    else Printf.printf "ok    flow vm coverage %.3f (>= %.3f)\n" c flow_coverage_floor;
    (match top baseline "flow_vm_coverage" with
     | None -> print_endline "skip  baseline has no flow vm coverage"
     | Some b ->
       if c < b -. coverage_slack then
         report "flow vm coverage %.3f -> %.3f (limit -%.2f)" b c coverage_slack
       else Printf.printf "ok    flow vm coverage %.3f -> %.3f\n" b c)

let () =
  (match Sys.argv with
   | [| _; "--warm-cold"; cold; warm |] -> run_warm_cold cold warm
   | [| _; "--jobs-speedup"; seq; par |] -> run_jobs_speedup seq par
   | [| _; current; baseline |] -> run_regressions current baseline
   | _ ->
     prerr_endline
       "usage: compare.exe CURRENT.json BASELINE.json\n\
       \       compare.exe --warm-cold COLD.json WARM.json\n\
       \       compare.exe --jobs-speedup JOBS1.json JOBSN.json";
     exit 2);
  if !failures > 0 then begin
    print_meta ();
    Printf.printf "%d violation%s detected\n" !failures
      (if !failures = 1 then "" else "s");
    exit 1
  end
  else print_endline "all gates passed"
