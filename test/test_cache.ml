(* Tests for the two-tier evaluation cache: disk round trips, corrupted /
   version-mismatched / relabelled entries falling back to misses, size-cap
   eviction, single-flight dedup across domains, byte-reproducible entries,
   and the end-to-end differential guarantee that `--cache off`, a cold
   cache and a warm cache all produce identical reports, provenance and
   designs. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Every test runs with the disk tier pointed at a private temp directory
   and restores the global state afterwards, so the remaining suites keep
   seeing the default (disabled) cache. *)
let tmp_counter = ref 0

let with_cache_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "psa-cache-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  let old_dir = Cache.dir () in
  let old_cap = Cache.max_bytes () in
  Cache.set_dir (Some dir);
  Cache.clear_memory ();
  Fun.protect
    ~finally:(fun () ->
      Cache.set_dir old_dir;
      Cache.set_max_bytes old_cap;
      Cache.clear_memory ();
      (match Sys.readdir dir with
       | names ->
         Array.iter (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ()) names;
         (try Unix.rmdir dir with Unix.Unix_error _ -> ())
       | exception Sys_error _ -> ()))
    (fun () -> f dir)

(* Counter growth from here on, read through the metrics registry:
   [let d = since () in ...; d "cache.tint.misses"]. *)
let since () =
  let base = Obs.Metrics.snapshot () in
  let count = function Some (Obs.Metrics.Count n) -> n | _ -> 0 in
  fun name -> count (Obs.Metrics.find name) - count (List.assoc_opt name base)

module Ints = Cache.Make (struct
  type value = int

  let kind = "tint"

  let version = 1
end)

(* same kind as [Ints], newer version: its lookups must never replay
   entries recorded under version 1 *)
module Ints_v2 = Cache.Make (struct
  type value = int

  let kind = "tint"

  let version = 2
end)

let count = ref 0

let compute v () =
  incr count;
  v

let test_disk_round_trip () =
  with_cache_dir (fun _dir ->
      count := 0;
      let d = since () in
      checki "computed" 41 (Ints.find_or_compute ~key:"rt" (compute 41));
      checki "memory hit" 41 (Ints.find_or_compute ~key:"rt" (compute 0));
      Cache.clear_memory ();
      checki "disk hit" 41 (Ints.find_or_compute ~key:"rt" (compute 0));
      checki "one computation" 1 !count;
      checki "one miss" 1 (d "cache.tint.misses");
      checki "one memory hit" 1 (d "cache.tint.mem_hits");
      checki "one disk hit" 1 (d "cache.tint.disk_hits");
      check "bytes written" true (d "cache.tint.bytes_written" > 0);
      check "bytes read" true (d "cache.tint.bytes_read" > 0))

let entry_path ~version ~key =
  match Cache.entry_path ~kind:"tint" ~version ~key with
  | Some p -> p
  | None -> Alcotest.fail "disk tier should be enabled"

let overwrite path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let test_corrupted_entry_is_a_miss () =
  with_cache_dir (fun _dir ->
      count := 0;
      let d = since () in
      ignore (Ints.find_or_compute ~key:"c" (compute 7));
      let path = entry_path ~version:1 ~key:"c" in
      check "entry exists" true (Sys.file_exists path);
      overwrite path "this is not a cache entry";
      Cache.clear_memory ();
      checki "recomputed" 7 (Ints.find_or_compute ~key:"c" (compute 7));
      checki "two computations" 2 !count;
      check "corruption counted" true (d "cache.tint.corrupt" >= 1);
      checki "not a hit, not a write error" 0 (d "cache.tint.errors");
      checki "no disk hit from the corrupted entry" 0 (d "cache.tint.disk_hits");
      (* the recompute rewrote a valid entry *)
      Cache.clear_memory ();
      checki "disk hit after rewrite" 7 (Ints.find_or_compute ~key:"c" (compute 0));
      checki "still two computations" 2 !count)

let test_truncated_entry_is_a_miss () =
  with_cache_dir (fun _dir ->
      count := 0;
      ignore (Ints.find_or_compute ~key:"t" (compute 9));
      let path = entry_path ~version:1 ~key:"t" in
      let full = In_channel.with_open_bin path In_channel.input_all in
      overwrite path (String.sub full 0 3);
      Cache.clear_memory ();
      checki "recomputed" 9 (Ints.find_or_compute ~key:"t" (compute 9));
      checki "two computations" 2 !count)

let copy src dst = overwrite dst (In_channel.with_open_bin src In_channel.input_all)

let test_version_mismatch_is_a_miss () =
  with_cache_dir (fun _dir ->
      count := 0;
      let d = since () in
      ignore (Ints.find_or_compute ~key:"v" (compute 11));
      (* masquerade the v1 entry as a v2 one: the header still says v1, so
         the v2 instance must reject it and recompute *)
      copy (entry_path ~version:1 ~key:"v") (entry_path ~version:2 ~key:"v");
      checki "recomputed under v2" 11 (Ints_v2.find_or_compute ~key:"v" (compute 11));
      checki "two computations" 2 !count;
      check "mismatch counted as corruption" true (d "cache.tint.corrupt" >= 1))

let test_relabelled_key_is_a_miss () =
  with_cache_dir (fun _dir ->
      count := 0;
      ignore (Ints.find_or_compute ~key:"a" (compute 13));
      Cache.clear_memory ();
      (* an entry filed under another key's digest must not be served *)
      copy (entry_path ~version:1 ~key:"a") (entry_path ~version:1 ~key:"b");
      checki "recomputed" 99 (Ints.find_or_compute ~key:"b" (compute 99));
      checki "two computations" 2 !count)

let test_disabled_cache_is_passthrough () =
  let old = Cache.dir () in
  Cache.set_dir None;
  Fun.protect
    ~finally:(fun () -> Cache.set_dir old)
    (fun () ->
      count := 0;
      (* the memory tier still dedups, but nothing touches the disk *)
      ignore (Ints.find_or_compute ~key:"off" (compute 1));
      check "no path when disabled" true
        (Cache.entry_path ~kind:"tint" ~version:1 ~key:"off" = None))

let evict_scans () = Obs.Metrics.Counter.value (Obs.Metrics.counter "cache.evict_scans")

let dir_bytes dir =
  Array.fold_left
    (fun acc name -> acc + (Unix.stat (Filename.concat dir name)).Unix.st_size)
    0 (Sys.readdir dir)

(* The disk tier keeps a running byte total: stores under the cap scan
   the directory once, at the first store. *)
let test_eviction_scans_once () =
  with_cache_dir (fun _ ->
      let s0 = evict_scans () in
      for i = 1 to 50 do
        ignore (Ints.find_or_compute ~key:(Printf.sprintf "scan-%d" i) (fun () -> i))
      done;
      checki "50 stores, one scan" 1 (evict_scans () - s0))

(* A store that takes the total past the cap rescans and evicts the
   oldest-mtime entries down to 3/4 of the cap. *)
let test_eviction_oldest_first () =
  with_cache_dir (fun dir ->
      let path i =
        Option.get (Cache.entry_path ~kind:"tint" ~version:1 ~key:(Printf.sprintf "age-%d" i))
      in
      for i = 1 to 10 do
        ignore (Ints.find_or_compute ~key:(Printf.sprintf "age-%d" i) (fun () -> i));
        (* one second apart, so mtime order is store order *)
        let t = 1_000_000.0 +. float_of_int i in
        Unix.utimes (path i) t t
      done;
      let total = dir_bytes dir in
      let cap = total + (total / 20) in
      Cache.set_max_bytes cap;
      let s0 = evict_scans () in
      ignore (Ints.find_or_compute ~key:"age-11" (fun () -> 11));
      checki "the crossing store rescans" 1 (evict_scans () - s0);
      check "down to 3/4 of the cap" true (dir_bytes dir <= cap * 3 / 4);
      let alive = List.filter (fun i -> Sys.file_exists (path i)) (List.init 11 (fun i -> i + 1)) in
      check "some entries evicted" true (List.length alive < 11);
      check "the oldest went first" true
        (alive = List.init (List.length alive) (fun k -> 11 - List.length alive + 1 + k)))

let test_eviction_respects_cap () =
  with_cache_dir (fun dir ->
      let d = since () in
      Cache.set_max_bytes 512;
      let payload = String.make 200 'x' in
      for i = 1 to 8 do
        ignore
          (Ints.find_or_compute
             ~key:(Printf.sprintf "evict-%d" i)
             (fun () ->
               ignore (Digest.string payload);
               i))
      done;
      check "evictions happened" true (d "cache.tint.evictions" > 0);
      let total =
        Array.fold_left
          (fun acc name ->
            acc + (Unix.stat (Filename.concat dir name)).Unix.st_size)
          0 (Sys.readdir dir)
      in
      check "directory under cap" true (total <= 512))

let test_single_flight_dedup () =
  with_cache_dir (fun _dir ->
      let computations = Atomic.make 0 in
      let slow_compute () =
        Atomic.incr computations;
        Unix.sleepf 0.05;
        123
      in
      let worker () =
        Domain.spawn (fun () -> Ints.find_or_compute ~key:"sf" slow_compute)
      in
      let domains = List.init 4 (fun _ -> worker ()) in
      let results = List.map Domain.join domains in
      check "all workers agree" true (List.for_all (( = ) 123) results);
      checki "exactly one computation" 1 (Atomic.get computations))

let test_failed_compute_is_not_cached () =
  with_cache_dir (fun _dir ->
      count := 0;
      (match Ints.find_or_compute ~key:"fail" (fun () -> failwith "boom") with
       | _ -> Alcotest.fail "exception expected"
       | exception Failure m -> checks "exception propagates" "boom" m);
      (* the failure released the slot: the next request computes fresh *)
      checki "recovers" 5 (Ints.find_or_compute ~key:"fail" (compute 5));
      checki "one successful computation" 1 !count)

(* ---- byte-reproducible entries ---- *)

(* Every file of a cache directory, name and bytes, in name order. *)
let dir_contents dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun n ->
         (n, In_channel.with_open_bin (Filename.concat dir n) In_channel.input_all))

(* What a flow caches depends only on the flow: a second kmeans flow in
   the same process, whose programs carry other statement ids, writes
   the same files with the same bytes as the first. *)
let test_entries_reproducible () =
  let spec =
    {
      Request.sp_source = Request.Builtin "kmeans";
      sp_mode = Pipeline.Uninformed;
      sp_quick = true;
      sp_step_budget = None;
      sp_jobs_hint = None;
    }
  in
  let flow () =
    with_cache_dir (fun dir ->
        let oc = Request.run spec in
        checks "flow ran" "" oc.Request.oc_error;
        dir_contents dir)
  in
  let first = flow () in
  let second = flow () in
  check "entries written" true (first <> []);
  Alcotest.(check (list string))
    "same entry names" (List.map fst first) (List.map fst second);
  List.iter2
    (fun (name, a) (_, b) -> check (name ^ " holds the same bytes") true (a = b))
    first second

(* ---- differential: off / cold / warm runs are indistinguishable ---- *)

type observed = {
  ob_table : string;
  ob_decision : string;
  ob_summary : string;
  ob_why : string;
  ob_designs :
    (string * (string * string) list * bool * bool * float option * float option
    * float * bool * string)
    list;
}

let observe (rep : Engine.report) =
  {
    ob_table = Report.design_table rep;
    ob_decision = Report.decision_text rep;
    ob_summary = Report.summary_line rep;
    ob_why = Report.why_text rep;
    ob_designs =
      List.map
        (fun (d : Design.t) ->
          ( Target.short d.Design.d_target,
            d.Design.d_path,
            d.Design.d_sp,
            d.Design.d_feasible,
            d.Design.d_time_s,
            d.Design.d_speedup,
            d.Design.d_loc_added_pct,
            d.Design.d_valid,
            Pretty.program_to_string d.Design.d_program ))
        rep.Engine.rep_designs;
  }

let uninformed_observed () =
  let app = Nbody.app in
  match
    Engine.run ~workload:app.App.app_test_overrides ~mode:Pipeline.Uninformed app
  with
  | Ok rep -> observe rep
  | Error e -> Alcotest.fail e

let test_differential_off_cold_warm () =
  let old = Cache.dir () in
  Cache.set_dir None;
  let off =
    Fun.protect ~finally:(fun () -> Cache.set_dir old) uninformed_observed
  in
  with_cache_dir (fun _dir ->
      let cold = uninformed_observed () in
      (* drop every memory tier so the warm run must go through the disk *)
      Cache.clear_memory ();
      let d = since () in
      let warm = uninformed_observed () in
      check "warm run hit the disk tier" true (d "cache.run.disk_hits" > 0);
      checks "cold table = off table" off.ob_table cold.ob_table;
      checks "warm table = off table" off.ob_table warm.ob_table;
      checks "cold decision = off decision" off.ob_decision cold.ob_decision;
      checks "warm decision = off decision" off.ob_decision warm.ob_decision;
      checks "cold summary = off summary" off.ob_summary cold.ob_summary;
      checks "warm summary = off summary" off.ob_summary warm.ob_summary;
      checks "cold --why = off --why" off.ob_why cold.ob_why;
      checks "warm --why = off --why" off.ob_why warm.ob_why;
      checki "design count stable" (List.length off.ob_designs)
        (List.length warm.ob_designs);
      List.iteri
        (fun i ((t_off, _, _, _, _, _, _, _, src_off) as d_off) ->
          let d_cold = List.nth cold.ob_designs i in
          let d_warm = List.nth warm.ob_designs i in
          check (Printf.sprintf "design %s identical cold" t_off) true
            (d_off = d_cold);
          let (_, _, _, _, _, _, _, _, src_warm) = d_warm in
          checks (Printf.sprintf "design %s source identical warm" t_off)
            src_off src_warm;
          check (Printf.sprintf "design %s identical warm" t_off) true
            (d_off = d_warm))
        off.ob_designs)

let suite =
  [
    Alcotest.test_case "disk round trip" `Quick test_disk_round_trip;
    Alcotest.test_case "corrupted entry is a miss" `Quick test_corrupted_entry_is_a_miss;
    Alcotest.test_case "truncated entry is a miss" `Quick test_truncated_entry_is_a_miss;
    Alcotest.test_case "version mismatch is a miss" `Quick test_version_mismatch_is_a_miss;
    Alcotest.test_case "relabelled key is a miss" `Quick test_relabelled_key_is_a_miss;
    Alcotest.test_case "disabled cache is passthrough" `Quick test_disabled_cache_is_passthrough;
    Alcotest.test_case "eviction respects cap" `Quick test_eviction_respects_cap;
    Alcotest.test_case "eviction scans once under the cap" `Quick test_eviction_scans_once;
    Alcotest.test_case "eviction past the cap, oldest first" `Quick test_eviction_oldest_first;
    Alcotest.test_case "single-flight dedup" `Quick test_single_flight_dedup;
    Alcotest.test_case "failed compute not cached" `Quick test_failed_compute_is_not_cached;
    Alcotest.test_case "entries byte-reproducible" `Slow test_entries_reproducible;
    Alcotest.test_case "differential off/cold/warm" `Slow test_differential_off_cold_warm;
  ]
