(* Process and file-system helpers.  Everything the benchmark writes lives
   under [.perfbench-work/] in the directory it runs from. *)

let now = Obs.Monotonic.now_s

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* A fresh per-process work directory, removed at exit. *)
let work_dir =
  lazy
    (let root = ".perfbench-work" in
     let d = Filename.concat root (string_of_int (Unix.getpid ())) in
     rm_rf d;
     mkdir_p d;
     at_exit (fun () ->
         (try rm_rf d with Unix.Unix_error _ | Sys_error _ -> ());
         try Unix.rmdir root with Unix.Unix_error _ -> ());
     d)

let fresh_counter = ref 0

(* A path under the work directory that does not exist yet. *)
let fresh name =
  incr fresh_counter;
  Filename.concat (Lazy.force work_dir) (Printf.sprintf "%s-%d" name !fresh_counter)

(* Peak resident set size (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let file = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match open_in file with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> nan
          | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
            | kb -> float_of_int kb /. 1024.0
            | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> scan ())
        in
        scan ())

(* Reset this process's VmHWM to its current resident set, so a later
   [peak_rss_mb 0] covers only what ran after the call. *)
let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> ()
  | oc -> Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")

(* Flat name -> value view of the program's metrics registry. *)
let metrics () = Obs.Metrics.flatten (Obs.Metrics.snapshot ())

let get ms name = Option.value (List.assoc_opt name ms) ~default:0.0

(* Sum of [after - before] over the instruments whose name satisfies [p]. *)
let delta ~before ~after p =
  List.fold_left
    (fun acc (n, v) -> if p n then acc +. (v -. get before n) else acc)
    0.0 after
