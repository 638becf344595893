let schema_version = 1

let tag = "psaflow-run"

let suffix = ".psarun"

type design = {
  ds_target : string;
  ds_device : string;
  ds_time_s : float option;
  ds_speedup : float option;
  ds_feasible : bool;
  ds_valid : bool;
}

type failure = {
  fs_path : string;
  fs_class : string;
  fs_site : string;
  fs_attempts : int;
  fs_msg : string;
}

type meta = {
  m_git_rev : string;
  m_cmdline : string;
  m_jobs : int;
  m_unix_time : float;
}

type stable = {
  s_kind : string;
  s_app : string;
  s_mode : string;
  s_workload : (string * int) list;
  s_backend : string;
  s_ir_version : int;
  s_status : int;
  s_decision : string;
  s_best : string option;
  s_best_cost : float option;
  s_designs : design list;
  s_failures : failure list;
}

type record = {
  r_meta : meta;
  r_stable : stable;
  r_metrics : (string * float) list;
}

(* ---- serialization ---- *)

let opt f = function None -> Json.Null | Some v -> f v

let num f = Json.Num f

let str s = Json.Str s

let design_json d =
  Json.Obj
    [
      ("target", str d.ds_target);
      ("device", str d.ds_device);
      ("time_s", opt num d.ds_time_s);
      ("speedup", opt num d.ds_speedup);
      ("feasible", Json.Bool d.ds_feasible);
      ("valid", Json.Bool d.ds_valid);
    ]

let failure_json f =
  Json.Obj
    [
      ("path", str f.fs_path);
      ("class", str f.fs_class);
      ("site", str f.fs_site);
      ("attempts", Json.int f.fs_attempts);
      ("msg", str f.fs_msg);
    ]

let stable_value s =
  Json.Obj
    [
      ("kind", str s.s_kind);
      ("app", str s.s_app);
      ("mode", str s.s_mode);
      ("workload", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) s.s_workload));
      ("backend", str s.s_backend);
      ("ir_version", Json.int s.s_ir_version);
      ("status", Json.int s.s_status);
      ("decision", str s.s_decision);
      ("best", opt str s.s_best);
      ("best_cost", opt num s.s_best_cost);
      ("designs", Json.List (List.map design_json s.s_designs));
      ("failures", Json.List (List.map failure_json s.s_failures));
    ]

let stable_json r = Json.to_string (stable_value r.r_stable)

let to_json r =
  let m = r.r_meta in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.int schema_version);
         ( "meta",
           Json.Obj
             [
               ("git_rev", str m.m_git_rev);
               ("cmdline", str m.m_cmdline);
               ("jobs", Json.int m.m_jobs);
               ("unix_time", num m.m_unix_time);
             ] );
         ("stable", stable_value r.r_stable);
         ("metrics", Json.Obj (List.map (fun (k, v) -> (k, num v)) r.r_metrics));
       ])

(* ---- parsing ---- *)

let j_str ?(default = "") name j =
  match Json.member name j with Some (Str s) -> s | _ -> default

let j_int ?(default = 0) name j =
  match Json.member name j with
  | Some (Num f) -> int_of_float f
  | _ -> default

let j_bool ?(default = false) name j =
  match Json.member name j with Some (Bool b) -> b | _ -> default

let j_opt_num name j =
  match Json.member name j with Some (Num f) -> Some f | _ -> None

let j_opt_str name j =
  match Json.member name j with Some (Str s) -> Some s | _ -> None

let design_of_json j =
  {
    ds_target = j_str "target" j;
    ds_device = j_str "device" j;
    ds_time_s = j_opt_num "time_s" j;
    ds_speedup = j_opt_num "speedup" j;
    ds_feasible = j_bool "feasible" j;
    ds_valid = j_bool "valid" j;
  }

let failure_of_json j =
  {
    fs_path = j_str "path" j;
    fs_class = j_str "class" j;
    fs_site = j_str "site" j;
    fs_attempts = j_int "attempts" j;
    fs_msg = j_str "msg" j;
  }

let j_list name j =
  match Json.member name j with Some (List l) -> l | _ -> []

let of_json text =
  match Json.parse text with
  | Error e -> Error e
  | Ok j -> (
    match Json.member "schema" j with
    | Some (Num v) when int_of_float v <> schema_version ->
      Error (Printf.sprintf "record schema v%.0f, expected v%d" v schema_version)
    | _ -> (
      match (Json.member "meta" j, Json.member "stable" j) with
      | Some meta, Some stable ->
        let workload =
          match Json.member "workload" stable with
          | Some (Obj kvs) ->
            List.filter_map
              (fun (k, v) ->
                match v with Json.Num f -> Some (k, int_of_float f) | _ -> None)
              kvs
          | _ -> []
        in
        let metrics =
          match Json.member "metrics" j with
          | Some (Obj kvs) ->
            List.filter_map
              (fun (k, v) ->
                match v with
                | Json.Num f -> Some (k, f)
                | Json.Null -> Some (k, Float.nan)
                | _ -> None)
              kvs
          | _ -> []
        in
        Ok
          {
            r_meta =
              {
                m_git_rev = j_str "git_rev" meta ~default:"unknown";
                m_cmdline = j_str "cmdline" meta;
                m_jobs = j_int "jobs" meta ~default:1;
                m_unix_time =
                  (match j_opt_num "unix_time" meta with Some t -> t | None -> 0.0);
              };
            r_stable =
              {
                s_kind = j_str "kind" stable ~default:"run";
                s_app = j_str "app" stable;
                s_mode = j_str "mode" stable;
                s_workload = workload;
                s_backend = j_str "backend" stable;
                s_ir_version = j_int "ir_version" stable;
                s_status = j_int "status" stable;
                s_decision = j_str "decision" stable;
                s_best = j_opt_str "best" stable;
                s_best_cost = j_opt_num "best_cost" stable;
                s_designs = List.map design_of_json (j_list "designs" stable);
                s_failures = List.map failure_of_json (j_list "failures" stable);
              };
            r_metrics = metrics;
          }
      | _ -> Error "not a ledger record (missing meta/stable)"))

(* ---- persistence ---- *)

let appended = Metrics.counter "ledger.appended"

let skipped_ctr = Metrics.counter "ledger.skipped"

let mkdir_p dir =
  let rec go d =
    if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
    else begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let seq_counter = Atomic.make 0

let record_path ~dir r =
  let payload = to_json r in
  (* sortable by recording time; pid + per-process sequence break ties *)
  let name =
    Printf.sprintf "r%013.0f-%05d-%04d%s"
      (r.r_meta.m_unix_time *. 1000.0)
      (Unix.getpid () mod 100000)
      (Atomic.fetch_and_add seq_counter 1 mod 10000)
      suffix
  in
  (Filename.concat dir name, payload)

let append ~dir r =
  let path, payload = record_path ~dir r in
  match mkdir_p dir with
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  | () -> (
    match
      Atomic_io.write_checksummed ~tag ~version:schema_version path (payload ^ "\n")
    with
    | Ok _ ->
      Metrics.Counter.incr appended;
      Ok path
    | Error e -> Error e)

let load_file path =
  match Atomic_io.read_checksummed ~tag ~version:schema_version path with
  | Error (Atomic_io.Unreadable e) -> Error e
  | Error Atomic_io.Malformed -> Error "malformed record file"
  | Error (Atomic_io.Wrong_version v) ->
    Error (Printf.sprintf "record file is v%d, expected v%d" v schema_version)
  | Ok payload -> of_json (String.trim payload)

let record_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter (fun n -> Filename.check_suffix n suffix)
    |> List.sort compare
    |> List.map (Filename.concat dir)

let load ~dir =
  List.fold_left
    (fun (recs, skipped) path ->
      match load_file path with
      | Ok r -> (r :: recs, skipped)
      | Error _ ->
        Metrics.Counter.incr skipped_ctr;
        (recs, skipped + 1))
    ([], 0) (record_files dir)
  |> fun (recs, skipped) -> (List.rev recs, skipped)

let load_path p =
  if (not (Sys.file_exists p)) || Sys.is_directory p then Ok (load ~dir:p)
  else
    match load_file p with
    | Ok r -> Ok ([ r ], 0)
    | Error e -> Error (Printf.sprintf "%s: %s" p e)

let count ~dir = List.length (record_files dir)
