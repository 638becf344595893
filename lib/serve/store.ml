module J = Obs.Json

type state =
  | Queued
  | Running
  | Done
  | Failed
  | Interrupted

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Interrupted -> "interrupted"

let state_of_name = function
  | "queued" -> Some Queued
  | "running" -> Some Running
  | "done" -> Some Done
  | "failed" -> Some Failed
  | "interrupted" -> Some Interrupted
  | _ -> None

type entry = {
  e_id : string;
  e_received : float;
  e_client : string;
  e_spec : string;
  e_state : state;
  e_status : int;
  e_error : string;
  e_report : string;
  e_why : string;
  e_ledger : string;
}

let tag = "psareq"

let version = 1

let skipped = Obs.Metrics.counter "serve.store.skipped"

let to_json e =
  J.to_string
    (J.Obj
       [
         ("id", J.Str e.e_id);
         ("received", J.Num e.e_received);
         ("client", J.Str e.e_client);
         ("spec", J.Str e.e_spec);
         ("state", J.Str (state_name e.e_state));
         ("status", J.int e.e_status);
         ("error", J.Str e.e_error);
         ("report", J.Str e.e_report);
         ("why", J.Str e.e_why);
         ("ledger", J.Str e.e_ledger);
       ])

let of_json text =
  match J.parse text with
  | Error msg -> Error msg
  | Ok j -> (
    let str name =
      match J.member name j with Some (J.Str s) -> Some s | _ -> None
    in
    let num name =
      match J.member name j with Some (J.Num f) -> Some f | _ -> None
    in
    match
      (str "id", num "received", str "client", str "spec", str "state",
       num "status", str "error", str "report", str "why", str "ledger")
    with
    | ( Some id, Some received, Some client, Some spec, Some state,
        Some status, Some error, Some report, Some why, Some ledger ) -> (
      match state_of_name state with
      | None -> Error ("unknown state " ^ state)
      | Some st ->
        Ok
          {
            e_id = id;
            e_received = received;
            e_client = client;
            e_spec = spec;
            e_state = st;
            e_status = int_of_float status;
            e_error = error;
            e_report = report;
            e_why = why;
            e_ledger = ledger;
          })
    | _ -> Error "missing field")

let path ~dir id = Filename.concat dir (id ^ ".psareq")

let ensure_dir dir =
  try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (e, _, _) ->
    failwith (Printf.sprintf "cannot create %s: %s" dir (Unix.error_message e))

let save ~dir e =
  match ensure_dir dir with
  | () ->
    Result.map ignore
      (Obs.Atomic_io.write_checksummed ~tag ~version (path ~dir e.e_id) (to_json e))
  | exception Failure msg -> Error msg

let read_entry file =
  match Obs.Atomic_io.read_checksummed ~tag ~version file with
  | Ok payload -> (
    match of_json (String.trim payload) with
    | Ok e -> Some e
    | Error _ ->
      Obs.Metrics.Counter.incr skipped;
      None)
  | Error _ ->
    Obs.Metrics.Counter.incr skipped;
    None

let entry_files dir =
  match Sys.readdir dir with
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".psareq")
    |> List.sort compare
  | exception Sys_error _ -> []

let load ~dir =
  let files = entry_files dir in
  let bad = ref 0 in
  let entries =
    List.filter_map
      (fun f ->
        match read_entry (Filename.concat dir f) with
        | Some e -> Some e
        | None ->
          incr bad;
          None)
      files
  in
  (entries, !bad)

let recover ~dir =
  let entries, bad = load ~dir in
  let entries =
    List.map
      (fun e ->
        if e.e_state = Running then begin
          let e = { e with e_state = Interrupted } in
          (* best-effort: an unwritable store degrades to in-memory-only
             detection; the daemon still re-runs the request *)
          (match save ~dir e with Ok () | Error _ -> ());
          e
        end
        else e)
      entries
  in
  (entries, bad)
