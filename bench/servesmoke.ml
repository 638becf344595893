(* Daemon smoke gate: start a real psaflowd, drive it over its Unix
   socket with hand-rolled HTTP, and verify the service invariants the
   unit tests cannot see from inside the process:

   - a served report is byte-identical to `psaflow run` stdout for the
     same spec (CLI run as a separate process);
   - repeat requests for the same kernel are cache splices: the
     cache.*.misses and interp.runs counters do not move, and they serve
     the first request's provenance, which `psaflow run --why` over the
     same cache prints too;
   - an overload burst is shed with 503 without disturbing the daemon
     or the in-flight runs;
   - every finished request leaves a ledger record and a journal file;
   - SIGTERM drains cleanly (exit 0, socket removed), and a restart
     over a store holding damaged records (a declared length of -1, a
     truncated copy) skips and counts them and still serves the
     persisted history;
   - a step-budgeted and an unbudgeted request in flight together both
     serve the CLI's bytes.

   Usage: servesmoke.exe PSAFLOWD_EXE PSAFLOW_EXE
   Everything runs under ./serve-smoke/ so CI can upload it. *)

let dir = "serve-smoke"

let sock = Filename.concat dir "psa.sock"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("servesmoke: FAIL " ^ s); exit 1) fmt

let ok fmt = Printf.ksprintf (fun s -> print_endline ("servesmoke: ok " ^ s)) fmt

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

(* ---- raw HTTP over the unix socket ---- *)

let http_round text =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      ignore (Unix.write_substring fd text 0 (String.length text));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception Unix.Unix_error _ -> ()
      in
      drain ();
      Buffer.contents buf)

let get path = http_round (Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\n\r\n" path)

let post path body =
  http_round
    (Printf.sprintf
       "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s" path
       (String.length body) body)

let status_of resp =
  match String.split_on_char ' ' resp with
  | _ :: code :: _ -> ( try int_of_string code with Failure _ -> -1)
  | _ -> -1

let body_of resp =
  let rec find i =
    if i + 4 > String.length resp then ""
    else if String.sub resp i 4 = "\r\n\r\n" then
      String.sub resp (i + 4) (String.length resp - i - 4)
    else find (i + 1)
  in
  find 0

let wait_for ?(timeout = 120.0) what pred =
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      fail "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.1;
      loop ()
    end
  in
  loop ()

(* A top-level member of a JSON response body. *)
let field resp name =
  Result.fold ~ok:(Obs.Json.member name) ~error:(fun _ -> None)
    (Obs.Json.parse (body_of resp))

let flow_state id =
  match field (get ("/v1/flows/" ^ id)) "state" with Some (Str st) -> st | _ -> "?"

let id_of resp =
  match field resp "id" with Some (Str id) -> id | _ -> fail "no id in %s" (body_of resp)

let flow_ids () =
  match field (get "/v1/flows") "flows" with
  | Some (List flows) ->
    List.filter_map
      (fun f -> match Obs.Json.member "id" f with Some (Str id) -> Some id | _ -> None)
      flows
  | _ -> fail "unparseable /v1/flows body"

let report_of id = body_of (get ("/v1/flows/" ^ id ^ "/report"))

(* Sum of every cache.*.misses counter in a /v1/metrics body. *)
let cache_misses () =
  match Obs.Json.parse (body_of (get "/v1/metrics")) with
  | Ok (Obj fields) ->
    List.fold_left
      (fun acc (name, v) ->
        match v with
        | Obs.Json.Num n
          when String.starts_with ~prefix:"cache." name
               && String.ends_with ~suffix:".misses" name ->
          acc +. n
        | _ -> acc)
      0.0 fields
  | _ -> fail "unparseable /v1/metrics body"

let interp_runs () =
  match field (get "/v1/metrics") "interp.runs" with
  | Some (Num n) -> n
  | _ -> fail "no interp.runs in /v1/metrics"

(* ---- subprocesses ---- *)

let spawn_daemon ?(max_inflight = 1) exe log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process exe
      [|
        exe; "--socket"; sock;
        "--cache"; Filename.concat dir ".psa-cache";
        "--ledger"; Filename.concat dir ".psa-runs";
        "--store"; Filename.concat dir ".psa-reqs";
        "--queue-cap"; "2"; "--max-inflight"; string_of_int max_inflight;
        "--rate"; "0"; "--verbose";
      |]
      Unix.stdin out out
  in
  Unix.close out;
  pid

let run_cli exe args =
  (* capture stdout exactly: these bytes are compared against the
     daemon-served report *)
  let r, w = Unix.pipe () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read r chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  Unix.close r;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Buffer.contents buf
  | _, _ -> fail "CLI run failed: %s %s" exe (String.concat " " args)

let () =
  let psaflowd, psaflow =
    match Sys.argv with
    | [| _; d; f |] -> (d, f)
    | _ -> fail "usage: servesmoke PSAFLOWD_EXE PSAFLOW_EXE"
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let daemon = spawn_daemon psaflowd (Filename.concat dir "daemon.log") in
  let term_and_reap () =
    (try Unix.kill daemon Sys.sigterm with Unix.Unix_error _ -> ());
    snd (Unix.waitpid [] daemon)
  in
  (* never leave an orphan daemon behind a failure *)
  at_exit (fun () -> try Unix.kill daemon Sys.sigkill with Unix.Unix_error _ -> ());

  wait_for ~timeout:30.0 "daemon socket" (fun () ->
      Sys.file_exists sock
      && try contains ~needle:"\"ok\":true" (body_of (get "/healthz"))
         with Unix.Unix_error _ -> false);
  ok "daemon up on %s" sock;

  if not (contains ~needle:"nbody" (body_of (get "/v1/apps"))) then
    fail "/v1/apps does not list nbody";

  (* 1. a real flow, served report byte-identical to the CLI *)
  let body = {|{"app":"nbody","workload":"quick","client":"smoke"}|} in
  let r1 = post "/v1/flows" body in
  if status_of r1 <> 202 then fail "submit got %d" (status_of r1);
  let id1 = id_of r1 in
  wait_for "first flow" (fun () -> flow_state id1 = "done");
  let served = body_of (get ("/v1/flows/" ^ id1 ^ "/report")) in
  let cli =
    run_cli psaflow
      [ "run"; "nbody"; "--quick";
        "--cache"; Filename.concat dir ".psa-cache"; "--ledger"; "off" ]
  in
  if served <> cli then begin
    let dump name text =
      let oc = open_out (Filename.concat dir name) in
      output_string oc text;
      close_out oc
    in
    dump "served-report.txt" served;
    dump "cli-report.txt" cli;
    fail "daemon report differs from CLI report (see %s)" dir
  end;
  ok "served report is byte-identical to the CLI report (%d bytes)"
    (String.length served);
  let why = body_of (get ("/v1/flows/" ^ id1 ^ "/why")) in
  if why = "" then fail "empty --why provenance";
  ok "provenance served";

  (* 2. repeat requests are cache splices: zero new misses, no
     interpreter run, the same provenance *)
  let misses0 = cache_misses () and runs0 = interp_runs () in
  let r2 = post "/v1/flows" body and r3 = post "/v1/flows" body in
  if status_of r2 <> 202 || status_of r3 <> 202 then fail "repeat submits rejected";
  let id2 = id_of r2 and id3 = id_of r3 in
  wait_for "repeat flows" (fun () ->
      flow_state id2 = "done" && flow_state id3 = "done");
  let misses1 = cache_misses () in
  if misses1 > misses0 then
    fail "repeat requests recomputed: cache misses %g -> %g" misses0 misses1;
  ok "repeat requests were pure cache splices (misses %g, unchanged)" misses0;
  let runs1 = interp_runs () in
  if runs1 <> runs0 then
    fail "repeat requests ran the interpreter: interp.runs %g -> %g" runs0 runs1;
  ok "repeat requests ran nothing (interp.runs %g, unchanged)" runs0;
  if body_of (get ("/v1/flows/" ^ id2 ^ "/report")) <> served then
    fail "spliced report differs from the original";
  ok "spliced report bytes identical";
  List.iter
    (fun id ->
      if body_of (get ("/v1/flows/" ^ id ^ "/why")) <> why then
        fail "%s serves different --why bytes from %s" id id1)
    [ id2; id3 ];
  ok "repeat requests serve the first request's --why bytes";
  let cli_why =
    run_cli psaflow
      [ "run"; "nbody"; "--quick"; "--why";
        "--cache"; Filename.concat dir ".psa-cache"; "--ledger"; "off" ]
  in
  if cli_why <> served ^ "\n" ^ why then
    fail "psaflow run --why differs from the served report and --why";
  ok "psaflow run --why prints the served report and --why";

  (* 3. overload burst: with one inflight slot and a queue of two, an
     8-request burst must shed with 503 and leave the daemon healthy *)
  let statuses = List.init 8 (fun _ -> status_of (post "/v1/flows" body)) in
  let count s = List.length (List.filter (( = ) s) statuses) in
  if count 503 < 1 then fail "burst produced no 503 shed";
  if count 202 < 1 then fail "burst produced no acceptance";
  if List.exists (fun s -> s <> 202 && s <> 503) statuses then
    fail "burst produced unexpected statuses: %s"
      (String.concat "," (List.map string_of_int statuses));
  if not (contains ~needle:"\"ok\":true" (body_of (get "/healthz"))) then
    fail "daemon unhealthy after shed burst";
  ok "burst: %d accepted, %d shed with 503, daemon healthy" (count 202) (count 503);
  let flows = body_of (get "/v1/flows") in
  wait_for "burst drains" (fun () ->
      not (contains ~needle:"\"state\":\"running\"" (body_of (get "/v1/flows")))
      && not (contains ~needle:"\"state\":\"queued\"" (body_of (get "/v1/flows"))));
  ignore flows;

  (* 4. persistence: ledger record + journal per finished request *)
  let detail = body_of (get ("/v1/flows/" ^ id1)) in
  if not (contains ~needle:"\"ledger\":" detail) then
    fail "finished flow has no ledger record: %s" detail;
  let journal = Filename.concat dir (Filename.concat ".psa-reqs" (id1 ^ ".journal.jsonl")) in
  if not (Sys.file_exists journal) then fail "missing journal %s" journal;
  ok "ledger record and journal present for %s" id1;

  (* 5. graceful drain on SIGTERM *)
  let history = body_of (get "/v1/flows") in
  let reports = List.map (fun id -> (id, report_of id)) (flow_ids ()) in
  (match term_and_reap () with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "daemon exited %d on SIGTERM" n
  | _ -> fail "daemon killed by signal instead of draining");
  if Sys.file_exists sock then fail "socket file left behind after drain";
  ok "SIGTERM drained cleanly (exit 0, socket removed)";

  (* 6. restart over a damaged store: a record declaring length -1 and a
     truncated copy of a real record are skipped and counted, and the
     persisted history is still served; with two slots, a budgeted
     request runs beside an unbudgeted one *)
  let store = Filename.concat dir ".psa-reqs" in
  let real =
    In_channel.with_open_bin (Filename.concat store (id1 ^ ".psareq")) In_channel.input_all
  in
  let eol = String.index real '\n' in
  let damage name bytes =
    Out_channel.with_open_bin (Filename.concat store name) (fun oc ->
        Out_channel.output_string oc bytes)
  in
  (match String.split_on_char ' ' (String.sub real 0 eol) with
  | [ tag; version; digest; _ ] ->
    damage "damaged-length.psareq"
      (String.concat " " [ tag; version; digest; "-1" ]
      ^ String.sub real eol (String.length real - eol))
  | _ -> fail "unexpected store record header in %s.psareq" id1);
  damage "damaged-truncated.psareq" (String.sub real 0 (String.length real / 2));
  let daemon2 =
    spawn_daemon ~max_inflight:2 psaflowd (Filename.concat dir "daemon2.log")
  in
  at_exit (fun () -> try Unix.kill daemon2 Sys.sigkill with Unix.Unix_error _ -> ());
  wait_for ~timeout:30.0 "restarted daemon" (fun () ->
      Sys.file_exists sock
      && try contains ~needle:"\"ok\":true" (body_of (get "/healthz"))
         with Unix.Unix_error _ -> false);
  if flow_state id1 <> "done" then fail "restart lost %s" id1;
  if body_of (get ("/v1/flows/" ^ id1 ^ "/report")) <> served then
    fail "restart serves different report bytes";
  ok "restart serves the persisted history (%s still done, bytes identical)" id1;
  if body_of (get "/v1/flows") <> history then fail "restart changed the flow list";
  List.iter
    (fun (id, report) ->
      if report_of id <> report then fail "restart serves different bytes for %s" id)
    reports;
  ok "restart serves all %d persisted flows, bytes identical" (List.length reports);
  (match field (get "/v1/metrics") "serve.store.skipped" with
  | Some (Num n) when n >= 2.0 -> ok "restart skipped %g damaged store records" n
  | _ -> fail "restart over a damaged store did not report serve.store.skipped >= 2");
  let budgeted =
    {|{"app":"nbody","workload":"quick","client":"smoke","step_budget":1000000000000}|}
  in
  let rb = post "/v1/flows" budgeted and ru = post "/v1/flows" body in
  if status_of rb <> 202 || status_of ru <> 202 then
    fail "budgeted/unbudgeted submits rejected";
  let idb = id_of rb and idu = id_of ru in
  wait_for "budgeted and unbudgeted flows" (fun () ->
      flow_state idb = "done" && flow_state idu = "done");
  List.iter
    (fun id ->
      if body_of (get ("/v1/flows/" ^ id ^ "/report")) <> cli then
        fail "%s serves different bytes from the CLI" id)
    [ idb; idu ];
  ok "budgeted %s and unbudgeted %s both serve the CLI bytes" idb idu;
  (try Unix.kill daemon2 Sys.sigterm with Unix.Unix_error _ -> ());
  (match Unix.waitpid [] daemon2 with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> fail "restarted daemon did not drain cleanly");
  print_endline "servesmoke: all checks passed"
