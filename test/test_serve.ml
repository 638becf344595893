(* psaflowd building blocks and daemon core: codec round-trip and
   malformed-request rejection, HTTP framing, rate-limiter replay
   determinism, bounded-admission load shedding, request-store crash
   recovery, and in-process end-to-end server runs with an injected
   runner (shed burst, drain, resume, budgeted requests overlapping,
   report bytes), and the step budget's scope: a served budget prunes
   paths like a flow budget and never leaks into a concurrent request. *)

let check msg = Alcotest.(check bool) msg

let check_int msg = Alcotest.(check int) msg

let check_str msg = Alcotest.(check string) msg

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "psa-serve-test-%d-%d" (Unix.getpid ()) !tmp_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let quick_spec =
  {
    Request.sp_source = Request.Builtin "nbody";
    sp_mode = Pipeline.Uninformed;
    sp_quick = true;
    sp_step_budget = None;
    sp_jobs_hint = None;
  }

(* One real engine run shared by every test that needs a genuine report;
   lazy so pure codec/limiter tests never pay for it. *)
let real_outcome = lazy (Request.run quick_spec)

(* ---------------- codec ---------------- *)

let round_trip spec client =
  match Serve.Codec.parse (Serve.Codec.to_json ?client spec) with
  | Error msg -> Alcotest.failf "round-trip rejected: %s" msg
  | Ok got -> got

let test_codec_round_trip () =
  let spec, client = round_trip quick_spec None in
  check "builtin survives" true (spec = quick_spec);
  check "no client" true (client = None);
  let full =
    {
      Request.sp_source =
        Request.Inline { name = "mine"; text = "int main() {}"; scale = 4 };
      sp_mode = Pipeline.Informed;
      sp_quick = false;
      sp_step_budget = Some 123456;
      sp_jobs_hint = Some 8;
    }
  in
  let spec, client = round_trip full (Some "alice") in
  check "inline survives" true (spec = full);
  check "client survives" true (client = Some "alice")

let test_codec_defaults () =
  match Serve.Codec.parse {|{"app":"nbody"}|} with
  | Error msg -> Alcotest.failf "minimal spec rejected: %s" msg
  | Ok (spec, client) ->
    check "defaults" true (spec = { quick_spec with Request.sp_quick = false });
    check "no client" true (client = None)

let test_codec_malformed () =
  let rejected body frag =
    match Serve.Codec.parse body with
    | Ok _ -> Alcotest.failf "accepted malformed body %s" body
    | Error msg ->
      check (Printf.sprintf "error mentions %s" frag) true
        (contains ~needle:frag msg)
  in
  rejected "not json" "invalid JSON";
  rejected {|[1,2]|} "object";
  rejected {|{"app":"nbody","frobnicate":1}|} "frobnicate";
  rejected {|{}|} "required";
  rejected {|{"app":"nbody","source":"int main(){}"}|} "not both";
  rejected {|{"app":"nbody","scale":2}|} "inline";
  rejected {|{"app":"nbody","mode":"psychic"}|} "mode";
  rejected {|{"app":"nbody","workload":"huge"}|} "workload";
  rejected {|{"app":"nbody","step_budget":0}|} "positive";
  rejected {|{"app":"nbody","step_budget":1.5}|} "positive";
  rejected {|{"app":"nbody","jobs":-2}|} "positive";
  rejected {|{"app":"nbody","client":""}|} "client";
  rejected {|{"app":"nbody","client":"\ud800"}|} "invalid JSON";
  rejected {|{"app":7}|} "string"

(* ---------------- http framing ---------------- *)

(* Feed raw bytes through a socketpair so read_request sees a real fd. *)
let parse_bytes text =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      ignore (Unix.write_substring a text 0 (String.length text));
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      Serve.Http.read_request ~max_body:4096 b)

let test_http_parse () =
  match
    parse_bytes
      "POST /v1/flows?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\nX-Client: bob\r\n\r\nbody"
  with
  | Error _ -> Alcotest.fail "well-formed request rejected"
  | Ok rq ->
    check_str "method" "POST" rq.Serve.Http.rq_method;
    check_str "path" "/v1/flows" rq.Serve.Http.rq_path;
    check_str "query" "x=1" rq.Serve.Http.rq_query;
    check_str "body" "body" rq.Serve.Http.rq_body;
    check "header lookup is case-insensitive" true
      (Serve.Http.header rq "x-client" = Some "bob")

let test_http_bare_lf () =
  match parse_bytes "GET /healthz HTTP/1.1\nHost: h\n\n" with
  | Error _ -> Alcotest.fail "bare-LF request rejected"
  | Ok rq -> check_str "path" "/healthz" rq.Serve.Http.rq_path

let test_http_errors () =
  (match parse_bytes "total garbage\r\n\r\n" with
  | Error (Serve.Http.Bad_request _) -> ()
  | _ -> Alcotest.fail "garbage request line not Bad_request");
  (match
     parse_bytes
       ("POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n"
       ^ String.make 4097 'x')
   with
  | Error Serve.Http.Too_large -> ()
  | _ -> Alcotest.fail "oversized body not Too_large");
  match parse_bytes "GET /partial" with
  | Error Serve.Http.Closed -> ()
  | _ -> Alcotest.fail "truncated request not Closed"

let test_http_response () =
  let resp =
    Serve.Http.response ~status:429
      ~extra_headers:[ ("Retry-After", "2") ]
      "{}"
  in
  check "status line" true
    (contains ~needle:"HTTP/1.1 429 Too Many Requests\r\n" resp);
  check "content length" true (contains ~needle:"Content-Length: 2\r\n" resp);
  check "connection close" true (contains ~needle:"Connection: close\r\n" resp);
  check "extra header" true (contains ~needle:"Retry-After: 2\r\n" resp);
  check "body" true (contains ~needle:"\r\n\r\n{}" resp)

(* ---------------- limiter ---------------- *)

let script limiter clock arrivals =
  List.map
    (fun (at, client) ->
      clock := at;
      Serve.Limiter.check limiter ~client)
    arrivals

let test_limiter_bucket () =
  let clock = ref 0.0 in
  let l =
    Serve.Limiter.create ~clock:(fun () -> !clock) ~rate:1.0 ~burst:2.0 ()
  in
  let verdicts =
    script l clock
      [ (0.0, "a"); (0.0, "a"); (0.0, "a"); (0.0, "b"); (1.0, "a"); (1.2, "a") ]
  in
  (match verdicts with
  | [ Admit; Admit; Limited _; Admit; Admit; Limited _ ] -> ()
  | _ -> Alcotest.fail "bucket verdict sequence wrong");
  check_int "clients are independent buckets" 2 (Serve.Limiter.clients l)

let test_limiter_replay_determinism () =
  let arrivals =
    [ (0.0, "a"); (0.05, "b"); (0.1, "a"); (0.1, "a"); (0.4, "b"); (0.9, "a");
      (1.3, "a"); (1.3, "b"); (1.35, "a"); (2.0, "a") ]
  in
  let run () =
    let clock = ref 0.0 in
    let l =
      Serve.Limiter.create ~clock:(fun () -> !clock) ~rate:2.0 ~burst:1.0 ()
    in
    script l clock arrivals
  in
  check "same arrival script yields the same verdicts" true (run () = run ());
  match List.filter (function Serve.Limiter.Limited _ -> true | _ -> false) (run ()) with
  | [] -> Alcotest.fail "script never hit the limit"
  | limited ->
    List.iter
      (function
        | Serve.Limiter.Limited after ->
          check "retry-after is positive" true (after > 0.0)
        | Serve.Limiter.Admit -> ())
      limited

let test_limiter_disabled () =
  let l = Serve.Limiter.create ~rate:0.0 ~burst:1.0 () in
  for _ = 1 to 50 do
    match Serve.Limiter.check l ~client:"flood" with
    | Serve.Limiter.Admit -> ()
    | Serve.Limiter.Limited _ -> Alcotest.fail "rate 0 must disable limiting"
  done

(* ---------------- admission ---------------- *)

let test_admission_shed () =
  let q = Serve.Admission.create ~capacity:2 in
  check_int "capacity" 2 (Serve.Admission.capacity q);
  check "first fits" true (Serve.Admission.offer q "a");
  check "second fits" true (Serve.Admission.offer q "b");
  check "third sheds" false (Serve.Admission.offer q "c");
  Serve.Admission.force q "r";
  check_int "force bypasses the cap" 3 (Serve.Admission.length q);
  check "fifo" true (Serve.Admission.take q = Some "a");
  check "fifo 2" true (Serve.Admission.take q = Some "b");
  check "forced entry drains last" true (Serve.Admission.take q = Some "r");
  check "empty" true (Serve.Admission.take q = None);
  check "offer after drain fits again" true (Serve.Admission.offer q "d")

(* ---------------- store ---------------- *)

(* Read one entry back the way the server does: through [Store.load]. *)
let stored ~dir id =
  List.find_opt (fun e -> e.Serve.Store.e_id = id) (fst (Serve.Store.load ~dir))

let entry id state =
  {
    Serve.Store.e_id = id;
    e_received = 1754650000.5;
    e_client = "alice";
    e_spec = Serve.Codec.to_json ~client:"alice" quick_spec;
    e_state = state;
    e_status = (match state with Serve.Store.Done -> 0 | _ -> -1);
    e_error = "";
    e_report = (match state with Serve.Store.Done -> "report\nbytes\n" | _ -> "");
    e_why = "";
    e_ledger = "";
  }

(* Clients that escape non-ASCII (Python's json.dumps default) must get
   back the name they sent, through the codec and the request store. *)
let test_codec_unicode_escapes () =
  let name (spec : Request.spec) =
    match spec.Request.sp_source with Request.Inline { name; _ } -> name | _ -> ""
  in
  match Serve.Codec.parse {|{"source":"int main() {}","source_name":"caf\u00e9"}|} with
  | Error msg -> Alcotest.failf "escaped name rejected: %s" msg
  | Ok (spec, _) ->
    check_str "escape decodes to UTF-8" "caf\xc3\xa9" (name spec);
    check_str "canonical encoding keeps it" "caf\xc3\xa9"
      (name (fst (round_trip spec None)));
    with_dir (fun dir ->
        let e = entry "q000001" Serve.Store.Queued in
        (match Serve.Store.save ~dir { e with e_spec = Serve.Codec.to_json spec } with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "save failed: %s" msg);
        match stored ~dir "q000001" with
        | Some got -> (
          match Serve.Codec.parse got.Serve.Store.e_spec with
          | Ok (stored, _) -> check_str "the store keeps it" "caf\xc3\xa9" (name stored)
          | Error msg -> Alcotest.failf "stored spec rejected: %s" msg)
        | None -> Alcotest.fail "saved entry not found")

let test_store_round_trip () =
  with_dir (fun dir ->
      let e = entry "q000002" Serve.Store.Done in
      (match Serve.Store.save ~dir e with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "save failed: %s" msg);
      (match stored ~dir "q000002" with
      | Some got -> check "entry survives byte-for-byte" true (got = e)
      | None -> Alcotest.fail "saved entry not found");
      (match Serve.Store.save ~dir (entry "q000001" Serve.Store.Queued) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "save failed: %s" msg);
      let entries, bad = Serve.Store.load ~dir in
      check_int "no skips" 0 bad;
      check "load is id-ordered" true
        (List.map (fun e -> e.Serve.Store.e_id) entries
        = [ "q000001"; "q000002" ]))

let test_store_corruption_skipped () =
  with_dir (fun dir ->
      (match Serve.Store.save ~dir (entry "q000001" Serve.Store.Done) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "save failed: %s" msg);
      let write name text =
        Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
            Out_channel.output_string oc text)
      in
      write "q000000.psareq" "not a checksummed record";
      (* declared lengths past either end of the file: a reader that
         trusts them stops psaflowd at start-up with
         Invalid_argument("Bytes.create") or runs out of memory *)
      let digest = Digest.to_hex (Digest.string "{}") in
      write "q000002.psareq" (Printf.sprintf "psareq v1 %s -1\n{}" digest);
      write "q000003.psareq" (Printf.sprintf "psareq v1 %s 999999999999999\n{}" digest);
      let skipped () =
        Obs.Metrics.Counter.value (Obs.Metrics.counter "serve.store.skipped")
      in
      let before = skipped () in
      let entries, bad = Serve.Store.load ~dir in
      check_int "corrupt files skipped" 3 bad;
      check_int "serve.store.skipped counted them" 3 (skipped () - before);
      check_int "valid entry still loads" 1 (List.length entries))

let test_store_recover () =
  with_dir (fun dir ->
      List.iter
        (fun e ->
          match Serve.Store.save ~dir e with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "save failed: %s" msg)
        [
          entry "q000001" Serve.Store.Running;
          entry "q000002" Serve.Store.Queued;
          entry "q000003" Serve.Store.Done;
        ];
      let entries, _ = Serve.Store.recover ~dir in
      let state id =
        (List.find (fun e -> e.Serve.Store.e_id = id) entries)
          .Serve.Store.e_state
      in
      check "running becomes interrupted" true
        (state "q000001" = Serve.Store.Interrupted);
      check "queued stays queued" true (state "q000002" = Serve.Store.Queued);
      check "terminal records are never rewritten" true
        (state "q000003" = Serve.Store.Done);
      (* the rewrite is persistent: a second recovery sees it on disk *)
      match stored ~dir "q000001" with
      | Some e ->
        check "interrupted state reached the disk" true
          (e.Serve.Store.e_state = Serve.Store.Interrupted)
      | None -> Alcotest.fail "recovered entry vanished")

(* ---------------- request ---------------- *)

let test_request_run () =
  let oc = Lazy.force real_outcome in
  check_int "quick nbody run is fully ok" 0 oc.Request.oc_status;
  (match oc.Request.oc_report with
  | Some rep ->
    check_str "text is Report.run_text" (Report.run_text rep)
      oc.Request.oc_text;
    check_str "why is Report.why_text" (Report.why_text rep) oc.Request.oc_why
  | None -> Alcotest.fail "no report from a quick run");
  check "report text names the app" true
    (contains ~needle:"N-Body" oc.Request.oc_text)

let test_request_resolve_errors () =
  (match
     Request.resolve { quick_spec with Request.sp_source = Request.Builtin "nosuch" }
   with
  | Ok _ -> Alcotest.fail "unknown slug resolved"
  | Error msg -> check "error lists known slugs" true (contains ~needle:"nbody" msg));
  let oc =
    Request.run { quick_spec with Request.sp_source = Request.Builtin "nosuch" }
  in
  check_int "unresolvable spec fails with status 1" 1 oc.Request.oc_status;
  check "run never raises" true (oc.Request.oc_error <> "")

(* ---------------- step budgets ---------------- *)

let with_jobs jobs f =
  let saved = Util.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs saved) @@ fun () ->
  Util.Pool.set_default_jobs jobs;
  f ()

let rendered oc = (oc.Request.oc_status, oc.Request.oc_text, oc.Request.oc_why)

(* Runs on a cold memory tier: a replayed run spends no steps, so a
   budget only prunes what a request actually executes. *)
let run_cold spec =
  Cache.clear_memory ();
  Request.run spec

(* A served budget means what a flow budget means: it caps the branch
   fan-out, so a blown budget prunes paths instead of failing the flow. *)
let test_request_budget_prunes () =
  let spec = { quick_spec with Request.sp_step_budget = Some 50 } in
  List.iter
    (fun jobs ->
      with_jobs jobs @@ fun () ->
      let oc = run_cold spec in
      Cache.clear_memory ();
      match
        Engine.run ~workload:Nbody.app.App.app_test_overrides ~step_budget:50
          ~mode:Pipeline.Uninformed Nbody.app
      with
      | Error e -> Alcotest.fail e
      | Ok rep ->
        let at what = Printf.sprintf "%s at --jobs %d" what jobs in
        check_int (at "budget prunes paths") Request.exit_partial oc.Request.oc_status;
        check_str (at "text equals the flow budget's") (Report.run_text rep)
          oc.Request.oc_text;
        check_str (at "why equals the flow budget's") (Report.why_text rep)
          oc.Request.oc_why)
    [ 1; 4 ]

(* Two requests on one scheduler: a budgeted K-Means flow must not leak
   its budget into an unbudgeted N-Body flow, whichever domain runs
   whose futures.  The two apps share no memo or task-cache key, so each
   outcome must equal its solo run.  N-Body is spawned first so that a
   worker steals it while this domain runs K-Means: the two flows start
   together. *)
let test_request_budget_no_leak () =
  let kmeans =
    {
      quick_spec with
      Request.sp_source = Request.Builtin "kmeans";
      sp_step_budget = Some 50;
    }
  in
  with_jobs 4 @@ fun () ->
  let nbody_solo = rendered (run_cold quick_spec) in
  let kmeans_solo = rendered (run_cold kmeans) in
  for round = 1 to 8 do
    Cache.clear_memory ();
    let n = Util.Pool.Fut.spawn (fun () -> Request.run quick_spec) in
    let k = Util.Pool.Fut.spawn (fun () -> Request.run kmeans) in
    let k = Util.Pool.Fut.await k in
    let n = Util.Pool.Fut.await n in
    check (Printf.sprintf "round %d: nbody equals its solo run" round) true
      (rendered n = nbody_solo);
    check (Printf.sprintf "round %d: budgeted kmeans equals its solo run" round)
      true (rendered k = kmeans_solo)
  done

(* ---------------- server end-to-end ---------------- *)

let http_round sock_path text =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock_path);
      ignore (Unix.write_substring fd text 0 (String.length text));
      let buf = Buffer.create 1024 in
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

let status_of resp =
  match String.split_on_char ' ' resp with
  | _ :: code :: _ -> int_of_string code
  | _ -> Alcotest.failf "unparsable response %S" resp

let body_of resp =
  let rec find i =
    if i + 4 > String.length resp then ""
    else if String.sub resp i 4 = "\r\n\r\n" then
      String.sub resp (i + 4) (String.length resp - i - 4)
    else find (i + 1)
  in
  find 0

let get sock path =
  http_round sock (Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\n\r\n" path)

let post sock path body =
  http_round sock
    (Printf.sprintf "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
       path (String.length body) body)

let wait_for ?(timeout = 10.0) what pred =
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.02;
      loop ()
    end
  in
  loop ()

(* Run [f sock] against a live in-process daemon, then drain it and
   check the drain was clean.  The runner is injected so tests control
   execution deterministically. *)
let with_server ?(queue_cap = 8) ?(max_inflight = 2) ?(rate = 0.0)
    ?(burst = 1.0) ?(resume = true) ~runner dir f =
  let sock = Filename.concat dir "psa.sock" in
  let cfg =
    {
      (Serve.Server.default_config (Serve.Server.Unix_sock sock)) with
      Serve.Server.c_store = Filename.concat dir "reqs";
      c_ledger = None;
      c_queue_cap = queue_cap;
      c_max_inflight = max_inflight;
      c_rate = rate;
      c_burst = burst;
      c_resume = resume;
      c_runner = runner;
    }
  in
  let server = Domain.spawn (fun () -> Serve.Server.run cfg) in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Serve.Server.request_stop ();
        match Domain.join server with
        | Ok 0 -> ()
        | Ok code -> Alcotest.failf "drain exited %d" code
        | Error msg -> Alcotest.failf "server failed: %s" msg)
      (fun () ->
        wait_for "socket" (fun () -> Sys.file_exists sock);
        f sock)
  in
  check "socket file removed on clean shutdown" false (Sys.file_exists sock);
  result

let failing_outcome =
  {
    Request.oc_status = 1;
    oc_report = None;
    oc_error = "injected";
    oc_text = "";
    oc_why = "";
  }

(* A latch the injected runner blocks on until the test releases it. *)
type gate = { g_lock : Mutex.t; g_cond : Condition.t; mutable g_open : bool }

let gate () = { g_lock = Mutex.create (); g_cond = Condition.create (); g_open = false }

let gate_wait g =
  Mutex.lock g.g_lock;
  while not g.g_open do
    Condition.wait g.g_cond g.g_lock
  done;
  Mutex.unlock g.g_lock

let gate_open g =
  Mutex.lock g.g_lock;
  g.g_open <- true;
  Condition.broadcast g.g_cond;
  Mutex.unlock g.g_lock

let flow_state sock id =
  let b = body_of (get sock ("/v1/flows/" ^ id)) in
  List.find_map
    (fun st -> if contains ~needle:(Printf.sprintf "\"state\":%S" st) b then Some st else None)
    [ "queued"; "running"; "done"; "failed"; "interrupted" ]
  |> Option.value ~default:"?"

let terminal sock id =
  match flow_state sock id with "done" | "failed" -> true | _ -> false

let test_server_e2e () =
  with_dir (fun dir ->
      let g = gate () in
      let runner _spec =
        gate_wait g;
        Lazy.force real_outcome
      in
      with_server ~queue_cap:1 ~max_inflight:1 ~runner dir (fun sock ->
          check "healthz" true
            (contains ~needle:"\"ok\":true" (body_of (get sock "/healthz")));
          check "apps endpoint lists the suite" true
            (contains ~needle:"nbody" (body_of (get sock "/v1/apps")));
          (* inflight slot, then the single queue slot, then shed *)
          let r1 = post sock "/v1/flows" {|{"app":"nbody","workload":"quick"}|} in
          check_int "first request accepted" 202 (status_of r1);
          check "accepted body carries the id" true
            (contains ~needle:"q000001" (body_of r1));
          wait_for "dispatch" (fun () -> flow_state sock "q000001" = "running");
          let r2 = post sock "/v1/flows" {|{"app":"nbody","workload":"quick"}|} in
          check_int "second request queues" 202 (status_of r2);
          let r3 = post sock "/v1/flows" {|{"app":"nbody","workload":"quick"}|} in
          check_int "overload burst is shed with 503" 503 (status_of r3);
          check "shed body says overloaded" true
            (contains ~needle:"overloaded" (body_of r3));
          check "shed request never got an id" false
            (contains ~needle:"q000003" (body_of (get sock "/v1/flows")));
          (* shedding didn't disturb the daemon or the in-flight run *)
          check "daemon healthy after shed" true
            (contains ~needle:"\"ok\":true" (body_of (get sock "/healthz")));
          let r400 = post sock "/v1/flows" {|{"app":"nbody","bogus":1}|} in
          check_int "malformed body rejected" 400 (status_of r400);
          let early = get sock "/v1/flows/q000001/report" in
          check_int "report of an unfinished flow is 409" 409 (status_of early);
          check_int "unknown flow is 404" 404
            (status_of (get sock "/v1/flows/q999999"));
          check_int "unknown path is 404" 404 (status_of (get sock "/nope"));
          check_int "wrong method is 405" 405
            (status_of
               (http_round sock "DELETE /v1/flows HTTP/1.1\r\nHost: x\r\n\r\n"));
          gate_open g;
          wait_for "both runs" (fun () ->
              terminal sock "q000001" && terminal sock "q000002");
          let oc = Lazy.force real_outcome in
          check_str "served report bytes equal Report.run_text"
            oc.Request.oc_text
            (body_of (get sock "/v1/flows/q000001/report"));
          check_str "served why bytes equal Report.why_text" oc.Request.oc_why
            (body_of (get sock "/v1/flows/q000001/why"));
          check "metrics endpoint exposes serve counters" true
            (contains ~needle:"\"serve.accepted\""
               (body_of (get sock "/v1/metrics")))))

let test_server_rate_limit () =
  with_dir (fun dir ->
      let runner _spec = failing_outcome in
      with_server ~rate:1.0 ~burst:1.0 ~runner dir (fun sock ->
          let body = {|{"app":"nbody","client":"alice"}|} in
          check_int "first request spends the bucket" 202
            (status_of (post sock "/v1/flows" body));
          let r = post sock "/v1/flows" body in
          check_int "second request is rate-limited" 429 (status_of r);
          check "429 carries Retry-After" true (contains ~needle:"Retry-After:" r);
          check_int "another client has its own bucket" 202
            (status_of (post sock "/v1/flows" {|{"app":"nbody","client":"bob"}|}))))

let test_server_resume () =
  with_dir (fun dir ->
      let store = Filename.concat dir "reqs" in
      (* a previous daemon died: one run in flight, one still queued, one
         finished — only the first two may be re-run *)
      List.iter
        (fun e ->
          match Serve.Store.save ~dir:store e with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "save failed: %s" msg)
        [
          entry "q000001" Serve.Store.Running;
          entry "q000002" Serve.Store.Queued;
          entry "q000003" Serve.Store.Done;
        ];
      let ran = Atomic.make 0 in
      let runner _spec =
        Atomic.incr ran;
        failing_outcome
      in
      with_server ~runner dir (fun sock ->
          wait_for "resumed runs" (fun () ->
              terminal sock "q000001" && terminal sock "q000002");
          check_int "exactly the unfinished requests re-ran" 2 (Atomic.get ran);
          check_str "terminal record untouched by resume" "done"
            (flow_state sock "q000003");
          check_str "finished report survives restarts" "report\nbytes\n"
            (body_of (get sock "/v1/flows/q000003/report"));
          check_int "id allocation resumes past the store" 202
            (status_of (post sock "/v1/flows" {|{"app":"nbody"}|}));
          wait_for "new run" (fun () -> terminal sock "q000004")))

(* A checksum-valid record whose [id] field is [id], published as [file]
   in the store [dir]: what a bug, a hand edit or another program could
   leave there. *)
let plant ~dir ~file ~id ~state =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let json =
    Obs.Json.(
      to_string
        (Obj
           [
             ("id", Str id);
             ("received", Num 1754650000.5);
             ("client", Str "mallory");
             ("spec", Str (Serve.Codec.to_json quick_spec));
             ("state", Str state);
             ("status", int (-1));
             ("error", Str "");
             ("report", Str "");
             ("why", Str "");
             ("ledger", Str "");
           ]))
  in
  match
    Obs.Atomic_io.write_checksummed ~tag:"psareq" ~version:1
      (Filename.concat dir file) json
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "plant failed: %s" msg

let store_skipped () =
  Obs.Metrics.Counter.value (Obs.Metrics.counter "serve.store.skipped")

(* An empty id used to stop the daemon at start-up: resume parsed the
   digits after its first byte (Invalid_argument from String.sub).  A
   record is trusted only under its own id, [q] and digits, so this one,
   one whose id is not its file name and one whose id is not digits are
   all skipped and counted, and none of them runs. *)
let test_server_foreign_ids () =
  with_dir (fun dir ->
      let store = Filename.concat dir "reqs" in
      plant ~dir:store ~file:"q000001.psareq" ~id:"" ~state:"queued";
      (match Serve.Store.save ~dir:store (entry "q000002" Serve.Store.Done) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "save failed: %s" msg);
      plant ~dir:store ~file:"q000003.psareq" ~id:"q000009" ~state:"queued";
      plant ~dir:store ~file:"q0x10.psareq" ~id:"q0x10" ~state:"queued";
      (* checked before the daemon starts: one that dies in [resume] has
         already bound its socket, and a request to it would never return *)
      let entries, bad = Serve.Store.load ~dir:store in
      check_int "foreign records skipped" 3 bad;
      check "only the valid record loads" true
        (List.map (fun e -> e.Serve.Store.e_id) entries = [ "q000002" ]);
      let before = store_skipped () in
      let ran = Atomic.make 0 in
      let runner _spec =
        Atomic.incr ran;
        failing_outcome
      in
      with_server ~runner dir (fun sock ->
          check "daemon starts" true
            (contains ~needle:"\"ok\":true" (body_of (get sock "/healthz")));
          check_int "the daemon skips and counts them" 3 (store_skipped () - before);
          check_str "the valid record is still served" "done" (flow_state sock "q000002");
          let listed = body_of (get sock "/v1/flows") in
          check "no foreign id is listed" false
            (contains ~needle:"q000009" listed || contains ~needle:"q0x10" listed);
          let r = post sock "/v1/flows" {|{"app":"nbody"}|} in
          check_int "new request accepted" 202 (status_of r);
          check "its id follows the valid record" true
            (contains ~needle:"q000003" (body_of r));
          wait_for "new run" (fun () -> terminal sock "q000003");
          check_int "only the new request ran" 1 (Atomic.get ran)))

(* Recovery rewrites a [running] record as [interrupted], at the path its
   id names, even with resume off: an id of ["../escaped"] used to put
   that write outside the store. *)
let test_server_foreign_id_write () =
  with_dir (fun dir ->
      let store = Filename.concat dir "reqs" in
      plant ~dir:store ~file:"q000001.psareq" ~id:"../escaped" ~state:"running";
      let before = store_skipped () in
      with_server ~resume:false ~runner:(fun _ -> failing_outcome) dir (fun sock ->
          check "daemon starts" true
            (contains ~needle:"\"ok\":true" (body_of (get sock "/healthz")));
          check "nothing is written outside the store" false
            (Sys.file_exists (Filename.concat dir "escaped.psareq"));
          check_int "the record is skipped and counted" 1 (store_skipped () - before)))

(* Budgeted and unbudgeted requests share the scheduler: each request's
   budget travels with its own futures, so dispatch never holds one back
   for another.  Each runner keeps its slot until both kinds have
   started (bounded), so the two intervals overlap unless dispatch
   serializes them.  The accept-loop domain never runs futures, so the
   pool needs two workers (3 jobs) to run two requests at once. *)
let test_server_overlaps_budgeted () =
  with_jobs (max 3 (Util.Pool.default_jobs ())) @@ fun () ->
  with_dir (fun dir ->
      let lock = Mutex.create () in
      let spans = ref [] in
      let started_budgeted = Atomic.make false
      and started_plain = Atomic.make false in
      let runner spec =
        let budgeted = spec.Request.sp_step_budget <> None in
        let t0 = Unix.gettimeofday () in
        Atomic.set (if budgeted then started_budgeted else started_plain) true;
        while
          (not (Atomic.get started_budgeted && Atomic.get started_plain))
          && Unix.gettimeofday () -. t0 < 5.0
        do
          Unix.sleepf 0.01
        done;
        Unix.sleepf 0.05;
        Mutex.lock lock;
        spans := (budgeted, t0, Unix.gettimeofday ()) :: !spans;
        Mutex.unlock lock;
        failing_outcome
      in
      with_server ~max_inflight:4 ~runner dir (fun sock ->
          let submit body =
            check_int "accepted" 202 (status_of (post sock "/v1/flows" body))
          in
          submit {|{"app":"nbody"}|};
          submit {|{"app":"nbody","step_budget":1000000}|};
          wait_for "both" (fun () ->
              List.for_all (terminal sock) [ "q000001"; "q000002" ]);
          match List.partition (fun (b, _, _) -> b) !spans with
          | [ (_, b0, b1) ], [ (_, u0, u1) ] ->
            check "budgeted request overlaps the unbudgeted one" true
              (b0 < u1 && u0 < b1)
          | _ -> Alcotest.fail "expected one budgeted and one unbudgeted run"))

let suite =
  [
    Alcotest.test_case "codec round-trip" `Quick test_codec_round_trip;
    Alcotest.test_case "codec defaults" `Quick test_codec_defaults;
    Alcotest.test_case "codec rejects malformed bodies" `Quick
      test_codec_malformed;
    Alcotest.test_case "http parses a request" `Quick test_http_parse;
    Alcotest.test_case "http tolerates bare LF" `Quick test_http_bare_lf;
    Alcotest.test_case "http framing errors" `Quick test_http_errors;
    Alcotest.test_case "http response shape" `Quick test_http_response;
    Alcotest.test_case "limiter token bucket" `Quick test_limiter_bucket;
    Alcotest.test_case "limiter replay determinism" `Quick
      test_limiter_replay_determinism;
    Alcotest.test_case "limiter disabled at rate 0" `Quick
      test_limiter_disabled;
    Alcotest.test_case "admission bounded queue sheds" `Quick
      test_admission_shed;
    Alcotest.test_case "codec decodes \\u escapes" `Quick test_codec_unicode_escapes;
    Alcotest.test_case "store round-trip" `Quick test_store_round_trip;
    Alcotest.test_case "store skips corrupt records" `Quick
      test_store_corruption_skipped;
    Alcotest.test_case "store recovery marks interrupted" `Quick
      test_store_recover;
    Alcotest.test_case "request run renders report text" `Slow
      test_request_run;
    Alcotest.test_case "request resolve errors" `Quick
      test_request_resolve_errors;
    Alcotest.test_case "request budget prunes like a flow budget" `Slow
      test_request_budget_prunes;
    Alcotest.test_case "request budget never leaks across requests" `Slow
      test_request_budget_no_leak;
    Alcotest.test_case "server end-to-end" `Slow test_server_e2e;
    Alcotest.test_case "server rate limit" `Quick test_server_rate_limit;
    Alcotest.test_case "server resume after crash" `Quick test_server_resume;
    Alcotest.test_case "server skips store records with a foreign id" `Quick
      test_server_foreign_ids;
    Alcotest.test_case "store recovery never writes outside the store" `Quick
      test_server_foreign_id_write;
    Alcotest.test_case "server overlaps budgeted requests" `Quick
      test_server_overlaps_budgeted;
  ]
