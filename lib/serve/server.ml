module M = Obs.Metrics
module J = Obs.Json

type listen =
  | Unix_sock of string
  | Tcp of int

type config = {
  c_listen : listen;
  c_store : string;
  c_ledger : string option;
  c_queue_cap : int;
  c_max_inflight : int;
  c_rate : float;
  c_burst : float;
  c_max_body : int;
  c_resume : bool;
  c_verbose : bool;
  c_runner : Request.spec -> Request.outcome;
}

let default_config listen =
  {
    c_listen = listen;
    c_store = ".psa-reqs";
    c_ledger = Some ".psa-runs";
    c_queue_cap = 64;
    c_max_inflight = Util.Pool.default_jobs ();
    c_rate = 10.0;
    c_burst = 20.0;
    c_max_body = 1024 * 1024;
    c_resume = true;
    c_verbose = false;
    c_runner = Request.run;
  }

(* ---- metrics ---- *)

let m_requests = M.counter "serve.requests"

let m_accepted = M.counter "serve.accepted"

let m_ratelimited = M.counter "serve.ratelimited"

let m_malformed = M.counter "serve.malformed"

let m_shed = M.counter "serve.shed"

let m_completed = M.counter "serve.completed"

let m_failed = M.counter "serve.failed"

let m_resumed = M.counter "serve.resumed"

let m_inflight = M.gauge "serve.inflight"

let m_queue_high = M.gauge "serve.queue_depth"

let m_seconds = M.histogram "serve.request.seconds"

(* ---- stop flag (shared with the signal handlers) ---- *)

let stop_flag = Atomic.make false

let request_stop () = Atomic.set stop_flag true

(* ---- server state ---- *)

type t = {
  cfg : config;
  lock : Mutex.t;
  registry : (string, Store.entry) Hashtbl.t;
  queue : string Admission.t;  (* ids awaiting dispatch, FIFO *)
  limiter : Limiter.t;
  mutable inflight : int;
  mutable exclusive : bool;  (* a step-budgeted request owns the scheduler *)
  mutable parked : string option;
      (* exclusive head-of-line request waiting for the daemon to go idle *)
  mutable next_id : int;
  cmdline : string;
}

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception exn ->
    Mutex.unlock t.lock;
    raise exn

let log t fmt =
  Printf.ksprintf
    (fun s -> if t.cfg.c_verbose then Printf.eprintf "psaflowd: %s\n%!" s)
    fmt

(* A store write failure must never fail the request it records: the
   daemon keeps serving from memory and says so on stderr. *)
let persist t e =
  Hashtbl.replace t.registry e.Store.e_id e;
  match Store.save ~dir:t.cfg.c_store e with
  | Ok () -> ()
  | Error msg -> Printf.eprintf "psaflowd: store write failed: %s\n%!" msg

let fresh_id t =
  let id = Printf.sprintf "q%06d" t.next_id in
  t.next_id <- t.next_id + 1;
  id

(* ---- JSON response bodies ---- *)

let error_body msg = J.to_string (J.Obj [ ("error", J.Str msg) ])

let needs_exclusive spec = spec.Request.sp_step_budget <> None

let spec_of_entry (e : Store.entry) =
  match Codec.parse e.Store.e_spec with
  | Ok (spec, _) -> Some spec
  | Error _ -> None

(* A flow's listing entry, and the head of its detail body. *)
let summary_fields (e : Store.entry) =
  [ ("id", J.Str e.Store.e_id); ("state", J.Str (Store.state_name e.Store.e_state)) ]
  @ if e.Store.e_status >= 0 then [ ("status", J.int e.Store.e_status) ] else []

let entry_body (e : Store.entry) =
  let str_if cond name v = if cond then [ (name, J.Str v) ] else [] in
  let finished = e.Store.e_state = Store.Done || e.Store.e_report <> "" in
  J.to_string
    (J.Obj
       (summary_fields e
       @ [ ("client", J.Str e.Store.e_client); ("spec", J.Str e.Store.e_spec) ]
       @ str_if (e.Store.e_error <> "") "error" e.Store.e_error
       @ str_if (e.Store.e_ledger <> "") "ledger" e.Store.e_ledger
       @ str_if finished "report" (Printf.sprintf "/v1/flows/%s/report" e.Store.e_id)
       @ str_if finished "why" (Printf.sprintf "/v1/flows/%s/why" e.Store.e_id)))

let health_body t =
  with_lock t (fun () ->
      J.to_string
        (J.Obj
           [
             ("ok", J.Bool true);
             ("draining", J.Bool (Atomic.get stop_flag));
             ("inflight", J.int t.inflight);
             ("queued", J.int (Admission.length t.queue));
             ("capacity", J.int (Admission.capacity t.queue));
           ]))

let apps_body () =
  J.to_string
    (J.Obj
       [
         ( "apps",
           J.List
             (List.map
                (fun (a : App.t) ->
                  J.Obj
                    [
                      ("slug", J.Str a.App.app_slug);
                      ("name", J.Str a.App.app_name);
                      ("descr", J.Str a.App.app_descr);
                    ])
                Suite.all) );
       ])

let metrics_body () =
  let values = List.map (fun (name, v) -> (name, J.Num v)) (M.flatten (M.snapshot ())) in
  J.to_string (J.Obj values)

let flows_body t =
  with_lock t (fun () ->
      let entries =
        Hashtbl.fold (fun _ e acc -> e :: acc) t.registry []
        |> List.sort (fun a b -> compare a.Store.e_id b.Store.e_id)
      in
      let flows = List.map (fun e -> J.Obj (summary_fields e)) entries in
      J.to_string (J.Obj [ ("flows", J.List flows) ]))

(* ---- dispatch ---- *)

(* Move queued requests into flight while slots remain.  An exclusive
   (step-budgeted) request blocks at the head until the daemon is idle,
   then runs alone: the interpreter step cap is process-wide, so overlap
   would leak it into innocent requests.  Spawning happens outside the
   lock — with --jobs 1 a spawn executes the whole flow inline. *)
let rec pump t =
  let to_start =
    with_lock t (fun () ->
        let start e excl =
          t.inflight <- t.inflight + 1;
          if excl then t.exclusive <- true;
          M.Gauge.set m_inflight (float_of_int t.inflight);
          persist t { e with Store.e_state = Store.Running }
        in
        let rec fill acc =
          if Atomic.get stop_flag then List.rev acc
          else if t.exclusive || t.inflight >= t.cfg.c_max_inflight then
            List.rev acc
          else
            match t.parked with
            | Some id when t.inflight > 0 ->
              (* head-of-line: everything waits until the daemon is idle *)
              ignore id;
              List.rev acc
            | Some id -> (
              t.parked <- None;
              match Hashtbl.find_opt t.registry id with
              | None -> fill acc
              | Some e ->
                start e true;
                fill ((id, true) :: acc))
            | None -> (
              match Admission.take t.queue with
              | None -> List.rev acc
              | Some id -> (
                match Hashtbl.find_opt t.registry id with
                | None -> fill acc (* unreachable: registry holds every id *)
                | Some e ->
                  let excl =
                    match spec_of_entry e with
                    | Some spec -> needs_exclusive spec
                    | None -> false
                  in
                  if excl && t.inflight > 0 then begin
                    (* wait for idle without losing the queue position *)
                    t.parked <- Some id;
                    List.rev acc
                  end
                  else begin
                    start e excl;
                    fill ((id, excl) :: acc)
                  end))
        in
        fill [])
  in
  List.iter
    (fun (id, excl) ->
      ignore
        (Util.Pool.Fut.spawn ~label:("serve:" ^ id) (fun () ->
             run_one t id excl)))
    to_start

and run_one t id excl =
  let t0 = Obs.Monotonic.now_s () in
  let entry =
    with_lock t (fun () -> Hashtbl.find_opt t.registry id)
  in
  (match entry with
  | None -> ()
  | Some e ->
    let finished =
      match Codec.parse e.Store.e_spec with
      | Error msg ->
        (* a persisted spec can only fail validation across a schema
           change; surface it as a failed request, not a crash *)
        { e with Store.e_state = Store.Failed; e_status = 1; e_error = msg }
      | Ok (spec, _) -> (
        match t.cfg.c_runner spec with
        | outcome ->
          let ledger_path =
            match (t.cfg.c_ledger, outcome.Request.oc_report) with
            | Some dir, Some rep -> (
              let record =
                Run_record.of_report ~kind:"serve"
                  ~cmdline:(t.cmdline ^ " " ^ id)
                  ~status:outcome.Request.oc_status ~mode:spec.Request.sp_mode
                  rep
              in
              match Obs.Ledger.append ~dir record with
              | Ok path -> path
              | Error msg ->
                Printf.eprintf "psaflowd: ledger append failed: %s\n%!" msg;
                "")
            | Some dir, None -> (
              let app =
                match spec.Request.sp_source with
                | Request.Builtin slug -> slug
                | Request.Inline { name; _ } -> name
              in
              let record =
                Run_record.of_failure ~kind:"serve"
                  ~cmdline:(t.cmdline ^ " " ^ id)
                  ~status:outcome.Request.oc_status ~app
                  ~mode:(Pipeline.mode_name spec.Request.sp_mode)
                  ~workload:[] outcome.Request.oc_error
              in
              match Obs.Ledger.append ~dir record with
              | Ok path -> path
              | Error _ -> "")
            | None, _ -> ""
          in
          if outcome.Request.oc_report <> None then
            {
              e with
              Store.e_state = Store.Done;
              e_status = outcome.Request.oc_status;
              e_report = outcome.Request.oc_text;
              e_why = outcome.Request.oc_why;
              e_ledger = ledger_path;
            }
          else
            {
              e with
              Store.e_state = Store.Failed;
              e_status = outcome.Request.oc_status;
              e_error = outcome.Request.oc_error;
              e_ledger = ledger_path;
            }
        | exception exn ->
          {
            e with
            Store.e_state = Store.Failed;
            e_status = 1;
            e_error = "internal: " ^ Printexc.to_string exn;
          })
    in
    with_lock t (fun () -> persist t finished);
    (* per-request flight-recorder flush: the post-mortem trail survives
       the daemon even for successful runs *)
    (match
       Obs.Trace.write_journal
         (Filename.concat t.cfg.c_store (id ^ ".journal.jsonl"))
     with
    | Ok _ -> ()
    | Error msg -> Printf.eprintf "psaflowd: journal flush failed: %s\n%!" msg);
    M.Histogram.observe m_seconds (Obs.Monotonic.now_s () -. t0);
    (match finished.Store.e_state with
    | Store.Done ->
      M.Counter.incr m_completed;
      log t "%s done (status %d)" id finished.Store.e_status
    | _ ->
      M.Counter.incr m_failed;
      log t "%s failed: %s" id finished.Store.e_error));
  with_lock t (fun () ->
      t.inflight <- t.inflight - 1;
      if excl then t.exclusive <- false;
      M.Gauge.set m_inflight (float_of_int t.inflight));
  pump t

(* ---- request handling ---- *)

let client_of rq body_client =
  match body_client with
  | Some c -> c
  | None -> (
    match Http.header rq "x-client" with
    | Some c when c <> "" -> c
    | _ -> "anon")

let submit t (rq : Http.request) =
  if Atomic.get stop_flag then
    Http.response ~status:503 (error_body "draining")
  else
    match Codec.parse rq.Http.rq_body with
    | Error msg ->
      M.Counter.incr m_malformed;
      Http.response ~status:400 (error_body msg)
    | Ok (spec, body_client) -> (
      let client = client_of rq body_client in
      match Limiter.check t.limiter ~client with
      | Limiter.Limited after ->
        M.Counter.incr m_ratelimited;
        Http.response ~status:429
          ~extra_headers:
            [ ("Retry-After", Printf.sprintf "%.0f" (Float.ceil after)) ]
          (error_body "rate limit exceeded")
      | Limiter.Admit -> (
        (* resolution errors (unknown app, unparsable source) answer 400
           at the door rather than burning an admission slot *)
        match Request.resolve spec with
        | Error msg ->
          M.Counter.incr m_malformed;
          Http.response ~status:400 (error_body msg)
        | Ok _ ->
          let admitted =
            with_lock t (fun () ->
                let id = fresh_id t in
                let e =
                  {
                    Store.e_id = id;
                    e_received = Unix.gettimeofday ();
                    e_client = client;
                    e_spec = Codec.to_json ~client spec;
                    e_state = Store.Queued;
                    e_status = -1;
                    e_error = "";
                    e_report = "";
                    e_why = "";
                    e_ledger = "";
                  }
                in
                if Admission.offer t.queue id then begin
                  persist t e;
                  let depth = Admission.length t.queue in
                  if float_of_int depth > M.Gauge.value m_queue_high then
                    M.Gauge.set m_queue_high (float_of_int depth);
                  Some e
                end
                else begin
                  (* shed: nothing persisted, the id is never visible *)
                  t.next_id <- t.next_id - 1;
                  None
                end)
          in
          match admitted with
          | None ->
            M.Counter.incr m_shed;
            log t "shed (queue full)";
            Http.response ~status:503
              ~extra_headers:[ ("Retry-After", "1") ]
              (error_body "overloaded: admission queue full")
          | Some e ->
            M.Counter.incr m_accepted;
            log t "%s accepted from %s" e.Store.e_id client;
            pump t;
            Http.response ~status:202 (entry_body e)))

let lookup t id = with_lock t (fun () -> Hashtbl.find_opt t.registry id)

let flow_subresource t id sub =
  match lookup t id with
  | None -> Http.response ~status:404 (error_body ("no such flow " ^ id))
  | Some e -> (
    let ready text =
      if e.Store.e_state = Store.Done then
        Http.response ~status:200 ~content_type:"text/plain; charset=utf-8" text
      else
        Http.response ~status:409
          (error_body
             (Printf.sprintf "flow %s is %s, not done" id
                (Store.state_name e.Store.e_state)))
    in
    match sub with
    | "report" -> ready e.Store.e_report
    | "why" -> ready e.Store.e_why
    | _ -> Http.response ~status:404 (error_body "unknown subresource"))

let route t (rq : Http.request) =
  let path = rq.Http.rq_path in
  let segments =
    String.split_on_char '/' path |> List.filter (fun s -> s <> "")
  in
  match (rq.Http.rq_method, segments) with
  | "GET", [ "healthz" ] -> Http.response ~status:200 (health_body t)
  | "GET", [ "v1"; "apps" ] -> Http.response ~status:200 (apps_body ())
  | "GET", [ "v1"; "metrics" ] -> Http.response ~status:200 (metrics_body ())
  | "GET", [ "v1"; "flows" ] -> Http.response ~status:200 (flows_body t)
  | "POST", [ "v1"; "flows" ] -> submit t rq
  | "GET", [ "v1"; "flows"; id ] -> (
    match lookup t id with
    | Some e -> Http.response ~status:200 (entry_body e)
    | None -> Http.response ~status:404 (error_body ("no such flow " ^ id)))
  | "GET", [ "v1"; "flows"; id; sub ] -> flow_subresource t id sub
  | _, ([ "healthz" ] | [ "v1"; ("apps" | "metrics" | "flows") ] | [ "v1"; "flows"; _ ] | [ "v1"; "flows"; _; _ ]) ->
    Http.response ~status:405 (error_body "method not allowed")
  | _ -> Http.response ~status:404 (error_body ("no such path " ^ path))

let handle_conn t fd =
  M.Counter.incr m_requests;
  (* a stalled or hostile client times out instead of wedging the loop *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0
   with Unix.Unix_error _ -> ());
  (match Http.read_request ~max_body:t.cfg.c_max_body fd with
  | Error Http.Closed -> ()
  | Error Http.Too_large ->
    Http.send fd (Http.response ~status:413 (error_body "request too large"))
  | Error (Http.Bad_request msg) ->
    Http.send fd (Http.response ~status:400 (error_body msg))
  | Ok rq -> Http.send fd (route t rq));
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- startup / shutdown ---- *)

let bind_listener = function
  | Unix_sock path -> (
    (* a stale socket file from a dead daemon would make bind fail;
       replacing it is safe under the one-daemon-per-path convention *)
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.bind fd (Unix.ADDR_UNIX path) with
    | () ->
      Unix.listen fd 64;
      Ok (fd, Printf.sprintf "unix:%s" path)
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e)))
  | Tcp port -> (
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () ->
      Unix.listen fd 64;
      Ok (fd, Printf.sprintf "http://127.0.0.1:%d" port)
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot bind 127.0.0.1:%d: %s" port
           (Unix.error_message e)))

let resume t =
  let entries, bad = Store.recover ~dir:t.cfg.c_store in
  if bad > 0 then
    Printf.eprintf "psaflowd: skipped %d unreadable store record%s\n%!" bad
      (if bad = 1 then "" else "s");
  let resumable = ref 0 in
  List.iter
    (fun (e : Store.entry) ->
      Hashtbl.replace t.registry e.Store.e_id e;
      (match
         int_of_string_opt
           (String.sub e.Store.e_id 1 (String.length e.Store.e_id - 1))
       with
      | Some n -> t.next_id <- max t.next_id (n + 1)
      | None -> ());
      match e.Store.e_state with
      | Store.Queued | Store.Interrupted ->
        if t.cfg.c_resume then begin
          incr resumable;
          M.Counter.incr m_resumed;
          let e = { e with Store.e_state = Store.Queued } in
          persist t e;
          (* past the live-traffic bound by design: these were admitted
             by a previous life and the queue is empty right now *)
          Admission.force t.queue e.Store.e_id
        end
      | Store.Running | Store.Done | Store.Failed -> ())
    entries;
  if !resumable > 0 then log t "resumed %d unfinished request(s)" !resumable

let drain t =
  let rec wait () =
    let busy = with_lock t (fun () -> t.inflight > 0) in
    if busy then begin
      Unix.sleepf 0.05;
      wait ()
    end
  in
  wait ()

let run cfg =
  Atomic.set stop_flag false;
  match
    (* fail startup early if the store directory cannot exist *)
    Store.save ~dir:cfg.c_store
      {
        Store.e_id = ".probe";
        e_received = 0.0;
        e_client = "";
        e_spec = "{}";
        e_state = Store.Failed;
        e_status = -1;
        e_error = "";
        e_report = "";
        e_why = "";
        e_ledger = "";
      }
  with
  | Error msg -> Error ("store unusable: " ^ msg)
  | Ok () -> (
    (try Unix.unlink (Filename.concat cfg.c_store ".probe.psareq")
     with Unix.Unix_error _ -> ());
    (* liveness: request futures must land on worker domains — with a
       default job count of 1, spawn evaluates eagerly and a long or
       gated request would wedge the accept loop *)
    if Util.Pool.default_jobs () < 2 then Util.Pool.set_default_jobs 2;
    match bind_listener cfg.c_listen with
    | Error _ as e -> e
    | Ok (listener, where) ->
      let t =
        {
          cfg;
          lock = Mutex.create ();
          registry = Hashtbl.create 64;
          queue = Admission.create ~capacity:cfg.c_queue_cap;
          limiter = Limiter.create ~rate:cfg.c_rate ~burst:cfg.c_burst ();
          inflight = 0;
          exclusive = false;
          parked = None;
          next_id = 1;
          cmdline = String.concat " " (Array.to_list Sys.argv);
        }
      in
      let old_term =
        Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_stop ()))
      in
      let old_int =
        Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> request_stop ()))
      in
      let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      Fun.protect
        ~finally:(fun () ->
          Sys.set_signal Sys.sigterm old_term;
          Sys.set_signal Sys.sigint old_int;
          Sys.set_signal Sys.sigpipe old_pipe)
        (fun () ->
          resume t;
          pump t;
          Printf.printf "psaflowd: listening on %s\n%!" where;
          let rec loop () =
            if Atomic.get stop_flag then ()
            else begin
              (match Unix.select [ listener ] [] [] 0.2 with
              | [], _, _ -> ()
              | _ :: _, _, _ -> (
                match Unix.accept listener with
                | fd, _ -> handle_conn t fd
                | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _)
                  -> ())
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
              loop ()
            end
          in
          loop ();
          (try Unix.close listener with Unix.Unix_error _ -> ());
          (match cfg.c_listen with
          | Unix_sock path -> (
            try Unix.unlink path with Unix.Unix_error _ -> ())
          | Tcp _ -> ());
          log t "draining (%d in flight, %d queued)"
            (with_lock t (fun () -> t.inflight))
            (Admission.length t.queue);
          drain t;
          Printf.printf "psaflowd: drained\n%!";
          Ok 0))
