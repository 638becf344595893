(* The serve-mixed workload: psaflowd processes driven over their Unix
   sockets by a single-process generator that keeps at most one
   connection open.  The generator is a closed loop of [users] clients
   with no think time: each keeps one request outstanding and sends the
   next as soon as the last is terminal and its report checked.  The
   daemons' worker domains therefore never wait for work.  An open loop
   at 40% of capacity left the daemon idle between requests, and over
   ten runs of the same code the middle half of its median latencies
   spread 0.75-0.9 of their median; this loop's spread 0.05-0.12.

   Each daemon serves one block of [block] requests and is then
   replaced, so every daemon does the same work whatever the host's
   speed, and none ages far: its latencies rise with the requests it has
   served, because every ledger record it writes snapshots, and so sorts,
   every histogram.  Blocks run until the run's time is up.  Specs follow
   Zipf popularity over the 20 builtin specs; a share carries a step
   budget that never trips.  Set-up caches every flow, so requests are
   splices. *)

open Pb_sys

let daemon_exe = "_build/default/bin/psaflowd.exe"

(* Concurrent clients: one per domain the daemon runs by default. *)
let users () = max 1 (Util.Pool.recommended_jobs ())

(* Requests per daemon.  A daemon's first request for a spec reads the
   disk tier and takes several times as long as a memory splice.  With up
   to 20 specs in a block of 100, such requests are up to a fifth of all,
   so p90 falls among them rather than on the edge between the two
   kinds. *)
let block = 100

let poll_s = 0.002

let probe_s = 0.05 (* healthz round-trip probes, traced runs only *)

let limit_s = 1.0 (* goodput latency limit *)

let budget_share = 0.1

let budget = 1_000_000_000_000

let queue_cap = 1024

let setups = 2 (* each runs ten cold flows *)

let drain_timeout_s = 30.0 (* per block; a splice takes milliseconds *)

(* Host-speed samples taken before each set-up, before each block (while
   no daemon serves) and after the last. *)
let cal_samples = 3

(* ---- the daemon ---- *)

type daemon = { pid : int; sock : string; dir : string }

let live : daemon list ref = ref []

(* SIGTERM drains the daemon; one that has not exited 10 s later is
   killed, so the benchmark never outlives its time limit waiting. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = now () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () -. t0 < 10.0 ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  (try reap () with Unix.Unix_error _ -> ());
  rm_rf d.dir;
  live := List.filter (fun x -> x.pid <> d.pid) !live

let () = at_exit (fun () -> List.iter stop !live)

let spawn ~cache =
  let dir = fresh "serve" in
  mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [|
      daemon_exe; "--socket"; sock; "--cache"; cache; "--ledger"; Filename.concat dir "ledger";
      "--store"; Filename.concat dir "store"; "--rate"; "0"; "--queue-cap"; string_of_int queue_cap;
    |]
  in
  let pid = Unix.create_process daemon_exe args null log log in
  Unix.close log;
  Unix.close null;
  let d = { pid; sock; dir } in
  live := d :: !live;
  let t0 = now () in
  let rec wait () =
    match Pb_http.exchange ~sock "GET" "/healthz" with
    | 200, _ -> ()
    | _ | (exception (Unix.Unix_error _ | Failure _)) ->
      if now () -. t0 > 30.0 then failwith "psaflowd did not answer /healthz within 30 s";
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ ->
         live := List.filter (fun x -> x.pid <> pid) !live;
         failwith "psaflowd exited during start-up");
      Unix.sleepf 0.001;
      wait ()
  in
  wait ();
  d

(* ---- the requests ---- *)

type req = {
  spec : Pb_check.spec;
  mutable id : string;
  mutable polls : int;
  mutable next_poll : float;
  mutable sent : float;
  mutable latency : float;  (* nan until terminal *)
  mutable ok : bool;
}

(* One block's specs.  Popularity is Zipf (weight 1/rank) over the specs
   in [Pb_check.all_specs] order: evaluation specs first, quick ones last,
   because users repeat the evaluation-size flows the paper reports and
   run the quick smoke-test sizes now and then.  The mix is fixed, not
   drawn: each spec gets its Zipf share of the block (the cumulative
   shares are rounded, so the counts add up to [block]), and a
   [budget_share] of them carries a budget.  A drawn mix moved the per-app
   medians from seed to seed by itself. *)
let mix =
  lazy
    (let specs = Array.of_list Pb_check.all_specs in
     let weights = Array.mapi (fun i _ -> 1.0 /. float_of_int (i + 1)) specs in
     let total = Array.fold_left ( +. ) 0.0 weights in
     let m = Array.make block specs.(0) and filled = ref 0 and cum = ref 0.0 in
     Array.iteri
       (fun i w ->
         cum := !cum +. w;
         let upto = min block (int_of_float (Float.round (float_of_int block *. !cum /. total))) in
         Array.fill m !filled (upto - !filled) specs.(i);
         filled := upto)
       weights;
     m)

(* The next block, in an order drawn from [st]. *)
let next_block st =
  let m = Array.copy (Lazy.force mix) in
  Pb_stat.shuffle st m;
  let budgeted =
    Array.init block (fun i -> float_of_int i < Float.round (budget_share *. float_of_int block))
  in
  Pb_stat.shuffle st budgeted;
  Array.mapi
    (fun i (s : Pb_check.spec) ->
      {
        spec = { s with Pb_check.budget = (if budgeted.(i) then Some budget else None) };
        id = "";
        polls = 0;
        next_poll = infinity;
        sent = nan;
        latency = nan;
        ok = false;
      })
    m

let body_of (s : Pb_check.spec) =
  Printf.sprintf "{\"app\":\"%s\",\"mode\":\"%s\",\"workload\":\"%s\",\"client\":\"loadgen\"%s}" s.app
    (if s.informed then "informed" else "uninformed")
    (if s.quick then "quick" else "eval")
    (match s.budget with Some b -> Printf.sprintf ",\"step_budget\":%d" b | None -> "")

(* ---- set-up ---- *)

(* Populate a fresh cache directory with the uninformed flows of both
   sizes, in-process.  Each daemon starts with an empty memory tier, so
   its first request for a spec reads the disk tier and later ones are
   memory splices; informed specs reuse the uninformed entries, so the
   daemons only read the directory they share.  No request is a cold
   miss: a cold flow holds both vCPUs for 0.15-0.3 s and delays the
   splices that arrive meanwhile, and with five such misses in a run
   p90 spread 0.61 (IQR / median) over ten seeds. *)
let populate goldens t =
  let d = fresh "cache" in
  Cache.set_dir (Some d);
  List.iter
    (fun (s : Pb_check.spec) ->
      if not s.informed then begin
        Cache.clear_memory ();
        ignore (Pb_check.flow t goldens s);
        Gc.full_major ()
      end)
    Pb_check.all_specs;
  Cache.set_dir None;
  Cache.clear_memory ();
  d

let setup t =
  let goldens = Pb_check.load_goldens () in
  let cache = populate goldens t in
  (goldens, cache, spawn ~cache)

(* ---- the generator ---- *)

type drive = {
  mutable late_max : float;
  mutable rtts : float list;
  mutable busy_s : float;  (* per block, first send to last completion *)
}

let span traced name f =
  if traced then Obs.Trace.with_span ~name ~kind:Obs.Trace.Section (fun _ -> f ()) else f ()

(* Serve block [reqs] from daemon [d] in a closed loop of [users ()]
   clients, polling each outstanding request until it is terminal. *)
let drive d reqs goldens t ~trace st =
  let sock = d.sock in
  let n = Array.length reqs and users = users () in
  let start = now () in
  let next = ref 0 and out = ref [] and next_probe = ref start in
  (* when each idle client came free *)
  let free = Queue.create () in
  for _ = 1 to users do
    Queue.add start free
  done;
  let release () = Queue.add (now ()) free in
  let fail r what =
    ignore (Pb_check.record t goldens r.spec ~what None);
    release ()
  in
  let finish r =
    r.latency <- now () -. r.sent;
    let report =
      span trace "perfbench:report" (fun () ->
          match Pb_http.exchange ~sock "GET" ("/v1/flows/" ^ r.id ^ "/report") with
          | 200, body -> Some body
          | _ -> None)
    in
    r.ok <- Pb_check.record t goldens r.spec ~what:("request " ^ r.id) report;
    release ()
  in
  let post r =
    let freed = Queue.take free in
    r.sent <- now ();
    st.late_max <- Float.max st.late_max (r.sent -. freed);
    match
      span trace "perfbench:post" (fun () ->
          Pb_http.exchange ~sock ~body:(body_of r.spec) "POST" "/v1/flows")
    with
    | 202, body -> (
      match Pb_http.json_field body "id" with
      | Some id ->
        r.id <- id;
        r.next_poll <- now () +. poll_s;
        out := r :: !out
      | None -> fail r "request")
    | status, _ -> fail r (Printf.sprintf "request (HTTP %d)" status)
  in
  let poll r =
    r.polls <- r.polls + 1;
    let state =
      span trace "perfbench:poll" (fun () ->
          match Pb_http.exchange ~sock "GET" ("/v1/flows/" ^ r.id) with
          | 200, body -> Pb_http.json_field body "state"
          | _ -> None)
    in
    match state with
    | Some "done" ->
      out := List.filter (fun x -> x != r) !out;
      finish r
    | Some "failed" | None ->
      out := List.filter (fun x -> x != r) !out;
      fail r ("request " ^ r.id)
    | Some _ -> r.next_poll <- now () +. poll_s
  in
  let deadline = start +. drain_timeout_s in
  let rec loop () =
    if !next >= n && !out = [] then ()
    else if now () > deadline then begin
      List.iter (fun r -> fail r ("request " ^ r.id ^ " (timed out)")) !out;
      for i = !next to n - 1 do
        fail reqs.(i) "request (not sent before the time-out)"
      done
    end
    else begin
      if !next < n && not (Queue.is_empty free) then begin
        post reqs.(!next);
        incr next
      end
      else begin
        let earliest =
          List.fold_left
            (fun acc r -> match acc with Some e when e.next_poll <= r.next_poll -> acc | _ -> Some r)
            None !out
        in
        let poll_at = match earliest with Some r -> r.next_poll | None -> infinity in
        let probe = if trace then !next_probe else infinity in
        let first = Float.min poll_at probe in
        let wait = first -. now () in
        if wait > 0.0 then Unix.sleepf wait
        else if first = poll_at then Option.iter poll earliest
        else begin
          let a = now () in
          (match Pb_http.exchange ~sock "GET" "/healthz" with
           | 200, _ -> st.rtts <- (now () -. a) :: st.rtts
           | _ -> ());
          next_probe := !next_probe +. probe_s
        end
      end;
      loop ()
    end
  in
  loop ();
  st.busy_s <- st.busy_s +. (now () -. start)

(* One view of the daemons' [/v1/metrics]: counters and sums add up,
   high-water gauges take the maximum, percentiles the median. *)
let combine dms =
  let names = List.sort_uniq String.compare (List.concat_map (List.map fst) dms) in
  List.map
    (fun n ->
      let vs = List.map (fun dm -> get dm n) dms in
      let ends suffix = String.ends_with ~suffix n in
      ( n,
        if ends ".p50" || ends ".p90" || ends ".p99" then Pb_stat.median vs
        else if ends "queue_depth" then List.fold_left Float.max 0.0 vs
        else List.fold_left ( +. ) 0.0 vs ))
    names

(* ---- metrics ---- *)

let latencies ?(keep = fun _ -> true) sched =
  Array.to_list sched
  |> List.filter (fun r -> keep r && Float.is_finite r.latency)
  |> List.map (fun r -> r.latency)

let run ~seed ~seconds ~trace =
  let t = Pb_check.tally () in
  let cal = Pb_speed.create ~domains:(users ()) in
  let calibrate () =
    for _ = 1 to cal_samples do
      Pb_speed.take cal
    done
  in
  let (goldens, cache, first), setup_times, setup_cal =
    Pb_speed.timed_setups cal ~n:setups ~k:cal_samples
      ~setup:(fun () -> setup t)
      ~teardown:(fun (_, cache, d) ->
        stop d;
        rm_rf cache)
  in
  let st = { late_max = 0.0; rtts = []; busy_s = 0.0 } in
  let order = Random.State.make [| seed; 0x5e |] in
  let blocks = ref [] and served = ref [] in
  if trace then Obs.Trace.start ();
  let t_start = now () in
  let rec serve d =
    calibrate ();
    let reqs = next_block order in
    drive d reqs goldens t ~trace st;
    blocks := reqs :: !blocks;
    let dm =
      match Pb_http.exchange ~sock:d.sock "GET" "/v1/metrics" with
      | 200, body -> Pb_http.json_numbers body
      | _ | (exception (Unix.Unix_error _ | Failure _)) -> []
    in
    served := (dm, peak_rss_mb d.pid) :: !served;
    stop d;
    if now () -. t_start < seconds then serve (spawn ~cache)
  in
  serve first;
  if trace then Obs.Trace.stop ();
  calibrate ();
  rm_rf cache;
  let sched = Array.concat (List.rev !blocks) and served = List.rev !served in
  let daemons = List.length served in
  let get = get (combine (List.map fst served)) in
  let rss = List.fold_left (fun a (_, r) -> Float.max a r) 0.0 served in
  let lat = latencies sched in
  let app_median app = Pb_stat.median (latencies ~keep:(fun r -> r.spec.app = app) sched) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let good = Array.fold_left (fun n r -> if r.ok && r.latency <= limit_s then n + 1 else n) 0 sched in
  let time = Pb_speed.adjust cal `Time and rate = Pb_speed.adjust cal `Rate in
  let medians = List.map app_median Pb_names.apps in
  let e2e =
    [
      Pb_speed.adjust cal ~cal_s:setup_cal `Time
        ("setup_s", Pb_stat.median setup_times, Printf.sprintf "median of %d set-ups" setups);
      time ("suite_s", List.fold_left ( +. ) 0.0 medians, "sum of the per-app median latencies");
      time ("flow_s.geomean", Pb_stat.geomean medians, "geometric mean of the per-app median latencies");
      time ("req_latency_s.p50", Pb_stat.median lat, Printf.sprintf "n=%d requests" (List.length lat));
      time
        ( "req_latency_s.p90",
          Pb_stat.percentile lat 90.0,
          match Pb_stat.tail_percentile (List.length lat) with
          | Some p -> Printf.sprintf "n=%d; tail rule gives p%d" (List.length lat) p
          | None -> "fewer than 11 samples" );
      rate
        ( "goodput_rps",
          ratio (float_of_int good) st.busy_s,
          Printf.sprintf "correct within %gs per second of serving, %d clients" limit_s (users ()) );
      ("peak_rss_mb", rss, Printf.sprintf "highest VmHWM of the %d daemons" daemons);
    ]
  in
  Pb_speed.report cal;
  let layers =
    if not trace then []
    else begin
      let polls = Array.fold_left (fun a r -> a + r.polls) 0 sched in
      let served = List.length lat in
      let client_total = List.fold_left ( +. ) 0.0 lat in
      let hit kind =
        let g f = get (Printf.sprintf "cache.%s.%s" kind f) in
        ratio (g "mem_hits" +. g "disk_hits") (g "mem_hits" +. g "disk_hits" +. g "misses")
      in
      let all_kinds f =
        List.fold_left (fun a k -> a +. get (Printf.sprintf "cache.%s.%s" k f)) 0.0
          [ "run"; "task"; "dsept"; "dsefr" ]
      in
      let p50 keep = Pb_stat.median (latencies ~keep sched) in
      let domains = float_of_int (max 2 (Util.Pool.recommended_jobs ())) in
      [
        ("flow.retries", get "flow.retries");
        ("flow.task.failures", get "flow.task.failures");
        ("interp.self_s", get "interp.seconds");
        ("interp.runs", get "interp.runs");
        ("interp.steps", get "interp.steps");
        ("interp.steps_per_s", ratio (get "interp.steps") (get "interp.seconds"));
        ("interp.vm_coverage", ratio (get "vm.steps.planned") (get "interp.steps"));
        ("dse.points", get "dse.point.seconds.count");
        ("cache.run.hit_ratio", hit "run");
        ("cache.task.hit_ratio", hit "task");
        ("cache.dsept.hit_ratio", hit "dsept");
        ("cache.bytes_read", all_kinds "bytes_read");
        ("cache.bytes_written", all_kinds "bytes_written");
        ("cache.waits", all_kinds "waits");
        ("cache.corrupt", all_kinds "corrupt");
        ("pool.idle_s", get "pool.idle_ns" /. 1e9);
        ("pool.steals", get "pool.steals");
        ("pool.spawned", get "pool.spawned");
        ("pool.queue_depth.max", get "pool.queue_depth");
        ("serve.service_s.p50", get "serve.request.seconds.p50");
        ("serve.service_s.p90", get "serve.request.seconds.p90");
        ( "serve.wait_s.mean",
          ratio (client_total -. get "serve.request.seconds.sum") (float_of_int served) );
        ("serve.http_rtt_s.p50", Pb_stat.median st.rtts);
        ("serve.polls_per_req", ratio (float_of_int polls) (float_of_int (Array.length sched)));
        ("serve.queue_depth.max", get "serve.queue_depth");
        ("serve.shed", get "serve.shed");
        ("serve.ratelimited", get "serve.ratelimited");
        ("serve.latency_s.budgeted.p50", p50 (fun r -> r.spec.budget <> None));
        ("serve.latency_s.unbudgeted.p50", p50 (fun r -> r.spec.budget = None));
        ( "unattributed_share",
          Float.max 0.0
            (1.0
            -. ratio
                 (get "serve.request.seconds.sum" +. (get "pool.idle_ns" /. 1e9))
                 (domains *. st.busy_s)) );
        ("loadgen.late_s.max", st.late_max);
        ("error_rate", ratio (float_of_int t.Pb_check.failed) (float_of_int t.attempted));
      ]
      |> List.map (fun (n, v) -> (n, v, ""))
      |> List.append
           (List.map
              (fun app ->
                ( "flow_s." ^ app,
                  app_median app,
                  Printf.sprintf "median latency, n=%d"
                    (List.length (latencies ~keep:(fun r -> r.spec.app = app) sched)) ))
              Pb_names.apps)
      |> List.cons
           ( "trace.overhead",
             1.0,
             "n/a: psaflowd runs untraced, so there is no traced/untraced pair to compare" )
    end
  in
  (t, e2e, layers)
