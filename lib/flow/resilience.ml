(* Fault-tolerance policies: classification, bounded retry with seeded
   backoff, step-budget/deadline timeouts.  See resilience.mli. *)

type error_class = Task_failed | Timeout | Cache_corrupt | Resource_exhausted

type failure = {
  f_class : error_class;
  f_site : string;
  f_msg : string;
  f_attempts : int;
}

type policy = {
  pol_max_attempts : int;
  pol_backoff_s : float;
  pol_seed : int;
  pol_deadline_s : float option;
  pol_step_budget : int option;
  pol_retryable : error_class -> bool;
}

let default_retryable = function
  | Task_failed | Cache_corrupt -> true
  | Timeout | Resource_exhausted -> false

let default_policy =
  {
    pol_max_attempts = 2;
    pol_backoff_s = 0.01;
    pol_seed = 42;
    pol_deadline_s = None;
    pol_step_budget = None;
    pol_retryable = default_retryable;
  }

let the_policy = Atomic.make default_policy

let policy () = Atomic.get the_policy

let set_policy p =
  Atomic.set the_policy { p with pol_max_attempts = max 1 p.pol_max_attempts }

let class_label = function
  | Task_failed -> "task-failed"
  | Timeout -> "timeout"
  | Cache_corrupt -> "cache-corrupt"
  | Resource_exhausted -> "resource-exhausted"

let c_failures = Obs.Metrics.counter "flow.task.failures"

let c_retries = Obs.Metrics.counter "flow.retries"

let contains ~needle hay =
  let hay = String.lowercase_ascii hay in
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  nl > 0 && at 0

let classify_message msg =
  if contains ~needle:"corrupt" msg then Cache_corrupt
  else if
    contains ~needle:"step budget" msg
    || contains ~needle:"step limit" msg
    || contains ~needle:"deadline" msg
    || contains ~needle:"timeout" msg
  then Timeout
  else if contains ~needle:"out of memory" msg || contains ~needle:"resource" msg
  then Resource_exhausted
  else Task_failed

let classify_exn = function
  | Machine.Step_limit_exceeded ->
    Some (Timeout, "interpreter step budget exhausted")
  | Out_of_memory -> Some (Resource_exhausted, "out of memory")
  | Stack_overflow -> Some (Resource_exhausted, "stack overflow")
  | Machine.Runtime_error (_, msg) ->
    Some (Task_failed, "interpreter runtime error: " ^ msg)
  | _ -> None

(* Backoff before attempt [n+1]: exponential in the attempt index with a
   jitter factor in [0.5, 1.5) drawn from a stream seeded purely by
   (policy seed, site) — the same (site, attempt) always waits the same
   time, whatever else runs concurrently. *)
let backoff pol ~site n =
  if pol.pol_backoff_s > 0.0 then begin
    let g = Util.Prng.create (pol.pol_seed lxor Hashtbl.hash site) in
    (* advance the stream to this attempt's draw *)
    let jitter = ref 1.0 in
    for _ = 1 to n do
      jitter := 0.5 +. Util.Prng.uniform g
    done;
    let d = pol.pol_backoff_s *. (2.0 ** float_of_int (n - 1)) *. !jitter in
    Unix.sleepf (Float.min d 1.0)
  end

let supervise ?policy:p ~site thunk =
  let pol = match p with Some p -> p | None -> Atomic.get the_policy in
  let rec attempt n =
    let t0 = Obs.Monotonic.now_s () in
    let outcome =
      match thunk () with
      | Ok v -> Ok v
      | Error msg -> Error (classify_message msg, msg)
      | exception e -> (
        match classify_exn e with
        | Some c -> Error c
        | None -> Error (Task_failed, Printexc.to_string e))
    in
    let elapsed = Obs.Monotonic.now_s () -. t0 in
    let outcome =
      match pol.pol_deadline_s with
      | Some d when elapsed > d ->
        Error
          ( Timeout,
            Printf.sprintf "wall-clock deadline %.3gs exceeded (ran %.3gs)" d
              elapsed )
      | _ -> outcome
    in
    match outcome with
    | Ok v -> Ok v
    | Error (cls, msg) ->
      if n < pol.pol_max_attempts && pol.pol_retryable cls then begin
        Obs.Metrics.Counter.incr c_retries;
        Obs.Trace.point ~kind:"retry" ~detail:(class_label cls) site;
        backoff pol ~site n;
        attempt (n + 1)
      end
      else begin
        Obs.Metrics.Counter.incr c_failures;
        Obs.Trace.point ~kind:"failure" ~detail:(class_label cls) site;
        Error { f_class = cls; f_site = site; f_msg = msg; f_attempts = n }
      end
  in
  attempt 1

let with_step_cap ?policy:p f =
  let pol = match p with Some p -> p | None -> Atomic.get the_policy in
  match pol.pol_step_budget with
  | None -> f ()
  | Some budget ->
    let previous = Machine.step_cap () in
    Machine.set_step_cap (Some budget);
    Fun.protect ~finally:(fun () -> Machine.set_step_cap previous) f
