(* Fault tolerance: classification, bounded retry with seeded backoff.
   See resilience.mli. *)

type error_class = Task_failed | Timeout | Cache_corrupt | Resource_exhausted

type failure = {
  f_class : error_class;
  f_site : string;
  f_msg : string;
  f_attempts : int;
}

(* Two attempts per site; only failures that may not recur are retried.
   Timeouts and resource exhaustion are deterministic blowouts that
   would fail identically again. *)
let max_attempts = 2

let retryable = function
  | Task_failed | Cache_corrupt -> true
  | Timeout | Resource_exhausted -> false

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

(* Backoff before the retry: 0.01 s times a jitter factor in [0.5, 1.5)
   drawn from a stream seeded purely by (42, site) — the same site always
   waits the same time, whatever else runs concurrently. *)
let backoff ~site =
  let g = Util.Prng.create (42 lxor Hashtbl.hash site) in
  Unix.sleepf (0.01 *. (0.5 +. Util.Prng.uniform g))

let supervise ~site thunk =
  let rec attempt n =
    let outcome =
      match thunk () with
      | Ok v -> Ok v
      | Error msg -> Error (classify_message msg, msg)
      | exception e -> (
        match classify_exn e with
        | Some c -> Error c
        | None -> Error (Task_failed, Printexc.to_string e))
    in
    match outcome with
    | Ok v -> Ok v
    | Error (cls, msg) ->
      if n < max_attempts && retryable cls then begin
        Obs.Metrics.Counter.incr c_retries;
        Obs.Trace.point ~kind:"retry" ~detail:(class_label cls) site;
        backoff ~site;
        attempt (n + 1)
      end
      else begin
        Obs.Metrics.Counter.incr c_failures;
        Obs.Trace.point ~kind:"failure" ~detail:(class_label cls) site;
        Error { f_class = cls; f_site = site; f_msg = msg; f_attempts = n }
      end
  in
  attempt 1
