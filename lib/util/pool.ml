(* A future-based work-stealing scheduler on OCaml 5 domains.

   Shape: every domain that touches the pool owns a bounded Chase–Lev
   style deque (LIFO for the owner, FIFO for thieves); overflow spills
   into a global mutex-protected injector queue.  [Fut.spawn] allocates
   a future, enqueues a pointer to it, and returns immediately;
   [Fut.await] drives the future to completion.  A long-lived set of
   worker domains (grown lazily to [default_jobs () - 1], shrunk by
   [set_default_jobs]) pops its own deque, drains the injector, and
   steals from every registered deque.

   Correctness never depends on the queues: a queue entry is only a
   *hint* that a future may be runnable.  The future itself carries an
   atomic state machine

     New thunk  --CAS-->  Claimed (thunk, claimant)  -->  Done result

   and whoever wins the CAS runs the thunk, so a stale or duplicated
   queue entry is harmless — the loser of the race just moves on.  An
   awaiting domain never idles while work exists: it claims its own
   still-New future inline, else executes *other* pending tasks
   (help-first stealing), and only parks when no runnable task exists
   anywhere.  Parking uses an activity counter + condition variable;
   every spawn, completion, and worker death bumps the counter, and a
   parker re-checks it under the lock before sleeping, so wakeups
   cannot be lost.

   Determinism: results are read back in input order ([Fut.await_all]
   awaits its futures left to right and surfaces the first failure in
   input order), so scheduling order is never observable in results.
   With an effective job count of 1 the pool is never engaged at all —
   [Fut.spawn] evaluates eagerly — which is the reference semantics
   every parallel run must reproduce byte for byte.

   Crash recovery: an injected pool fault ([Faultsim.Crash], site
   "pool:worker") fires between claiming a task and computing it.  A
   worker domain dies on the spot, leaving the future Claimed by a
   claimant whose [alive] flag is now false; the awaiting domain
   detects the dead claimant, re-claims the future, and recomputes it
   without re-firing.  The submitting domain itself survives a fired
   fault: it counts the failure and recomputes immediately.  Both paths
   increment [pool.worker_failures] and keep every result identical to
   the fault-free run. *)

(* The OCaml 5 runtime supports at most 128 live domains; stay a couple
   below so library users can spawn their own. *)
let hard_cap = 126

let clamp jobs = max 1 (min jobs hard_cap)

let recommended_jobs () = Domain.recommended_domain_count ()

let default = Atomic.make (clamp (recommended_jobs ()))

let default_jobs () = Atomic.get default

(* ---- scheduler telemetry (nondeterministic; excluded from --explain) ---- *)

(* Registered on first use, so a run that never engages the pool reports
   no pool metrics.  Not [lazy]: forcing a lazy value that another domain
   is forcing raises [CamlinternalLazy.Undefined], which killed worker
   domains on their first park; registration is idempotent, so domains
   racing here just receive the same instrument. *)
let on_first_use make =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some m -> m
    | None ->
      let m = make () in
      Atomic.set cell (Some m);
      m

let m_failures = on_first_use (fun () -> Obs.Metrics.counter "pool.worker_failures")
let m_spawned = on_first_use (fun () -> Obs.Metrics.counter "pool.spawned")
let m_steals = on_first_use (fun () -> Obs.Metrics.counter "pool.steals")
let m_idle_ns = on_first_use (fun () -> Obs.Metrics.counter "pool.idle_ns")
let m_depth = on_first_use (fun () -> Obs.Metrics.gauge "pool.queue_depth")

(* ---- futures ---- *)

(* [alive] is cleared when the claiming executor dies to an injected
   crash: it marks every claim that executor still held as reclaimable. *)
type claimant = { alive : bool Atomic.t }

type 'a state =
  | New of (unit -> 'a)
  | Claimed of (unit -> 'a) * claimant
  | Done of ('a, exn * Printexc.raw_backtrace) result

type 'a fut = 'a state Atomic.t

type task = Any : 'a fut -> task

(* ---- bounded work-stealing deque ---- *)

module Deque = struct
  (* Chase–Lev shape: the owner pushes and pops at [bottom], thieves
     CAS [top] forward.  OCaml's [Atomic] operations are sequentially
     consistent, so no explicit fences are needed.  Capacity is fixed;
     a full deque rejects the push and the caller spills to the
     injector.  A slot is only overwritten once [top] has advanced past
     it (the push guard keeps [bottom - top < capacity]), so a thief
     that read a stale slot always fails its CAS on [top]. *)
  let capacity = 256
  let mask = capacity - 1

  type nonrec t = {
    top : int Atomic.t;
    bottom : int Atomic.t;
    slots : task option Atomic.t array;
  }

  let create () =
    {
      top = Atomic.make 0;
      bottom = Atomic.make 0;
      slots = Array.init capacity (fun _ -> Atomic.make None);
    }

  let depth d = max 0 (Atomic.get d.bottom - Atomic.get d.top)

  let push d task =
    let b = Atomic.get d.bottom in
    let t = Atomic.get d.top in
    if b - t >= capacity then false
    else begin
      Atomic.set d.slots.(b land mask) (Some task);
      Atomic.set d.bottom (b + 1);
      true
    end

  let pop d =
    let b = Atomic.get d.bottom - 1 in
    Atomic.set d.bottom b;
    let t = Atomic.get d.top in
    if b < t then begin
      (* empty: undo the decrement *)
      Atomic.set d.bottom t;
      None
    end
    else begin
      let x = Atomic.get d.slots.(b land mask) in
      if b > t then x
      else begin
        (* last element: race thieves for it via the CAS on [top] *)
        let won = Atomic.compare_and_set d.top t (t + 1) in
        Atomic.set d.bottom (t + 1);
        if won then x else None
      end
    end

  let steal d =
    let t = Atomic.get d.top in
    let b = Atomic.get d.bottom in
    if t >= b then None
    else begin
      let x = Atomic.get d.slots.(t land mask) in
      if Atomic.compare_and_set d.top t (t + 1) then x else None
    end
end

(* ---- global injector (deque overflow) ---- *)

module Injector = struct
  let q : task Queue.t = Queue.create ()
  let lock = Mutex.create ()

  let push task =
    Mutex.lock lock;
    Queue.push task q;
    Mutex.unlock lock

  let pop () =
    Mutex.lock lock;
    let x = if Queue.is_empty q then None else Some (Queue.pop q) in
    Mutex.unlock lock;
    x

  let depth () =
    Mutex.lock lock;
    let n = Queue.length q in
    Mutex.unlock lock;
    n
end

(* ---- deque registry (steal victims) ---- *)

(* Copy-on-write array of every deque ever registered.  Deques of dead
   domains stay listed: their leftover entries remain stealable, and a
   stale empty deque costs one load per steal scan.  The registry is
   bounded by the number of domains created over the process lifetime. *)
let all_deques : Deque.t array Atomic.t = Atomic.make [||]

let rec register_deque d =
  let cur = Atomic.get all_deques in
  let next = Array.append cur [| d |] in
  if not (Atomic.compare_and_set all_deques cur next) then register_deque d

(* ---- per-domain executor context ---- *)

type ctx = {
  deque : Deque.t;
  claimant : claimant;
  mutable rr : int;  (* steal-scan rotation cursor *)
}

let ctx_key =
  Domain.DLS.new_key (fun () ->
      let d = Deque.create () in
      register_deque d;
      { deque = d; claimant = { alive = Atomic.make true }; rr = 0 })

(* ---- parking ---- *)

(* [activity] is bumped by every event that could unblock a sleeper
   (spawn, completion, worker death, generation change).  A parker
   snapshots it *before* its final scan for work; if the snapshot is
   stale by the time it holds the lock, something happened in between
   and it returns to rescan instead of sleeping.  The waker broadcasts
   only when [parked > 0]; sequential consistency of the atomics makes
   the skipped broadcast safe (see pool.mli). *)
let activity = Atomic.make 0
let parked = Atomic.make 0
let park_lock = Mutex.create ()
let park_cond = Condition.create ()

let wake_all () =
  Atomic.incr activity;
  if Atomic.get parked > 0 then begin
    Mutex.lock park_lock;
    Condition.broadcast park_cond;
    Mutex.unlock park_lock
  end

let park ?(should_stop = fun () -> false) snap =
  Mutex.lock park_lock;
  Atomic.incr parked;
  if Atomic.get activity = snap && not (should_stop ()) then begin
    let t0 = Obs.Monotonic.now_s () in
    let wait () =
      while Atomic.get activity = snap && not (should_stop ()) do
        Condition.wait park_cond park_lock
      done
    in
    if Obs.Trace.enabled () then
      Obs.Trace.with_span ~name:"pool-idle" ~kind:Obs.Trace.Pool (fun _ -> wait ())
    else wait ();
    Obs.Metrics.Counter.add (m_idle_ns ())
      (int_of_float ((Obs.Monotonic.now_s () -. t0) *. 1e9))
  end;
  Atomic.decr parked;
  Mutex.unlock park_lock

(* ---- task execution ---- *)

let complete fut thunk =
  let r =
    match thunk () with
    | v -> Ok v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  Atomic.set fut (Done r);
  wake_all ()

(* Run a claim held by a domain that survives injected crashes (an
   awaiting or helping domain): a fired pool fault counts a worker
   failure and the task is recomputed on the spot without re-firing. *)
let run_claim_surviving fut thunk =
  if Faultsim.fire Faultsim.Pool_site ~site:"worker" then
    Obs.Metrics.Counter.incr (m_failures ());
  complete fut thunk

(* ---- finding work ---- *)

let find_task ctx =
  match Deque.pop ctx.deque with
  | Some _ as r -> r
  | None -> (
    match Injector.pop () with
    | Some _ as r -> r
    | None ->
      let ds = Atomic.get all_deques in
      let n = Array.length ds in
      if n = 0 then None
      else begin
        let start = ctx.rr in
        ctx.rr <- ctx.rr + 1;
        let rec go i =
          if i >= n then None
          else
            let d = ds.((start + i) mod n) in
            if d == ctx.deque then go (i + 1)
            else
              match Deque.steal d with
              | Some _ as r ->
                Obs.Metrics.Counter.incr (m_steals ());
                r
              | None -> go (i + 1)
        in
        go 0
      end)

(* Help-first execution by an awaiting domain: claim a hinted future if
   it is still New and run it, surviving injected crashes.  Claimed or
   Done hints are stale — skip them. *)
let help_run ctx (Any fut) =
  match Atomic.get fut with
  | New thunk as st ->
    if Atomic.compare_and_set fut st (Claimed (thunk, ctx.claimant)) then
      run_claim_surviving fut thunk
  | Claimed _ | Done _ -> ()

(* ---- worker domains ---- *)

type worker = {
  w_dom : unit Domain.t;
  w_stop : bool Atomic.t;
  w_dead : bool Atomic.t;
}

let workers : worker list ref = ref []
let workers_lock = Mutex.create ()
let live_workers = Atomic.make 0

(* Returns [true] when the worker crashed and must die: the claim it
   holds is left behind for the awaiting domain to reclaim, which is
   exactly the "item lost with the dead worker" scenario the joiner-side
   recovery exists for. *)
let worker_run ctx (Any fut) =
  match Atomic.get fut with
  | New thunk as st ->
    if Atomic.compare_and_set fut st (Claimed (thunk, ctx.claimant)) then begin
      if Faultsim.fire Faultsim.Pool_site ~site:"worker" then begin
        Atomic.set ctx.claimant.alive false;
        Obs.Metrics.Counter.incr (m_failures ());
        true
      end
      else begin
        complete fut thunk;
        false
      end
    end
    else false
  | Claimed _ | Done _ -> false

let worker_body stop dead () =
  let ctx = Domain.DLS.get ctx_key in
  let rec loop () =
    if not (Atomic.get stop) then begin
      let snap = Atomic.get activity in
      match find_task ctx with
      | Some task -> if not (worker_run ctx task) then loop ()
      | None ->
        park ~should_stop:(fun () -> Atomic.get stop) snap;
        loop ()
    end
  in
  loop ();
  Atomic.set dead true;
  Atomic.decr live_workers;
  (* wake awaiting domains so claims held by a crashed worker are
     reclaimed promptly, and joiners notice the exit *)
  wake_all ()

let spawn_worker () =
  let stop = Atomic.make false and dead = Atomic.make false in
  Atomic.incr live_workers;
  { w_dom = Domain.spawn (worker_body stop dead); w_stop = stop; w_dead = dead }

(* Grow the worker set to [k] live domains, first reaping any that died
   to injected crashes.  Dead workers are only respawned here — never
   from the crash path — so an always-firing fault rule cannot cause an
   unbounded respawn storm: recovery falls to the awaiting domains,
   which never die. *)
let ensure_workers k =
  let k = min k (hard_cap - 1) in
  if k > 0 && Atomic.get live_workers < k then begin
    Mutex.lock workers_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock workers_lock) @@ fun () ->
    let dead, live = List.partition (fun w -> Atomic.get w.w_dead) !workers in
    List.iter (fun w -> Domain.join w.w_dom) dead;
    let deficit = k - List.length live in
    let fresh = List.init (max 0 deficit) (fun _ -> spawn_worker ()) in
    workers := fresh @ live
  end

let set_default_jobs jobs =
  let jobs = clamp jobs in
  Atomic.set default jobs;
  (* shrink the worker set to the new target; growth stays lazy *)
  Mutex.lock workers_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock workers_lock) @@ fun () ->
  let dead, live = List.partition (fun w -> Atomic.get w.w_dead) !workers in
  List.iter (fun w -> Domain.join w.w_dom) dead;
  let rec split n = function
    | [] -> ([], [])
    | w :: tl ->
      if n > 0 then
        let keep, excess = split (n - 1) tl in
        (w :: keep, excess)
      else ([], w :: tl)
  in
  let keep, excess = split (jobs - 1) live in
  List.iter (fun w -> Atomic.set w.w_stop true) excess;
  wake_all ();
  List.iter (fun w -> Domain.join w.w_dom) excess;
  workers := keep

(* ---- spawn / await ---- *)

let note_depth ctx =
  let g = m_depth () in
  let d = float_of_int (Deque.depth ctx.deque + Injector.depth ()) in
  if d > Obs.Metrics.Gauge.value g then Obs.Metrics.Gauge.set g d

(* The future runs in its spawner's request context on whichever domain
   claims it: every path below (worker, thief, inline or helping await,
   crash reclaim) calls the stored thunk. *)
let enqueue_spawn thunk =
  let ctx = Domain.DLS.get ctx_key in
  let rc = Reqctx.current () in
  let fut = Atomic.make (New (fun () -> Reqctx.run_in rc thunk)) in
  Obs.Metrics.Counter.incr (m_spawned ());
  if not (Deque.push ctx.deque (Any fut)) then Injector.push (Any fut);
  note_depth ctx;
  wake_all ();
  fut

(* [help]: while a live executor holds the future, run other queued tasks
   rather than park ([await_no_help] parks, so nothing else lands on the
   caller's stack) *)
let await_result ~help fut =
  let ctx = Domain.DLS.get ctx_key in
  let rec loop () =
    (* snapshot before inspecting the future: a completion bumped
       [activity] after this read, so parking on the snapshot cannot
       miss it *)
    let snap = Atomic.get activity in
    match Atomic.get fut with
    | Done r -> r
    | New thunk as st ->
      (* nobody picked it up yet: run it inline *)
      if Atomic.compare_and_set fut st (Claimed (thunk, ctx.claimant)) then
        run_claim_surviving fut thunk;
      loop ()
    | Claimed (thunk, cl) as st ->
      if not (Atomic.get cl.alive) then begin
        (* the claiming worker died: reclaim and recompute without
           re-firing, so recovery always terminates *)
        if Atomic.compare_and_set fut st (Claimed (thunk, ctx.claimant)) then
          complete fut thunk;
        loop ()
      end
      else begin
        (* claimed by a live executor: help with other pending work
           rather than idling, park only when none exists *)
        (match if help then find_task ctx else None with
         | Some task -> help_run ctx task
         | None -> park snap);
        loop ()
      end
  in
  loop ()

let reraise (e, bt) = Printexc.raise_with_backtrace e bt

let await fut =
  match await_result ~help:true fut with Ok v -> v | Error eb -> reraise eb

let await_no_help fut =
  match await_result ~help:false fut with Ok v -> v | Error eb -> reraise eb

(* Settle every future, then surface the first failure in input order —
   the same answer a sequential left-to-right map raises, regardless of
   completion order. *)
let settle_all futs =
  let rs = List.map (await_result ~help:true) futs in
  let rec firsterr = function
    | [] -> ()
    | Ok _ :: tl -> firsterr tl
    | Error eb :: _ -> reraise eb
  in
  firsterr rs;
  List.map (function Ok v -> v | Error _ -> assert false) rs

let spawn ?label f =
  let f =
    match label with
    | Some name when Obs.Trace.enabled () ->
      fun () -> Obs.Trace.with_span ~name ~kind:Obs.Trace.Pool (fun _ -> f ())
    | _ -> f
  in
  if default_jobs () <= 1 then
    (* sequential reference semantics: evaluate in program order, let
       exceptions propagate from the spawn point, never engage the
       scheduler *)
    Atomic.make (Done (Ok (f ())))
  else begin
    ensure_workers (default_jobs () - 1);
    enqueue_spawn f
  end

module Fut = struct
  type 'a t = 'a fut

  let spawn = spawn
  let await = await
  let await_no_help = await_no_help
  let await_all = settle_all
end
