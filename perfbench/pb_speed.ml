(* Host-speed calibration.

   The vCPUs of a shared host run the same code up to ~2x slower from one
   minute to the next (CPU time tracks wall time, so it is not time
   stolen by the hypervisor but slower execution).  A fixed unit of
   work, timed between the benchmark's operations, measures how fast the
   host runs during a run; end-to-end times are then scaled to a host on
   which that unit takes [ref_s]:

     reported = measured * (ref_s / median (calibration samples)) ^ elasticity

   The elasticity is how much of a change in the unit's time shows in the
   workloads' times (see [elasticity]).  It only sets how much host noise
   is taken out: the parent and a change are scaled alike, so a wrong
   value leaves noise, not bias.

   The unit is the benchmark's own code, so a change to the program moves
   the measured times but not the scale.  It is shaped like the program's
   hot paths: a tree-walking evaluator over boxed floats, string-keyed
   hash-table traffic, short-lived allocation, and a chain of dependent
   loads over 2 MiB.  It runs in helper processes, one per domain the
   timed work uses, all at once: in the benchmark's own process its
   collections would walk the program's heap, so its time would follow
   the program's memory use rather than the host. *)

(* Median calibration time on the reference host: a 2-vCPU VM, between
   its fast (11 ms) and slow (21 ms) phases. *)
let ref_s = 0.015

(* Regressing the log of a run's measured times on the log of its
   calibration median, over ten runs of one commit while the host's
   speed swung 2.3x, gave 1.0-1.3 on flow-warm (correlation 0.98-0.99);
   runs over narrower swings gave 0.4-1.0, which noise in the medians
   biases low.  Of the exponents tried on the same runs, 0.75 left the
   smallest spread over all three workloads. *)
let elasticity = 0.75

(* ---- the unit of work ---- *)

type expr =
  | Const of float
  | Var of int
  | Add of expr * expr
  | Mul of expr * expr
  | Sel of expr * expr * expr * expr  (* if a < b then c else d *)

let rec eval env = function
  | Const c -> c
  | Var i -> env.(i)
  | Add (a, b) -> eval env a +. eval env b
  | Mul (a, b) -> eval env a *. eval env b
  | Sel (a, b, c, d) -> if eval env a < eval env b then eval env c else eval env d

let rec gen st depth =
  if depth = 0 then
    if Random.State.bool st then Const (Random.State.float st 2.0) else Var (Random.State.int st 8)
  else
    match Random.State.int st 3 with
    | 0 -> Add (gen st (depth - 1), gen st (depth - 1))
    | 1 -> Mul (gen st (depth - 1), Const (Random.State.float st 1.0))
    | _ -> Sel (Var (Random.State.int st 8), Const 1.0, gen st (depth - 1), gen st (depth - 1))

let cells = 1 lsl 18

(* The expression, and one cycle through [cells] slots in a seeded order. *)
let state =
  lazy
    (let st = Random.State.make [| 0xca1 |] in
     let order = Array.init cells Fun.id in
     Pb_stat.shuffle st order;
     let next = Array.make cells 0 in
     Array.iteri (fun i c -> next.(c) <- order.((i + 1) mod cells)) order;
     (gen st 10, next))

(* One unit of work; returns its wall seconds. *)
let work () =
  let e, next = Lazy.force state in
  let t0 = Pb_sys.now () in
  let tbl = Hashtbl.create 1024 in
  let acc = ref 0.0 and p = ref 0 in
  for i = 1 to 2000 do
    let env = Array.init 8 (fun k -> float_of_int ((i * 7) + k) /. 1000.0) in
    let v = eval env e in
    let key = Printf.sprintf "k%d" (i land 1023) in
    Hashtbl.replace tbl key (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[]);
    for _ = 1 to 50 do
      p := Array.unsafe_get next !p
    done;
    acc := !acc +. v +. float_of_int !p
  done;
  ignore (Sys.opaque_identity !acc);
  Pb_sys.now () -. t0

(* The helper's main loop: one unit of work per line read from standard
   input, its time written back; exit at end of input. *)
let serve () =
  ignore (work ());
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%.9f\n%!" (work ())
    done
  with End_of_file -> exit 0

let helper_flag = "--calibrator"

(* ---- the helpers ---- *)

type helper = { pid : int; to_h : out_channel; from_h : in_channel }

type t = { helpers : helper list; mutable samples : float list; mutable last : float }

let stop_helpers c =
  List.iter
    (fun h ->
      close_out_noerr h.to_h;
      close_in_noerr h.from_h;
      try ignore (Unix.waitpid [] h.pid) with Unix.Unix_error _ -> ())
    c.helpers

let spawn () =
  let r_in, w_in = Unix.pipe ~cloexec:true () in
  let r_out, w_out = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name [| Sys.executable_name; helper_flag |] r_in w_out Unix.stderr in
  Unix.close r_in;
  Unix.close w_out;
  { pid; to_h = Unix.out_channel_of_descr w_in; from_h = Unix.in_channel_of_descr r_out }

(* [domains] helpers, stopped when the benchmark exits. *)
let create ~domains =
  let c = { helpers = List.init (max 1 domains) (fun _ -> spawn ()); samples = []; last = neg_infinity } in
  at_exit (fun () -> stop_helpers c);
  c

(* One sample: a unit of work on every helper at once, the mean of their
   times. *)
let sample c =
  List.iter
    (fun h ->
      output_string h.to_h "\n";
      flush h.to_h)
    c.helpers;
  let times = List.map (fun h -> float_of_string (input_line h.from_h)) c.helpers in
  List.fold_left ( +. ) 0.0 times /. float_of_int (List.length times)

(* Take a sample towards the run's median. *)
let take c =
  c.samples <- sample c :: c.samples;
  c.last <- Pb_sys.now ()

(* Take a sample unless one was taken in the last [every] seconds. *)
let maybe c ~every = if Pb_sys.now () -. c.last >= every then take c

let median_s c = Pb_stat.median c.samples

(* Multiply a time measured while the unit took [cal_s] (by default the
   run's median) by this to get reference-host seconds. *)
let scale ?cal_s c =
  match (cal_s, c.samples) with
  | Some m, _ -> Float.pow (ref_s /. m) elasticity
  | None, [] -> 1.0
  | None, _ -> Float.pow (ref_s /. median_s c) elasticity

(* Scale a metric row [(name, value, note)] holding a time or a rate to
   the reference host; the note keeps the value as measured. *)
let adjust ?cal_s c kind (name, v, note) =
  let k = scale ?cal_s c in
  let v' = match kind with `Time -> v *. k | `Rate -> v /. k in
  (name, v', Printf.sprintf "%s; measured %.4g" note v)

(* Run [setup] [n] times, tearing down the previous result first (not
   timed); returns the last result, the set-up times, and the median
   calibration sample taken around them ([k] before each and [k] after
   the last).  That median, not the run's, scales set-up times: set-up
   runs before the timed work, and the host's speed may differ between
   the two. *)
let timed_setups c ~n ~k ~setup ~teardown =
  let around = ref [] and times = ref [] and last = ref None in
  let cal () =
    for _ = 1 to k do
      around := sample c :: !around
    done
  in
  for _ = 1 to max 1 n do
    Option.iter teardown !last;
    cal ();
    let t0 = Pb_sys.now () in
    last := Some (setup ());
    times := (Pb_sys.now () -. t0) :: !times
  done;
  cal ();
  (Option.get !last, !times, Pb_stat.median !around)

let report c =
  Printf.eprintf
    "host speed: calibration median %.4f s over %d samples on %d helpers; elasticity %g, scale %.4f\n%!"
    (median_s c) (List.length c.samples) (List.length c.helpers) elasticity (scale c)
