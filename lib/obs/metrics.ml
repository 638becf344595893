module Counter = struct
  type t = int Atomic.t

  let incr t = ignore (Atomic.fetch_and_add t 1)

  let add t n = ignore (Atomic.fetch_and_add t n)

  let value = Atomic.get
end

module Gauge = struct
  type t = float Atomic.t

  let set t v = Atomic.set t v

  (* CAS on the boxed float read by [Atomic.get]: physical equality of
     that exact box is what compare_and_set tests, so the loop is a
     correct fetch-and-add. *)
  let add t d =
    let rec go () =
      let cur = Atomic.get t in
      if not (Atomic.compare_and_set t cur (cur +. d)) then go ()
    in
    go ()

  let value = Atomic.get
end

module Histogram = struct
  type t = {
    mu : Mutex.t;
    mutable vals : float array;
    mutable len : int;
    mutable total : float;
  }

  let make () = { mu = Mutex.create (); vals = Array.make 16 0.0; len = 0; total = 0.0 }

  let locked t f =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

  let observe t v =
    locked t (fun () ->
        if t.len = Array.length t.vals then begin
          let bigger = Array.make (2 * t.len) 0.0 in
          Array.blit t.vals 0 bigger 0 t.len;
          t.vals <- bigger
        end;
        t.vals.(t.len) <- v;
        t.len <- t.len + 1;
        t.total <- t.total +. v)

  let count t = locked t (fun () -> t.len)

  let sum t = locked t (fun () -> t.total)

  let percentile_sorted sorted p =
    let n = Array.length sorted in
    if n = 0 then Float.nan
    else if n = 1 then sorted.(0)
    else begin
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      let frac = rank -. float_of_int lo in
      sorted.(lo) +. ((sorted.(hi) -. sorted.(lo)) *. frac)
    end

  let snapshot_values t = locked t (fun () -> Array.sub t.vals 0 t.len)

  let percentile t p =
    let vs = snapshot_values t in
    Array.sort compare vs;
    percentile_sorted vs p

  let clear t =
    locked t (fun () ->
        t.len <- 0;
        t.total <- 0.0)
end

type instrument =
  | Icounter of Counter.t
  | Igauge of Gauge.t
  | Ihistogram of Histogram.t

let table : (string, instrument) Hashtbl.t = Hashtbl.create 64

let table_mu = Mutex.create ()

let with_table f =
  Mutex.lock table_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock table_mu) f

let class_name = function
  | Icounter _ -> "counter"
  | Igauge _ -> "gauge"
  | Ihistogram _ -> "histogram"

let intern name make =
  with_table (fun () ->
      match Hashtbl.find_opt table name with
      | Some i -> i
      | None ->
        let i = make () in
        Hashtbl.add table name i;
        i)

let mismatch name i want =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %S is a %s, not a %s" name (class_name i) want)

let counter name =
  match intern name (fun () -> Icounter (Atomic.make 0)) with
  | Icounter c -> c
  | i -> mismatch name i "counter"

let gauge name =
  match intern name (fun () -> Igauge (Atomic.make 0.0)) with
  | Igauge g -> g
  | i -> mismatch name i "gauge"

let histogram name =
  match intern name (fun () -> Ihistogram (Histogram.make ())) with
  | Ihistogram h -> h
  | i -> mismatch name i "histogram"

type value =
  | Count of int
  | Value of float
  | Summary of {
      count : int;
      sum : float;
      min : float;
      max : float;
      p50 : float;
      p90 : float;
      p99 : float;
    }

let read = function
  | Icounter c -> Count (Counter.value c)
  | Igauge g -> Value (Gauge.value g)
  | Ihistogram h ->
    let vs = Histogram.snapshot_values h in
    Array.sort compare vs;
    let n = Array.length vs in
    Summary
      {
        count = n;
        sum = Array.fold_left ( +. ) 0.0 vs;
        min = (if n = 0 then Float.nan else vs.(0));
        max = (if n = 0 then Float.nan else vs.(n - 1));
        p50 = Histogram.percentile_sorted vs 50.0;
        p90 = Histogram.percentile_sorted vs 90.0;
        p99 = Histogram.percentile_sorted vs 99.0;
      }

let snapshot () =
  with_table (fun () ->
      Hashtbl.fold (fun name i acc -> (name, read i) :: acc) table [])
  |> List.sort compare

let flatten snap =
  List.concat_map
    (fun (name, v) ->
      match v with
      | Count n -> [ (name, float_of_int n) ]
      | Value x -> [ (name, x) ]
      | Summary { count; sum; p50; p90; p99; _ } ->
        [
          (name ^ ".count", float_of_int count);
          (name ^ ".sum", sum);
          (name ^ ".p50", p50);
          (name ^ ".p90", p90);
          (name ^ ".p99", p99);
        ])
    snap

let prefixed prefix name =
  let n = String.length prefix in
  String.length name >= n && String.sub name 0 n = prefix

let jobs_invariant name =
  not
    (prefixed "pool." name
    (* planned nests split into parallel chunks only at --jobs > 1 *)
    || name = "vm.nests.parallel"
    (* daemon traffic telemetry: admission, shedding and rate limiting
       depend on arrival order and machine speed, never on the flow *)
    || prefixed "serve." name
    || Filename.check_suffix name ".waits"
    (* any wall-clock instrument, and every flattened field of a
       latency histogram (h.seconds.count is deterministic, but its
       siblings are not; dropping the family keeps the filter simple
       and the explain view free of half-reported instruments) *)
    || Filename.check_suffix name ".seconds"
    || (match String.rindex_opt name '.' with
       | None -> false
       | Some i -> Filename.check_suffix (String.sub name 0 i) ".seconds"))

let find name = with_table (fun () -> Option.map read (Hashtbl.find_opt table name))

let reset () =
  with_table (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Icounter c -> Atomic.set c 0
          | Igauge g -> Atomic.set g 0.0
          | Ihistogram h -> Histogram.clear h)
        table)
