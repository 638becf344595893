type kind =
  | Task
  | Branch
  | Dse_point
  | Interp_run
  | Cache_lookup
  | Pool
  | Flow
  | Section

let cat_of_kind = function
  | Task -> "task"
  | Branch -> "branch"
  | Dse_point -> "dse-point"
  | Interp_run -> "interp-run"
  | Cache_lookup -> "cache-lookup"
  | Pool -> "pool"
  | Flow -> "flow"
  | Section -> "section"

type attr = Str of string | Int of int | Float of float | Bool of bool

(* What a [with_span] body sees: a collector for attributes, live only
   while the tracer is armed ([dummy] otherwise). *)
type span = { sp_live : bool; mutable sp_attrs : (string * attr) list }

let dummy = { sp_live = false; sp_attrs = [] }

(* One completed span, or one point event (which begins and ends at the
   same instant). *)
type record = {
  r_kind : string;  (* "span", or the point event's class *)
  r_name : string;
  r_detail : string;  (* the span's category, or point-event context *)
  r_ts_b : float;
  r_seq_b : int;
  r_ts_e : float;
  r_seq_e : int;
  r_attrs : (string * attr) list;
}

let blank =
  {
    r_kind = "";
    r_name = "";
    r_detail = "";
    r_ts_b = 0.0;
    r_seq_b = 0;
    r_ts_e = 0.0;
    r_seq_e = 0;
    r_attrs = [];
  }

let capacity = 512

(* One buffer per domain, owned exclusively by that domain while it runs;
   the registry (under [reg_mu]) lets the exporting domain reach buffers
   whose owner has since exited (pool domains are short-lived).  [b_born]
   orders buffers that reuse a domain id: ids are recycled after a domain
   exits, so a track can be fed by several buffers, never concurrently.
   Every record lands in [b_ring], whose newest [capacity] entries are the
   flight recorder; spans recorded while armed are also kept in
   [b_spans] for export. *)
type buffer = {
  b_tid : int;
  b_born : int;
  b_ring : record array;
  mutable b_count : int;  (* records ever made; slot = count mod capacity *)
  mutable b_spans : record list;  (* most recent first *)
  mutable b_last_ts : float;
  mutable b_seq : int;
}

let armed = Atomic.make false

let enabled () = Atomic.get armed

let reg_mu = Mutex.create ()

let buffers : buffer list ref = ref []

let born_counter = Atomic.make 0

(* [start] bumps the epoch instead of touching other domains' buffers; a
   domain holding a stale DLS buffer silently registers a fresh one on
   its next record. *)
let epoch = Atomic.make 0

(* Register a buffer for the calling domain, tagged with the epoch it was
   registered under.  [start] clears the registry and bumps the epoch
   under the same lock, so a tag always names the registry generation
   that holds its buffer, and a domain never feeds two buffers of one
   generation (their events would interleave on one track). *)
let new_buffer () =
  let b =
    {
      b_tid = (Domain.self () :> int);
      b_born = Atomic.fetch_and_add born_counter 1;
      b_ring = Array.make capacity blank;
      b_count = 0;
      b_spans = [];
      b_last_ts = 0.0;
      b_seq = 0;
    }
  in
  Mutex.lock reg_mu;
  buffers := b :: !buffers;
  let e = Atomic.get epoch in
  Mutex.unlock reg_mu;
  (e, b)

let key : (int * buffer) Domain.DLS.key = Domain.DLS.new_key new_buffer

let get_buffer () =
  let e, b = Domain.DLS.get key in
  if e = Atomic.get epoch then b
  else begin
    let ((_, b) as fresh) = new_buffer () in
    Domain.DLS.set key fresh;
    b
  end

let start () =
  Mutex.lock reg_mu;
  buffers := [];
  Atomic.incr epoch;
  Mutex.unlock reg_mu;
  Atomic.set armed true

let stop () = Atomic.set armed false

(* Non-decreasing per buffer: gettimeofday can tie (or step back); the
   clamp keeps every track's timestamps monotonic. *)
let tick b =
  let t = Monotonic.now_us () in
  let t = if t > b.b_last_ts then t else b.b_last_ts in
  b.b_last_ts <- t;
  t

let next_seq b =
  let s = b.b_seq in
  b.b_seq <- s + 1;
  s

let keep b r =
  b.b_ring.(b.b_count mod capacity) <- r;
  b.b_count <- b.b_count + 1

let with_span ?(attrs = []) ~name ~kind f =
  let b = get_buffer () in
  let traced = Atomic.get armed in
  let sp = if traced then { sp_live = true; sp_attrs = attrs } else dummy in
  let ts_b = tick b in
  let seq_b = next_seq b in
  Fun.protect
    ~finally:(fun () ->
      let ts_e = tick b in
      let r =
        {
          r_kind = "span";
          r_name = name;
          r_detail = cat_of_kind kind;
          r_ts_b = ts_b;
          r_seq_b = seq_b;
          r_ts_e = ts_e;
          r_seq_e = next_seq b;
          r_attrs = sp.sp_attrs;
        }
      in
      keep b r;
      if traced then b.b_spans <- r :: b.b_spans)
    (fun () -> f sp)

let add_attr sp k v = if sp.sp_live then sp.sp_attrs <- (k, v) :: sp.sp_attrs

let point ~kind ?(detail = "") name =
  let b = get_buffer () in
  let ts = tick b in
  let seq = next_seq b in
  keep b
    {
      r_kind = kind;
      r_name = name;
      r_detail = detail;
      r_ts_b = ts;
      r_seq_b = seq;
      r_ts_e = ts;
      r_seq_e = seq;
      r_attrs = [];
    }

(* Registered buffers, grouped by domain id and in birth order within
   one: a reused domain id means strictly later wall-clock. *)
let registered () =
  Mutex.lock reg_mu;
  let bufs = !buffers in
  Mutex.unlock reg_mu;
  List.sort
    (fun a b ->
      if a.b_tid <> b.b_tid then compare a.b_tid b.b_tid
      else compare a.b_born b.b_born)
    bufs

type event = {
  ev_ph : [ `B | `E ];
  ev_name : string;
  ev_cat : string;
  ev_tid : int;
  ev_ts : float;
  ev_attrs : (string * attr) list;
}

(* Merge: per buffer, spans expand to (seq, event) pairs sorted by seq —
   balanced by with_span's stack discipline; buffers sharing a tid are
   concatenated in birth order, and a final clamp makes each track's
   timestamps non-decreasing across the buffer seam. *)
let events () =
  let track_events b =
    List.concat_map
      (fun r ->
        [
          ( r.r_seq_b,
            {
              ev_ph = `B;
              ev_name = r.r_name;
              ev_cat = r.r_detail;
              ev_tid = b.b_tid;
              ev_ts = r.r_ts_b;
              ev_attrs = List.rev r.r_attrs;
            } );
          ( r.r_seq_e,
            {
              ev_ph = `E;
              ev_name = r.r_name;
              ev_cat = r.r_detail;
              ev_tid = b.b_tid;
              ev_ts = r.r_ts_e;
              ev_attrs = [];
            } );
        ])
      b.b_spans
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let clamp_track evs =
    let last = ref neg_infinity in
    List.map
      (fun ev ->
        let ts = if ev.ev_ts > !last then ev.ev_ts else !last in
        last := ts;
        { ev with ev_ts = ts })
      evs
  in
  let rec by_tid = function
    | [] -> []
    | b :: rest ->
      let same, others = List.partition (fun b' -> b'.b_tid = b.b_tid) rest in
      clamp_track (List.concat_map track_events (b :: same)) :: by_tid others
  in
  List.concat (by_tid (registered ()))

(* ---- JSON ---- *)

(* Microsecond timestamps keep three decimals (nanoseconds): finer digits
   are clock noise, and short numbers print faster. *)
let round3 x = Float.round (x *. 1e3) /. 1e3

(* Apply [f] to every flight-recorder record as a JSONL object, in
   (domain, birth, sequence) order. *)
let iter_journal f =
  List.iter
    (fun b ->
      (* the owning domain may still be appending: read [b_count] once
         and at most [capacity] settled slots behind it.  A slot being
         overwritten concurrently yields one stale-or-fresh record, never
         a torn one (records are immutable). *)
      let hi = b.b_count in
      for seq = max 0 (hi - capacity) to hi - 1 do
        let r = b.b_ring.(seq mod capacity) in
        if r != blank then
          f
            (Json.Obj
               [
                 ("ts_us", Json.Num (round3 r.r_ts_e));
                 ("tid", Json.int b.b_tid);
                 ("seq", Json.int seq);
                 ("kind", Json.Str r.r_kind);
                 ("name", Json.Str r.r_name);
                 ("detail", Json.Str r.r_detail);
                 ("dur_us", Json.Num (round3 (r.r_ts_e -. r.r_ts_b)));
               ])
      done)
    (registered ())

let journal () =
  let acc = ref [] in
  iter_journal (fun j -> acc := j :: !acc);
  List.rev !acc

let write_journal path =
  let buf = Buffer.create 65536 in
  let n = ref 0 in
  iter_journal (fun j ->
      incr n;
      Json.to_buffer buf j;
      Buffer.add_char buf '\n');
  Atomic_io.with_atomic_out path (fun oc -> Buffer.output_buffer oc buf)
  |> Result.map (fun () -> !n)

let attr_json = function
  | Str s -> Json.Str s
  | Int i -> Json.int i
  | Float f -> Json.Num f
  | Bool b -> Json.Bool b

let export_json buf =
  let evs = events () in
  let tids = List.sort_uniq compare (List.map (fun ev -> ev.ev_tid) evs) in
  let thread tid =
    Json.Obj
      [
        ("ph", Json.Str "M");
        ("name", Json.Str "thread_name");
        ("pid", Json.int 1);
        ("tid", Json.int tid);
        ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "domain-%d" tid)) ]);
      ]
  in
  let event ev =
    Json.Obj
      ([
         ("ph", Json.Str (match ev.ev_ph with `B -> "B" | `E -> "E"));
         ("name", Json.Str ev.ev_name);
         ("cat", Json.Str ev.ev_cat);
         ("pid", Json.int 1);
         ("tid", Json.int ev.ev_tid);
         ("ts", Json.Num (round3 ev.ev_ts));
       ]
      @
      if ev.ev_attrs = [] then []
      else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, attr_json v)) ev.ev_attrs)) ])
  in
  Json.to_buffer buf
    (Json.Obj
       [
         ("displayTimeUnit", Json.Str "ms");
         ("traceEvents", Json.List (List.map thread tids @ List.map event evs));
       ]);
  Buffer.add_char buf '\n'

(* Published with temp-file + atomic rename: an interrupted run (or a
   full disk) never leaves a truncated trace under the requested name. *)
let write_file path =
  let buf = Buffer.create 65536 in
  export_json buf;
  Atomic_io.with_atomic_out path (fun oc -> Buffer.output_buffer oc buf)
