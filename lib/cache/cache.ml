(* ------------------------------------------------------------------ *)
(* Global configuration and instance registry                          *)
(* ------------------------------------------------------------------ *)

let the_dir : string option Atomic.t = Atomic.make None

let the_max_bytes = Atomic.make (512 * 1024 * 1024)

(* guards [dir_bytes], the disk tier's byte total as this process knows
   it ([note_store]): [None] until the first store scans the directory *)
let evict_lock = Mutex.create ()

let dir_bytes : int option ref = ref None

let set_dir d =
  Mutex.lock evict_lock;
  dir_bytes := None;
  Atomic.set the_dir d;
  Mutex.unlock evict_lock

let dir () = Atomic.get the_dir

let set_max_bytes n = Atomic.set the_max_bytes (max 1 n)

let max_bytes () = Atomic.get the_max_bytes

(* Every [Make] instance registers the hook that drops its in-memory
   tier, so tests and harnesses can clear all tiers at once. *)
let mem_clears : (unit -> unit) list ref = ref []

let registry_lock = Mutex.create ()

let clear_memory () =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () -> List.iter (fun f -> f ()) !mem_clears)

(* ------------------------------------------------------------------ *)
(* Disk tier                                                           *)
(* ------------------------------------------------------------------ *)

(* One entry per file in the checksummed record format of Obs.Atomic_io,
   shared with the run ledger and the request store: a text header line
   (tag, version, payload digest, payload length), then the raw payload
   bytes.  The tag carries the kind and the key digest, so an entry
   filed under another key or kind fails the same check as a corrupted
   one; any failed check is a miss and the offender is deleted.  Writes
   go to a unique temp file in the same directory and are published with
   an atomic rename, so concurrent processes never observe a
   half-written entry. *)

let suffix = ".bin"

let key_hex key = Digest.to_hex (Digest.string key)

let file_name ~kind ~version ~key =
  Printf.sprintf "%s-v%d-%s%s" kind version (key_hex key) suffix

let tag ~kind ~key = kind ^ ":" ^ key_hex key

let entry_path ~kind ~version ~key =
  Option.map (fun d -> Filename.concat d (file_name ~kind ~version ~key)) (dir ())

let ensure_dir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Eviction is per-process best-effort.  The process keeps a running byte
   total of the directory: one scan at its first store (and after
   [set_dir]), then the size of every entry it writes.  Only when a store
   takes the total past the cap does it scan again, and if the scan
   confirms the directory is over the cap, delete oldest-mtime entries
   down to 3/4 of it.  Bytes other processes write or delete are seen at
   the next scan; an overwritten entry counts twice until then, which
   only brings that scan forward.  Failures (entries deleted by a racing
   process) are ignored. *)
let m_evict_scans = Obs.Metrics.counter "cache.evict_scans"

let entry_files d =
  match Sys.readdir d with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun name ->
           if Filename.check_suffix name suffix then
             let path = Filename.concat d name in
             match Unix.stat path with
             | exception Unix.Unix_error _ -> None
             | st when st.Unix.st_kind = Unix.S_REG ->
               Some (path, st.Unix.st_size, st.Unix.st_mtime)
             | _ -> None
           else None)

(* Scan [d], evicting when it is over the cap: the bytes left and the
   number of entries evicted.  Called under [evict_lock]. *)
let scan d =
  Obs.Metrics.Counter.incr m_evict_scans;
  let files = entry_files d in
  let total = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 files in
  let cap = max_bytes () in
  if total <= cap then (total, 0)
  else begin
    let target = cap * 3 / 4 in
    let by_age = List.sort (fun (_, _, a) (_, _, b) -> compare a b) files in
    let evicted = ref 0 in
    let remaining = ref total in
    List.iter
      (fun (path, sz, _) ->
        if !remaining > target then begin
          try
            Sys.remove path;
            remaining := !remaining - sz;
            incr evicted
          with Sys_error _ -> ()
        end)
      by_age;
    (!remaining, !evicted)
  end

(* Account a [written]-byte store into [d]: the number of entries
   evicted. *)
let note_store d written =
  Mutex.lock evict_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock evict_lock)
    (fun () ->
      match !dir_bytes with
      | Some total when total + written <= max_bytes () ->
        dir_bytes := Some (total + written);
        0
      | Some _ | None ->
        let remaining, evicted = scan d in
        dir_bytes := Some remaining;
        evicted)

(* a hit is the entry's bytes and the offset of its payload, which
   unmarshals in place *)
type disk_outcome = Hit of string * int | Miss | Corrupt

(* Injected cache faults flip the file's last byte (a payload byte, or
   the header's newline when the payload is empty), so the genuine
   digest check rejects the entry and the genuine eviction path removes
   it. *)
let flip_last bytes =
  let b = Bytes.of_string bytes in
  let i = Bytes.length b - 1 in
  if i >= 0 then Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Bytes.to_string b

let disk_find ~kind ~version ~key =
  match entry_path ~kind ~version ~key with
  | None -> Miss
  | Some path -> (
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> Miss
    | bytes -> (
      let bytes =
        if Util.Faultsim.fire Util.Faultsim.Cache_site ~site:kind then flip_last bytes
        else bytes
      in
      match Obs.Atomic_io.decode_checksummed ~tag:(tag ~kind ~key) ~version bytes with
      | Ok ofs ->
        (* LRU-ish: refresh the entry so eviction removes cold ones first *)
        (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
        Hit (bytes, ofs)
      | Error _ ->
        (try Sys.remove path with Sys_error _ -> ());
        Corrupt))

(* Returns the number of entries evicted, or -1 on a failed write. *)
let disk_store ~kind ~version ~key payload =
  match dir () with
  | None -> 0
  | Some d ->
    (match
       ensure_dir d;
       Obs.Atomic_io.write_checksummed ~tag:(tag ~kind ~key) ~version
         (Filename.concat d (file_name ~kind ~version ~key))
         payload
     with
     | Ok written -> note_store d written
     | Error _ -> -1
     | exception (Sys_error _ | Unix.Unix_error _) -> -1)

(* ------------------------------------------------------------------ *)
(* Typed instances: in-memory tier + single-flight + disk round trips  *)
(* ------------------------------------------------------------------ *)

module type SPEC = sig
  type value

  val kind : string

  val version : int
end

module Make (V : SPEC) = struct
  type slot = Ready of V.value | Pending

  let table : (string, slot) Hashtbl.t = Hashtbl.create 64

  let ready_count = ref 0

  let max_ready = 512

  let lock = Mutex.create ()

  let cond = Condition.create ()

  (* Per-kind tallies live in the process-wide metrics registry, one
     counter per field, named "cache.<kind>.<field>". *)
  let metric field = Obs.Metrics.counter (Printf.sprintf "cache.%s.%s" V.kind field)

  let c_mem_hits = metric "mem_hits"

  let c_disk_hits = metric "disk_hits"

  let c_misses = metric "misses"

  let c_waits = metric "waits"

  let c_errors = metric "errors"

  let c_corrupt = metric "corrupt"

  let c_evictions = metric "evictions"

  let c_bytes_read = metric "bytes_read"

  let c_bytes_written = metric "bytes_written"

  let clear_memory_locked () =
    (* keep Pending slots: waiters are parked on them *)
    let pending =
      Hashtbl.fold
        (fun k slot acc -> match slot with Pending -> k :: acc | Ready _ -> acc)
        table []
    in
    Hashtbl.reset table;
    List.iter (fun k -> Hashtbl.replace table k Pending) pending;
    ready_count := 0

  let clear_memory () =
    Mutex.lock lock;
    clear_memory_locked ();
    Mutex.unlock lock

  let () =
    Mutex.lock registry_lock;
    mem_clears := clear_memory :: !mem_clears;
    Mutex.unlock registry_lock

  let publish key v =
    Mutex.lock lock;
    if !ready_count >= max_ready then clear_memory_locked ();
    Hashtbl.replace table key (Ready v);
    incr ready_count;
    Condition.broadcast cond;
    Mutex.unlock lock

  let unclaim key =
    Mutex.lock lock;
    Hashtbl.remove table key;
    Condition.broadcast cond;
    Mutex.unlock lock

  let compute_and_store ?(to_disk = Fun.id) key compute =
    match compute () with
    | v ->
      Obs.Metrics.Counter.incr c_misses;
      if dir () <> None then begin
        (* [to_disk] slims the persisted copy only; the in-memory tier
           and the caller always see the full value *)
        let payload = Marshal.to_string (to_disk v) [] in
        match disk_store ~kind:V.kind ~version:V.version ~key payload with
        | -1 -> Obs.Metrics.Counter.incr c_errors
        | evicted ->
          Obs.Metrics.Counter.add c_evictions evicted;
          Obs.Metrics.Counter.add c_bytes_written (String.length payload)
      end;
      publish key v;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      unclaim key;
      Printexc.raise_with_backtrace e bt

  let find_or_compute ?to_disk ~key compute =
    Obs.Trace.with_span ~name:("cache:" ^ V.kind) ~kind:Obs.Trace.Cache_lookup
      (fun sp ->
        let outcome o = Obs.Trace.add_attr sp "outcome" (Obs.Trace.Str o) in
        Mutex.lock lock;
        let waited = ref false in
        let rec claim () =
          match Hashtbl.find_opt table key with
          | Some (Ready v) ->
            Obs.Metrics.Counter.incr c_mem_hits;
            Mutex.unlock lock;
            `Done v
          | Some Pending ->
            if not !waited then begin
              waited := true;
              Obs.Metrics.Counter.incr c_waits
            end;
            Condition.wait cond lock;
            claim ()
          | None ->
            Hashtbl.replace table key Pending;
            Mutex.unlock lock;
            `Compute
        in
        match claim () with
        | `Done v ->
          outcome "mem-hit";
          v
        | `Compute ->
          (match disk_find ~kind:V.kind ~version:V.version ~key with
           | Hit (bytes, ofs) ->
             (match (Marshal.from_string bytes ofs : V.value) with
              | v ->
                Obs.Metrics.Counter.incr c_disk_hits;
                Obs.Metrics.Counter.add c_bytes_read (String.length bytes - ofs);
                publish key v;
                outcome "disk-hit";
                v
              | exception _ ->
                (* unmarshalling failure: the payload digest matched but
                   the bytes do not decode — still a corrupt entry, never
                   a hit *)
                Obs.Metrics.Counter.incr c_corrupt;
                outcome "corrupt";
                compute_and_store ?to_disk key compute)
           | Miss ->
             outcome "miss";
             compute_and_store ?to_disk key compute
           | Corrupt ->
             (* corruption-evicted mid-run: count under corrupt, not
                errors, so hit/miss accounting stays truthful *)
             Obs.Metrics.Counter.incr c_corrupt;
             outcome "corrupt";
             compute_and_store ?to_disk key compute))
end
