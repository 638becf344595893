(* Deterministic fault-injection harness.  See faultsim.mli for the spec
   grammar and determinism contract. *)

type target = Task_site | Cache_site | Pool_site

type rule = {
  ru_target : target;
  ru_site : string;
  ru_nth : int option;
  ru_prob : float option;
}

type spec = { sp_rules : rule list; sp_seed : int }

exception Crash of string

(* Armed state: the spec plus one occurrence counter per rule.  Counters
   are atomics so [fire] is callable from any pool worker. *)
type armed_state = { st_spec : spec; st_counts : int Atomic.t array }

let state : armed_state option Atomic.t = Atomic.make None

let target_label = function
  | Task_site -> "task"
  | Cache_site -> "cache"
  | Pool_site -> "pool"

let injected_counter tgt =
  Obs.Metrics.counter ("fault.injected." ^ target_label tgt)

let parse_target = function
  | "task" -> Some Task_site
  | "cache" -> Some Cache_site
  | "pool" -> Some Pool_site
  | _ -> None

(* entry := 'seed=' INT | class ':' site ['@' nth] ['%' prob] *)
let parse_entry entry =
  let entry = String.trim entry in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.index_opt entry ':' with
  | None -> (
      match String.index_opt entry '=' with
      | Some i when String.sub entry 0 i = "seed" -> (
          let v = String.sub entry (i + 1) (String.length entry - i - 1) in
          match int_of_string_opt (String.trim v) with
          | Some seed -> Ok (`Seed seed)
          | None -> fail "fault spec: bad seed %S" v)
      | _ -> fail "fault spec: entry %S is not CLASS:SITE or seed=N" entry)
  | Some i -> (
      let cls = String.sub entry 0 i in
      let rest = String.sub entry (i + 1) (String.length entry - i - 1) in
      match parse_target cls with
      | None -> fail "fault spec: unknown class %S (want task|cache|pool)" cls
      | Some tgt -> (
          (* split off a trailing %prob, then a trailing @nth *)
          let site, prob =
            match String.rindex_opt rest '%' with
            | Some j ->
                ( String.sub rest 0 j,
                  Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
            | None -> (rest, None)
          in
          let site, nth =
            match String.rindex_opt site '@' with
            | Some j ->
                ( String.sub site 0 j,
                  Some (String.sub site (j + 1) (String.length site - j - 1)) )
            | None -> (site, None)
          in
          let site = String.trim site in
          let site = if site = "" && tgt = Pool_site then "worker" else site in
          match (nth, prob) with
          | Some n, _ when int_of_string_opt (String.trim n) = None ->
              fail "fault spec: bad occurrence %S in %S" n entry
          | _, Some p when float_of_string_opt (String.trim p) = None ->
              fail "fault spec: bad probability %S in %S" p entry
          | _ ->
              let ru_nth =
                Option.map (fun n -> int_of_string (String.trim n)) nth
              in
              let ru_prob =
                Option.map (fun p -> float_of_string (String.trim p)) prob
              in
              (match ru_nth with
              | Some n when n < 1 ->
                  fail "fault spec: occurrence @%d must be >= 1 in %S" n entry
              | _ -> Ok (`Rule { ru_target = tgt; ru_site = site; ru_nth; ru_prob }))))

let parse s =
  let entries =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun e -> e <> "")
  in
  if entries = [] then Error "fault spec: empty"
  else
    let rec go rules seed = function
      | [] -> Ok { sp_rules = List.rev rules; sp_seed = seed }
      | e :: rest -> (
          match parse_entry e with
          | Error _ as err -> err
          | Ok (`Seed s) -> go rules s rest
          | Ok (`Rule r) -> go (r :: rules) seed rest)
    in
    go [] 0 entries

let arm spec =
  let st_counts =
    Array.init (List.length spec.sp_rules) (fun _ -> Atomic.make 0)
  in
  Atomic.set state (Some { st_spec = spec; st_counts })

let disarm () = Atomic.set state None
let armed () = Atomic.get state <> None

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 then true
  else
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0

(* Probabilistic decisions hash the (site, occurrence, seed) triple into a
   fresh splitmix64 stream, so the outcome is independent of the order in
   which concurrent sites consult the harness. *)
let prob_fires ~seed ~site ~count p =
  let key = Hashtbl.hash (site, count, seed) in
  let g = Prng.create (seed lxor (key * 0x9e3779b9)) in
  Prng.uniform g < p

let fire tgt ~site =
  match Atomic.get state with
  | None -> false
  | Some { st_spec; st_counts } ->
      let hit = ref false in
      List.iteri
        (fun i r ->
          if r.ru_target = tgt && contains ~needle:r.ru_site site then begin
            let count = 1 + Atomic.fetch_and_add st_counts.(i) 1 in
            let fires =
              (match r.ru_nth with Some n -> count = n | None -> true)
              && match r.ru_prob with
                 | Some p ->
                     prob_fires ~seed:st_spec.sp_seed ~site ~count p
                 | None -> true
            in
            if fires then hit := true
          end)
        st_spec.sp_rules;
      if !hit then begin
        Obs.Metrics.Counter.incr (injected_counter tgt);
        Obs.Trace.point ~kind:"fault" ~detail:(target_label tgt) site
      end;
      !hit

let injected () =
  List.fold_left
    (fun acc tgt -> acc + Obs.Metrics.Counter.value (injected_counter tgt))
    0
    [ Task_site; Cache_site; Pool_site ]
