(* tracecheck - validate a Chrome trace-event file produced by --trace.

   Checks that every domain track is balanced (each E closes the most
   recent B of the same name) and that timestamps are non-decreasing per
   track, then prints a summary.  Optional requirements:

     tracecheck FILE [--require-kinds k1,k2,...] [--require-tids N]

   With --journal the FILE is instead validated as a flight-recorder
   journal (JSONL written by psaflow --journal or on run failure): every
   line must parse as an object carrying ts_us, kind and name fields.

     tracecheck --journal FILE [--require-kinds k1,k2,...]

   exit 0: valid (and requirements met); exit 1: invalid or missing
   coverage.  Used by CI on a psaflow --trace run. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let split_commas s = String.split_on_char ',' s |> List.filter (fun x -> x <> "")

(* One journal event per line; tolerate a trailing newline.  Returns the
   event count and the per-kind tallies, or the first bad line. *)
let validate_journal contents =
  let lines =
    String.split_on_char '\n' contents |> List.filter (fun l -> String.trim l <> "")
  in
  let kinds = Hashtbl.create 8 in
  let rec go i = function
    | [] ->
      Ok
        ( i,
          Hashtbl.fold (fun k n acc -> (k, n) :: acc) kinds []
          |> List.sort compare )
    | line :: rest -> (
      match Obs.Json.parse line with
      | Error msg -> Error (Printf.sprintf "line %d: %s" (i + 1) msg)
      | Ok j -> (
        let str name =
          match Obs.Json.member name j with Some (Str s) -> Some s | _ -> None
        in
        let num name =
          match Obs.Json.member name j with Some (Num _) -> true | _ -> false
        in
        match (num "ts_us", str "kind", str "name") with
        | true, Some kind, Some _ ->
          Hashtbl.replace kinds kind
            (1 + Option.value ~default:0 (Hashtbl.find_opt kinds kind));
          go (i + 1) rest
        | _ ->
          Error
            (Printf.sprintf "line %d: missing ts_us/kind/name fields" (i + 1))))
  in
  go 0 lines

let () =
  let file = ref None in
  let journal = ref false in
  let require_kinds = ref [] in
  let require_tids = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--journal" :: rest ->
      journal := true;
      parse rest
    | "--require-kinds" :: v :: rest ->
      require_kinds := split_commas v;
      parse rest
    | "--require-tids" :: v :: rest ->
      require_tids := int_of_string v;
      parse rest
    | arg :: rest when !file = None && String.length arg > 0 && arg.[0] <> '-' ->
      file := Some arg;
      parse rest
    | arg :: _ ->
      Printf.eprintf "tracecheck: unexpected argument %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !file with
  | None ->
    prerr_endline
      "usage: tracecheck FILE [--require-kinds k1,k2,...] [--require-tids N]";
    exit 2
  | Some path ->
    (match read_file path with
     | exception Sys_error msg ->
       Printf.eprintf "tracecheck: %s\n" msg;
       exit 1
     | contents when !journal ->
       (match validate_journal contents with
        | Error msg ->
          Printf.eprintf "tracecheck: %s: INVALID journal: %s\n" path msg;
          exit 1
        | Ok (n, kinds) ->
          Printf.printf "%s: %d journal event(s)\n" path n;
          List.iter
            (fun (kind, c) -> Printf.printf "  %-14s %d event(s)\n" kind c)
            kinds;
          let missing =
            List.filter (fun k -> not (List.mem_assoc k kinds)) !require_kinds
          in
          if missing <> [] then begin
            Printf.eprintf "tracecheck: missing journal kind(s): %s\n"
              (String.concat ", " missing);
            exit 1
          end;
          print_endline "journal OK")
     | contents ->
       (match Obs.Trace_json.validate_string contents with
        | Error msg ->
          Printf.eprintf "tracecheck: %s: INVALID: %s\n" path msg;
          exit 1
        | Ok su ->
          Printf.printf "%s: %d events, %d domain track(s)\n" path
            su.Obs.Trace_json.su_events
            (List.length su.Obs.Trace_json.su_tids);
          List.iter
            (fun (cat, n) -> Printf.printf "  %-14s %d span(s)\n" cat n)
            su.Obs.Trace_json.su_cats;
          let missing =
            List.filter
              (fun k -> not (List.mem_assoc k su.Obs.Trace_json.su_cats))
              !require_kinds
          in
          if missing <> [] then begin
            Printf.eprintf "tracecheck: missing span kind(s): %s\n"
              (String.concat ", " missing);
            exit 1
          end;
          if List.length su.Obs.Trace_json.su_tids < !require_tids then begin
            Printf.eprintf "tracecheck: only %d domain track(s), need %d\n"
              (List.length su.Obs.Trace_json.su_tids)
              !require_tids;
            exit 1
          end;
          print_endline "trace OK"))
