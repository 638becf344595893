(* Golden flow reports: the expected [Report.run_text] bytes of each
   builtin spec, produced once by the reference tree-walking interpreter
   (see golden/regen.sh).  Every report the benchmark sees is compared
   byte for byte; [--why]/[--explain] text is never compared, because it
   carries cache hit/miss lines that legitimately differ between cold and
   warm runs of one spec. *)

let dir = "perfbench/golden"

let key ~app ~informed ~quick =
  Printf.sprintf "%s.%s.%s" app
    (if informed then "informed" else "uninformed")
    (if quick then "quick" else "eval")

let path k = Filename.concat dir (k ^ ".txt")

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* First byte offset where the two texts differ, [None] when equal. *)
let first_difference ~expected ~got =
  if String.equal expected got then None
  else
    let n = min (String.length expected) (String.length got) in
    let rec go i = if i < n && expected.[i] = got.[i] then go (i + 1) else i in
    Some (go 0)

type t = (string, string) Hashtbl.t

let load keys : (t, string) result =
  let tbl = Hashtbl.create 32 in
  match
    List.iter (fun k -> Hashtbl.replace tbl k (read_file (path k))) keys
  with
  | () -> Ok tbl
  | exception Sys_error msg -> Error ("missing golden report: " ^ msg)

(* [true] when [got] is exactly the golden text of [k]; a mismatch is
   described on stderr. *)
let check (t : t) k got =
  match Hashtbl.find_opt t k with
  | None ->
    Printf.eprintf "golden: no reference for %s\n%!" k;
    false
  | Some expected -> (
    match first_difference ~expected ~got with
    | None -> true
    | Some off ->
      Printf.eprintf "golden: %s differs at byte %d (expected %d bytes, got %d)\n%!" k off
        (String.length expected) (String.length got);
      false)
