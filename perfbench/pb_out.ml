(* Result reporting: a human-readable table on stdout, then the one-line
   JSON result object as the last line. *)

type metric = { name : string; value : float; unit_ : string; note : string }

let m ?(note = "") name unit_ value = { name; value; unit_; note }

(* Metric names are made of [A-Za-z0-9_.-], start with a letter or a
   digit, and are at most 64 characters long. *)
let valid_name s =
  let ok = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok s

(* Every digit as measured; a value that is not finite is reported as 0
   (a ratio with an empty base). *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_table ~title ms =
  Printf.printf "\n%s\n" title;
  List.iter
    (fun x ->
      Printf.printf "  %-34s %14.6g %-6s %s\n" x.name
        (if Float.is_finite x.value then x.value else 0.0)
        x.unit_ x.note)
    ms

let result_json ~correct ~attempted ~failed ms =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
    attempted failed;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (number x.value) x.unit_)
    ms;
  Buffer.add_string buf "}}";
  Buffer.contents buf
