type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int i = Num (float_of_int i)

(* ---- parsing ---- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> bad "expected %c at offset %d, found %c" c st.pos c'
  | None -> bad "expected %c at offset %d, found end of input" c st.pos

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else bad "invalid literal at offset %d" st.pos

(* The four hex digits of a \u escape, [st.pos] on the first. *)
let hex4 st =
  if st.pos + 4 > String.length st.src then
    bad "truncated \\u escape at offset %d" st.pos;
  let digit i =
    match st.src.[st.pos + i] with
    | '0' .. '9' as c -> Char.code c - 48
    | 'a' .. 'f' as c -> Char.code c - 87
    | 'A' .. 'F' as c -> Char.code c - 55
    | _ -> bad "invalid \\u escape at offset %d" st.pos
  in
  let code = (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3 in
  st.pos <- st.pos + 4;
  code

(* A \u escape, [st.pos] just past the [u]: one code point, two escapes
   when they form a UTF-16 surrogate pair. *)
let code_point st =
  let at = st.pos - 2 in
  let hi = hex4 st in
  if hi >= 0xDC00 && hi <= 0xDFFF then bad "lone low surrogate at offset %d" at
  else if hi < 0xD800 || hi > 0xDBFF then hi
  else if
    st.pos + 2 <= String.length st.src
    && st.src.[st.pos] = '\\'
    && st.src.[st.pos + 1] = 'u'
  then begin
    st.pos <- st.pos + 2;
    let lo = hex4 st in
    if lo < 0xDC00 || lo > 0xDFFF then bad "lone high surrogate at offset %d" at;
    0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
  end
  else bad "lone high surrogate at offset %d" at

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> bad "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      let c = peek st in
      advance st;
      (match c with
       | Some (('"' | '\\' | '/') as c) -> Buffer.add_char buf c
       | Some 'n' -> Buffer.add_char buf '\n'
       | Some 'r' -> Buffer.add_char buf '\r'
       | Some 't' -> Buffer.add_char buf '\t'
       | Some 'b' -> Buffer.add_char buf '\b'
       | Some 'f' -> Buffer.add_char buf '\012'
       | Some 'u' -> Buffer.add_utf_8_uchar buf (Uchar.of_int (code_point st))
       | _ -> bad "invalid escape at offset %d" (st.pos - 1));
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c when is_num_char c -> true | _ -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> bad "invalid number %S at offset %d" s start

(* [close] ends the sequence; [item] parses one element after the
   separator or the opening bracket. *)
let sequence st ~close item =
  advance st;
  skip_ws st;
  if peek st = Some close then begin
    advance st;
    []
  end
  else
    let rec go acc =
      let acc = item () :: acc in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        go acc
      | Some c when c = close ->
        advance st;
        List.rev acc
      | _ -> bad "expected , or %c at offset %d" close st.pos
    in
    go []

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> bad "unexpected end of input"
  | Some '{' ->
    Obj
      (sequence st ~close:'}' (fun () ->
           skip_ws st;
           expect st '"';
           let k = parse_string_body st in
           skip_ws st;
           expect st ':';
           (k, parse_value st)))
  | Some '[' -> List (sequence st ~close:']' (fun () -> parse_value st))
  | Some '"' ->
    advance st;
    Str (parse_string_body st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
    else Ok v
  | exception Bad msg -> Error msg

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

(* ---- printing ---- *)

let add_string buf s =
  Buffer.add_char buf '"';
  let copied = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring buf s !copied (i - !copied);
      copied := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Printf.bprintf buf "\\u%04x" (Char.code c)
    end
  done;
  Buffer.add_substring buf s !copied (String.length s - !copied);
  Buffer.add_char buf '"'

external format_float : string -> float -> string = "caml_format_float"

(* Past the integers, 15 significant digits recover any decimal of up to
   15 digits, so the first precision that round-trips gives the shortest
   form; %g drops trailing zeros. *)
let add_number buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (string_of_int (int_of_float f))
  else begin
    let round_trips s = float_of_string s = f in
    let s = format_float "%.15g" f in
    let s = if round_trips s then s else format_float "%.16g" f in
    let s = if round_trips s then s else format_float "%.17g" f in
    Buffer.add_string buf s
  end

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_number buf f
  | Str s -> add_string buf s
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf
