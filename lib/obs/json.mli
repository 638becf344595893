(** The one JSON codec: a value type, a parser and a printer.

    Every JSON document the tree reads or writes goes through this
    module: ledger records, the request store, served bodies and the
    request codec, trace export, flight-recorder JSONL, [bench --json]
    and [compare.exe].

    {2 Printing}

    {!to_string} is compact (no whitespace between tokens) and
    deterministic: equal values print to equal bytes, members in the
    order the value lists them.  Strings escape the double quote, the
    backslash and every byte below [0x20]; all other bytes, non-ASCII
    ones included, are copied as they are.  Numbers print in one format:
    - an integral value below [1e15] in magnitude prints without a
      fraction ([42], [-7]);
    - any other finite value prints in the shortest form that parses
      back to the same float ([0.1], [1e+15], [0.30000000000000004]);
    - [nan] and the infinities print as [null], since JSON has no
      number for them.

    {2 Parsing}

    {!parse} reads one value surrounded by optional whitespace.  Unicode
    escapes decode to UTF-8, a UTF-16 surrogate pair joins into one code
    point, and a lone surrogate is an error.  Raw bytes inside strings
    are kept as they are, so [parse (to_string v) = Ok v] for every value
    whose numbers are finite. *)

(** A JSON value.  Objects keep their members in document order. *)
type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
(** [int i] is [Num (float_of_int i)]. *)

val parse : string -> (t, string) result
(** Parse a complete document.  [Error] names the problem and its byte
    offset. *)

val member : string -> t -> t option
(** [member k v] is the first value bound to [k] when [v] is an object,
    [None] otherwise. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the compact encoding of a value. *)

val to_string : t -> string
(** The compact encoding of a value, without a trailing newline. *)
