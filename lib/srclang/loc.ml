type t = { file : string; line : int; col : int }

let dummy = { file = "<synth>"; line = 0; col = 0 }

let make ~file ~line ~col = { file; line; col }

let to_string t = Printf.sprintf "%s:%d:%d" t.file t.line t.col

