(** Source locations for the mini-C++ frontend. *)

type t = { file : string; line : int; col : int }

val dummy : t
(** Location used for synthesised nodes. *)

val make : file:string -> line:int -> col:int -> t

val to_string : t -> string
(** ["file:line:col"]. *)
