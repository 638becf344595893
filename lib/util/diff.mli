(** Line-based unified diffs.

    Used to show exactly what a design-flow changed in a program: the paper
    emphasises that generated implementations are human-readable and
    hand-tunable, and a diff against the reference source is the most
    direct evidence. *)

type line =
  | Keep of string     (** present in both *)
  | Add of string      (** only in the new text *)
  | Drop of string     (** only in the old text *)

val diff_lines : string list -> string list -> line list
(** Longest-common-subsequence diff of two line lists. *)

val unified : ?context:int -> old_text:string -> string -> string
(** [unified ~old_text new_text]: classic unified format with [context]
    lines (default 2) around each hunk; the empty string when the texts
    are equal. *)
