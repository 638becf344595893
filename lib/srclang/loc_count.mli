(** Lines-of-code accounting for Table I ("added lines of code for each
    generated design compared to the reference source"). *)

val count_text : string -> int
(** Non-blank, non-comment-only lines in a source string. *)

val program_loc : Ast.program -> int
(** LOC of the pretty-printed program. *)

val added_pct : reference_loc:int -> design:Ast.program -> float
(** [design] LOC minus the reference's [reference_loc] (may be negative),
    as a percentage of [reference_loc], the unit Table I uses.  A flow
    counts its reference once ({!program_loc}) for all its designs. *)
