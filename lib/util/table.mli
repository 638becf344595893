(** Plain-text table rendering for experiment reports.

    Produces aligned, boxed tables similar to the ones the paper prints,
    e.g. Table I and the Fig. 5 speedup matrix. *)

type align = Left | Right | Center

type t

val create : headers:string list -> t
(** New table with the given column headers (left-aligned by default). *)

val set_aligns : t -> align list -> unit
(** Override per-column alignment; shorter lists leave the tail unchanged. *)

val add_row : t -> string list -> unit
(** Append a row. Rows shorter than the header are padded with [""]. *)

val render : t -> string
(** Render with unicode-free ASCII box drawing. *)

val print : t -> unit
(** [render] followed by [print_string]. *)
