(** Shared machinery of the HIP and oneAPI generators: parameter splitting,
    buffer-length resolution through the kernel's call site, and the
    buffer/copy-loop emission both management codes need. *)

val split_params : Ast.param list -> Ast.param list * Ast.param list
(** Pointer parameters, then scalar parameters. *)

val call_site_args : Ast.program -> callee:string -> string option list option
(** Argument names of the first call to [callee]; [None] entries for
    arguments that are not plain variables (e.g. literals). *)

val resolve_lengths :
  Ast.program -> kernel:string -> Ast.param list -> (string * Ast.expr) list option
(** Length expression per pointer parameter, resolved via the call site. *)

val buffer_decl :
  vendor:string -> Ast.param -> len:Ast.expr -> dev_name:(string -> string) -> Ast.stmt
(** [<elem> d_x[len];] annotated [#pragma <vendor> device_buffer]; the SP
    task demotes the element type later if validation allows. *)

val copy_loop :
  vendor:string -> tag:string -> dst:string -> src:string -> len:Ast.expr -> Ast.stmt
(** [for (__k...) dst[__k] = src[__k];] annotated
    [#pragma <vendor> <tag>]. *)
