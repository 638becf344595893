(** Finalised designs: the PSA-flow's outputs, evaluated.

    A design couples the generated (human-readable, runnable) program with
    its target, the modelled execution time of the hotspot region, its
    speedup over the single-thread CPU baseline (the Fig. 5 metric), the
    added lines of code against the reference source (the Table I metric),
    and functional validation of its output. *)

type t = {
  d_app : App.t;
  d_target : Target.t;
  d_path : (string * string) list;  (** branch decisions that produced it *)
  d_program : Ast.program;
  d_sp : bool;                      (** runs in single precision *)
  d_feasible : bool;                (** false: FPGA design overmaps (no result, as in Fig. 5's missing Rush Larsen bars) *)
  d_time_s : float option;          (** modelled hotspot time incl. transfers *)
  d_speedup : float option;         (** baseline / time *)
  d_loc_added_pct : float;
  d_valid : bool;                   (** output matches the reference within tolerance *)
  d_log : string list;
  d_prov : Prov.step list;          (** provenance trail ([psaflow --why]) *)
}

val of_outcome :
  app:App.t ->
  reference_loc:int ->
  baseline_s:float ->
  reference_output:string list ->
  Graph.outcome ->
  (t, string) result
(** Package a flow outcome.  [reference_loc] is the reference source's
    line count ({!Loc_count.program_loc}).  Fails when the outcome
    carries no design. *)

val label : t -> string

val compare_speedup : t -> t -> int
(** Fastest (feasible) first. *)
