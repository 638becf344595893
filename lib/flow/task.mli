(** Codified design-flow tasks.

    A task is a named, classified, self-contained unit of work over an
    artifact — the paper's meta-program unit (Fig. 2/Fig. 4).  Tasks are
    composed into flows by {!Graph}; the classifications (Analysis,
    Transform, Code-Generation, Optimisation) and the dynamic flag mirror
    the repository table of Fig. 4. *)

type kind = Analysis | Transform | Codegen | Optimisation

type scope =
  | Target_independent
  | Fpga_scope
  | Fpga_device of string   (** e.g. "A10" *)
  | Gpu_scope
  | Gpu_device of string
  | Cpu_omp

type t = {
  name : string;
  kind : kind;
  scope : scope;
  dynamic : bool;  (** requires program execution (the paper's clock marker) *)
  run : Artifact.t -> (Artifact.t, string) result;
}

val make :
  name:string -> kind:kind -> scope:scope -> ?dynamic:bool ->
  (Artifact.t -> (Artifact.t, string) result) -> t

val apply : t -> Artifact.t -> (Artifact.t, string) result
(** Run the task, appending its name to the artifact log on success and
    prefixing it to the error on failure.  This is also the fault
    boundary: an armed {!Util.Faultsim} rule matching the task's
    {!site} makes the application fail without running it. *)

val kind_letter : kind -> string
(** "A" / "T" / "CG" / "O", the Fig. 4 classification letters. *)

val scope_label : scope -> string
(** "T-INDEP", "FPGA", "FPGA-A10", "GPU", "GPU-2080", "CPU-OMP", ... *)

val site : t -> string
(** ["<scope_label>/<name>"] — the name supervised task boundaries and
    fault-injection rules match against, unique per task instance in the
    flow (e.g. ["FPGA/Generate oneAPI Design"], ["GPU-2080/Block-size
    DSE"]). *)
