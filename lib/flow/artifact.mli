(** The design artifact threaded through a PSA-flow.

    An artifact carries the evolving program, the workload, every fact the
    analysis tasks have accrued, and (once a branch has specialised it) the
    state of the target-specific design.  Tasks are pure functions from
    artifact to artifact; branch-point strategies read the facts.

    {2 Determinism invariant}

    An artifact is a pure function of [(app, workload, flow path)].  Every
    field — including the "timing" facts like [art_t_cpu_single], which
    come from deterministic interpretation and analytic device models, not
    wall-clock measurement — is reproducible bit-for-bit, and nothing
    records scheduling, domain ids, real time, or whether an interpreter
    run was replayed from the evaluation cache.  This is what lets flow
    outputs stay byte-identical at any [--jobs] level and at any cache
    temperature. *)

(** Target-specific design state, filled in along a branch. *)
type design_state = {
  ds_target : Target.t;
  ds_manage_fn : string;           (** host-side function (original kernel name) *)
  ds_compute_fn : string;          (** function profiled as the device kernel region *)
  ds_body_fn : string option;      (** GPU per-thread body *)
  ds_thread_index : string option; (** loop index the GPU grid replaced *)
  ds_sp : bool;                    (** single-precision transforms applied *)
  ds_kprofile : Kprofile.t option; (** profile of the generated design *)
  ds_kstatic : Kstatic.t option;
  ds_estimate_s : float option;    (** modelled kernel+transfer time *)
  ds_feasible : bool;              (** false: overmapped FPGA design *)
  ds_output : string list option;  (** functional output of the design *)
}

type t = {
  art_app : App.t;
  art_workload : (string * int) list;
  art_program : Ast.program;
  art_kernel : string option;        (** extracted hotspot kernel name *)
  art_hotspot_sid : int option;
  art_hotspots : Hotspot.hotspot list option;
  art_kprofile : Kprofile.t option;  (** reference kernel profile *)
  art_alias_free : bool option;
  art_intensity : Intensity.measure option;
  art_t_cpu_single : float option;   (** baseline hotspot time, seconds *)
  art_t_transfer : float option;     (** estimated accelerator transfer time *)
  art_reference_output : string list option;
  art_design : design_state option;
  art_log : string list;             (** chronological task log *)
  art_prov : Prov.step list;         (** provenance trail (see {!Prov}) *)
}

val create : App.t -> workload:(string * int) list -> t

val machine_config : t -> Machine.config
(** Default interpreter configuration with the artifact's workload. *)

val log : t -> string -> t
(** Append a line to the task log. *)

val logf : t -> ('a, unit, string, t) format4 -> 'a

val add_prov : t -> Prov.step -> t
(** Append a provenance step to the trail. *)

val kernel_exn : t -> string
(** @raise Failure when no kernel has been extracted yet. *)

val kprofile_exn : t -> Kprofile.t

val design_exn : t -> design_state
