(** Flow provenance: the ordered trail of what produced a design.

    Each artifact accrues one step per task application, branch decision
    and DSE sweep on its path; {!Design.t} carries the finished trail and
    [psaflow --why] renders it.  Steps hold only strings and scalars, and
    none records whether an interpreter run inside a task was replayed
    from the cache, so a warm [--why] renders the same bytes as a cold
    one or one with the cache off. *)

type step =
  | Stask of {
      st_name : string;
      st_kind : string;  (** Fig. 4 class letter: A, T, CG, O *)
      st_scope : string;
      st_dynamic : bool;
    }
  | Sbranch of {
      sb_name : string;  (** branch point, e.g. "A" *)
      sb_taken : string;  (** the path this artifact followed *)
      sb_alternatives : string list;  (** every path the branch offered *)
      sb_chosen : string list;  (** all paths the strategy selected *)
      sb_reasons : string list;  (** analysis facts justifying the choice *)
    }
  | Sdse of {
      sd_tag : string;  (** sweep identity, e.g. "cpu-threads" *)
      sd_points : int;  (** design points examined *)
      sd_best : string;  (** winning configuration, human-readable *)
    }
  | Sfailed of {
      sf_task : string;  (** the task that gave up *)
      sf_class : string;  (** {!Resilience.class_label} of the failure *)
      sf_attempts : int;  (** attempts consumed before pruning *)
      sf_msg : string;  (** underlying error message *)
    }
      (** Terminal step of a pruned branch: the task failed after its
          retry budget, so no design was produced on this path.  Recorded
          by tolerant runs ({!Graph.run_tolerant}); never present in a
          trail that produced a design. *)

val render : step list -> string
(** One line per step, stable across runs (no timings, no ids). *)
