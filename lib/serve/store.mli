(** Persistent request store: one checksummed file per served request.

    The daemon's unit of crash-safety.  Every admitted request gets a
    record file ([<id>.psareq]) that is atomically rewritten at each
    state transition ({!Obs.Atomic_io} temp + rename with format tag,
    schema version and payload digest — the [.psa-cache]/ledger
    discipline), so at any kill point the store holds a complete, valid
    view of every request: what was asked (the [Codec] encoding of the
    spec, which
    re-parses through full validation on resume), where it got to, and —
    for finished requests — the rendered report/provenance texts and the
    ledger record path.

    {2 Resumability invariants}

    - A request is {e resumable} iff its persisted state is {!Queued} or
      {!Interrupted}; {!recover} (run once at daemon startup) rewrites
      any {!Running} record to {!Interrupted}, because a run that was in
      flight when the process died never reached a terminal state — this
      is how an interrupted run is {e detected}.
    - Terminal records ({!Done}, {!Failed}) are never rewritten by
      recovery; a completed report survives any number of restarts.
    - Corrupt/truncated/foreign-version files are skipped and counted,
      never fatal — a damaged store degrades to a smaller history.
    - Ids are zero-padded and monotonic (the server mints them from a
      counter that resuming advances past the store), so file-name
      order is admission order and id allocation survives restarts. *)

type state =
  | Queued  (** admitted, not yet dispatched *)
  | Running  (** in flight on the scheduler *)
  | Done  (** flow finished; [e_status] carries the exit code *)
  | Failed  (** flow failed outright or the spec no longer resolves *)
  | Interrupted  (** was [Running] when a previous daemon died *)

val state_name : state -> string
(** Stable lowercase wire name ("queued", "running", "done", "failed",
    "interrupted"). *)

type entry = {
  e_id : string;
  e_received : float;  (** unix time at admission (volatile) *)
  e_client : string;
  e_spec : string;  (** [Codec.to_json] encoding of the request *)
  e_state : state;
  e_status : int;  (** exit code; [-1] until terminal *)
  e_error : string;  (** [""] unless [Failed] *)
  e_report : string;  (** {!Report.run_text} bytes; [""] until [Done] *)
  e_why : string;  (** {!Report.why_text} bytes; [""] until [Done] *)
  e_ledger : string;  (** ledger record path, [""] when none was written *)
}

val save : dir:string -> entry -> (unit, string) result
(** Atomically (re)publish the entry's record file; [dir] is created on
    first use. *)

val load : dir:string -> entry list * int
(** All valid entries in id order, plus the skipped-file count.  A
    missing directory is an empty store. *)

val recover : dir:string -> entry list * int
(** {!load}, rewriting every [Running] entry to [Interrupted] on disk
    first.  The result is the post-rewrite view: callers re-enqueue the
    [Queued]/[Interrupted] entries and leave terminal ones alone. *)
