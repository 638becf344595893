(** Span tracer and flight recorder, with Chrome trace-event export.

    Every completed span ({!with_span}) and every point event ({!point}:
    retries, failures, injected faults) becomes one record in the
    recording domain's buffer, stamped with a process-anchored timestamp
    ({!Monotonic}) and the domain id.  Each domain appends to its own
    buffer without locking, so {!Util.Pool} workers record freely; a
    registry lets readers merge the buffers afterwards.

    A buffer keeps its records two ways:
    - {b Flight recorder}, always on: the newest 512 records per domain.
      {!journal} and {!write_journal} read this window as JSONL, so a
      failed run leaves a post-mortem trail without having armed the
      tracer.
    - {b Tracer}, armed by {!start}: every span completed until {!stop},
      for {!events} and the Chrome export.  Point events stay out of the
      export.

    With the tracer off, {!with_span} reads the clock twice and stores
    one record in the ring; its body runs against a shared dummy span.

    Event ordering is reconstructed from per-buffer sequence numbers, not
    timestamps: a span's begin and end events carry the sequence values
    they were recorded at, so the exported stream is balanced by the stack
    discipline of [with_span] even when clock resolution makes sibling
    spans collide on the same timestamp.  Timestamps are clamped to be
    non-decreasing per domain track.

    {2 Span nesting rules}

    - Spans {e strictly nest} within a domain track: {!with_span} is the
      only way to open one, so a span closes after every span opened
      inside its body ([E] events close the most recent open [B] with the
      same name — what {!Trace_json.validate} checks).
    - A span begins and ends on the domain that opened it.  Work handed
      to {!Util.Pool} workers opens {e new} spans on the worker's track;
      a span never migrates between tracks, so per-track balance holds
      even under work stealing.
    - A span closes exactly once, including when the body raises.
    - {!add_attr} only mutates a live (un-closed) span; attributes become
      visible on the span's [B] event.

    Recording never influences flow results: records carry no data back
    into the computation, so arming or disarming the tracer leaves
    outputs byte-identical.  Recorded contents are wall-clock and
    scheduling dependent, so nothing here participates in the
    byte-identical [--jobs] guarantees. *)

type kind =
  | Task  (** one flow-task application *)
  | Branch  (** branch-point selection + fan-out *)
  | Dse_point  (** one DSE point evaluation *)
  | Interp_run  (** one interpreter execution *)
  | Cache_lookup  (** one find_or_compute round trip *)
  | Pool  (** one work item on a pool worker *)
  | Flow  (** engine phases (analysis, decide, fan-out, designs) *)
  | Section  (** bench sections *)

val cat_of_kind : kind -> string
(** Chrome [cat] string: ["task"], ["branch"], ["dse-point"],
    ["interp-run"], ["cache-lookup"], ["pool"], ["flow"], ["section"]. *)

type attr = Str of string | Int of int | Float of float | Bool of bool

type span

val enabled : unit -> bool
(** Whether the tracer is armed. *)

val start : unit -> unit
(** Discard every record (the flight-recorder window included) and arm
    the tracer. *)

val stop : unit -> unit
(** Disarm the tracer; recorded spans stay available for export. *)

val with_span : ?attrs:(string * attr) list -> name:string -> kind:kind -> (span -> 'a) -> 'a
(** Run the body inside a span.  The span closes when the body returns or
    raises, and is then recorded.  When the tracer is off the body runs
    against a dummy span and the record carries no attributes. *)

val add_attr : span -> string -> attr -> unit
(** Attach an attribute to a live span (e.g. a step count known only
    after the work ran).  No-op on the dummy span. *)

val point : kind:string -> ?detail:string -> string -> unit
(** [point ~kind name] records a point event in the flight recorder.
    [kind] is a short class tag (["retry"], ["failure"], ["fault"]),
    [name] the site, [detail] free-form context. *)

(** A merged begin/end event, for tests and validation. *)
type event = {
  ev_ph : [ `B | `E ];
  ev_name : string;
  ev_cat : string;
  ev_tid : int;
  ev_ts : float;  (** microseconds, non-decreasing per [ev_tid] *)
  ev_attrs : (string * attr) list;
}

val events : unit -> event list
(** All recorded events, grouped by domain track; within a track, events
    are in recording order with non-decreasing timestamps. *)

val journal : unit -> Json.t list
(** The flight-recorder window: the newest 512 records of every domain,
    ordered by (domain, buffer birth, sequence) like {!events}.  Each is
    an object with the fields [ts_us] (end time), [tid], [seq] (the
    record's number in its buffer), [kind] (["span"] or the point
    event's class), [name], [detail] (a span's category) and [dur_us]
    (0 for point events); times are microseconds with three decimals. *)

val write_journal : string -> (int, string) result
(** Atomically write {!journal} to a file as JSONL, one object per line,
    the format [bench/tracecheck.exe --journal] validates; returns the
    record count. *)

val export_json : Buffer.t -> unit
(** Append the Chrome trace-event JSON document ([traceEvents] array plus
    thread-name metadata) to the buffer. *)

val write_file : string -> (unit, string) result
(** Export to a file; [Error] on I/O failure. *)
