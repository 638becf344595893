(** Process-wide metrics registry: named counters, gauges and histograms
    with atomic updates.

    Instruments are created on first use and live for the process; looking
    up an existing name returns the same instrument (a name registered as
    one instrument class cannot be re-registered as another).  All update
    paths are safe to call concurrently from pool workers.

    Metrics are write-only from the flow's point of view: library code
    updates instruments but never branches on their values, so the
    registry cannot perturb flow results.  Counter totals (e.g.
    [flow.retries], [cache.<kind>.disk_hits]) may legitimately differ
    between [--jobs] levels or cold/warm cache runs even though the flow
    outputs are byte-identical. *)

module Counter : sig
  type t

  val incr : t -> unit

  val add : t -> int -> unit

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit

  val add : t -> float -> unit

  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit

  val count : t -> int

  val sum : t -> float

  val percentile : t -> float -> float
  (** [percentile h p] for [p] in [0..100]; linear interpolation between
      order statistics; [nan] when empty. *)
end

val counter : string -> Counter.t
(** @raise Invalid_argument if the name names a non-counter instrument. *)

val gauge : string -> Gauge.t

val histogram : string -> Histogram.t

(** A point-in-time reading of one instrument. *)
type value =
  | Count of int
  | Value of float
  | Summary of {
      count : int;
      sum : float;
      min : float;
      max : float;
      p50 : float;
      p90 : float;
      p99 : float;
    }

val snapshot : unit -> (string * value) list
(** All registered instruments, sorted by name. *)

val flatten : (string * value) list -> (string * float) list
(** Serialize a snapshot to a flat name -> number map: counters and
    gauges keep their name, a histogram [h] expands to [h.count],
    [h.sum], [h.p50], [h.p90] and [h.p99].  The flat form is what
    crosses process boundaries (bench [--json], ledger records) —
    consumers with a parser too minimal for arrays still read every
    instrument. *)

val jobs_invariant : string -> bool
(** Whether this instrument's value is deterministic at any [--jobs]
    level and across machine speeds — i.e. safe to print where output
    must be byte-identical ([psaflow --explain]).  False for
    scheduling-dependent names ([pool.*], single-flight [*.waits],
    [vm.nests.parallel]),
    daemon traffic telemetry ([serve.*] — arrival-order dependent) and
    all wall-clock ones ([*.seconds] and their histogram expansions,
    [bench.section.*], [pool.idle_ns]). *)

val find : string -> value option

val reset : unit -> unit
(** Zero every instrument (registrations are kept). *)
