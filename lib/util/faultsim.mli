(** Deterministic fault injection for resilience testing.

    A fault {e spec} arms a set of rules that make chosen sites misbehave:
    flow tasks return errors, cache disk reads come back corrupted, pool
    workers crash mid-loop.  Sites ask {!fire} whether to misbehave; rules
    select sites by class and by a substring of the site name, and decide
    {e when} to fire either by occurrence count (the [n]-th matching call,
    exactly reproducible at [--jobs 1]) or by a seeded probability drawn
    with {!Prng} from the (site, occurrence, seed) triple — deterministic
    for a given spec regardless of thread interleaving.

    The harness is process-global and off by default; when disarmed,
    {!fire} is a single atomic load.  It is armed from the CLI
    ([psaflow run --faults SPEC]) and from tests, never in library code.

    {2 Spec grammar}

    A spec is a comma-separated list of entries:

    {v
    spec  ::= entry ("," entry)*
    entry ::= "seed=" INT
            | class ":" site-substring ("@" INT)? ("%" FLOAT)?
    class ::= "task" | "cache" | "pool"
    v}

    - [task:FPGA/Generate oneAPI Design] — every application of a task
      whose [scope/name] site contains the substring fails;
    - [task:GPU-2080@1] — only the first matching task application fails;
    - [cache:task@2] — the second disk read of the ["task"] cache kind is
      corrupted (the payload digest check then evicts the entry);
    - [pool:worker@3] — the third pool work-item pull crashes its worker
      (the pool recovers the lost items, see {!Pool});
    - [task:Profile%0.5,seed=7] — each matching application fails with
      probability 0.5, decided by a splitmix64 draw seeded from the site
      name, the occurrence index and seed 7.

    Every fired fault increments the [fault.injected.<class>] counter in
    the metrics registry. *)

(** Site class a rule applies to. *)
type target =
  | Task_site  (** flow-task application, site = ["<scope>/<name>"] *)
  | Cache_site  (** cache disk read, site = the cache kind *)
  | Pool_site  (** pool work-item pull, site = ["worker"] *)

type rule = {
  ru_target : target;
  ru_site : string;  (** substring matched against the site name *)
  ru_nth : int option;  (** fire only on the [n]-th match (1-based) *)
  ru_prob : float option;  (** fire with this probability per match *)
}

type spec = {
  sp_rules : rule list;
  sp_seed : int;  (** seeds probabilistic draws; default 0 *)
}

exception Crash of string
(** Raised inside a pool worker when a [pool] rule fires; {!Pool}
    treats it as a worker death and recomputes the lost future. *)

val parse : string -> (spec, string) result
(** Parse the {{!section-grammar} spec grammar} above.  The error names
    the offending entry. *)

val arm : spec -> unit
(** Install the spec (replacing any previous one) and reset all
    occurrence counters. *)

val disarm : unit -> unit
(** Remove the armed spec; {!fire} returns [false] everywhere again. *)

val armed : unit -> bool

val fire : target -> site:string -> bool
(** [fire target ~site] asks whether an armed rule wants this call to
    fail.  Each matching rule's occurrence counter is advanced even when
    the rule decides not to fire, so [@n] selects the [n]-th match
    globally.  Always [false] when disarmed. *)

val injected : unit -> int
(** Total faults fired since the process started (sum of the
    [fault.injected.*] counters). *)
