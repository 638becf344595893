(** Chrome-trace validator.

    Shared by the test suite and [bench/tracecheck.exe]: parse a trace
    file, then check that every domain track is balanced (each E closes
    the most recent B with the same name) and that timestamps are
    non-decreasing per track.  The JSON codec itself is {!Json},
    re-exported here for callers that reach it through this module. *)

include module type of struct
  include Json
end

(** What a valid trace contained. *)
type summary = {
  su_events : int;  (** B/E events (metadata excluded) *)
  su_tids : int list;  (** distinct domain tracks, sorted *)
  su_cats : (string * int) list;  (** complete-span count per category, sorted *)
}

val validate : t -> (summary, string) result
(** Check the [traceEvents] of a parsed trace document. *)

val validate_string : string -> (summary, string) result
(** {!Json.parse}, then {!validate}. *)
