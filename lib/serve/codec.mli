(** Wire codec for flow requests: the [POST /v1/flows] body.

    One JSON object maps to one {!Request.spec} (plus an optional client
    identity for rate limiting).  Parsing is {e strict}: unknown keys,
    wrong types, out-of-range values and ambiguous sources are rejected
    with a message naming the offending field — a malformed request can
    never be half-accepted.  Emission ({!to_json}) is canonical and
    deterministic (fixed key order, printed by {!Obs.Json}),
    and {!parse} inverts it exactly: [parse (to_json ?client spec)]
    returns [(spec, client)] for every representable spec.  The request
    store persists specs in this very encoding, so a resumed request
    re-parses through the same validation as a fresh one.

    {2 Schema}

    {v
    {
      "app": "nbody",              -- suite slug; XOR with "source"
      "source": "void main() ...", -- inline mini-C++ text
      "source_name": "myprog",     -- optional, with "source" only
      "scale": 4,                  -- optional outer-trip factor, with "source" only
      "mode": "uninformed",        -- optional: "informed" | "uninformed" (default)
      "workload": "eval",          -- optional: "quick" | "eval" (default)
      "step_budget": 100000,       -- optional positive interpreter step cap
      "jobs": 4,                   -- optional advisory parallelism hint
      "client": "alice"            -- optional rate-limit identity
    }
    v} *)

val parse : string -> (Request.spec * string option, string) result
(** Decode and validate a request body.  The returned option is the
    in-body client identity (the server falls back to the [X-Client]
    header, then ["anon"]). *)

val to_json : ?client:string -> Request.spec -> string
(** Canonical one-line encoding (no trailing newline). *)
