(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)
(* ------------------------------------------------------------------ *)

(* Rebuild a program with ids renumbered 1..n in traversal order, dummy
   locations, and every attribute the interpreter never reads stripped
   (pragmas, restrict/const qualifiers).  Returns the canonical program
   plus both directions of the statement-id mapping: [to_canon] is used
   to canonicalize the requester's config and to store results under
   canonical ids, [of_canon] to translate cached statistics back into
   the requester's ids.

   The traversal uses explicit lets so child ids are assigned strictly
   left-to-right regardless of constructor-argument evaluation order. *)
let canonicalize (p : Ast.program) =
  let next = ref 0 in
  let fresh () =
    incr next;
    !next
  in
  let to_canon : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let of_canon : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let open Ast in
  let rec expr e =
    let edesc =
      match e.edesc with
      | (Int_lit _ | Float_lit _ | Bool_lit _ | Var _) as d -> d
      | Unary (op, a) -> Unary (op, expr a)
      | Binary (op, a, b) ->
        let a = expr a in
        Binary (op, a, expr b)
      | Call (f, args) -> Call (f, List.map expr args)
      | Index (a, b) ->
        let a = expr a in
        Index (a, expr b)
      | Cast (t, a) -> Cast (t, expr a)
      | Cond (a, b, c) ->
        let a = expr a in
        let b = expr b in
        Cond (a, b, expr c)
    in
    { eid = fresh (); eloc = Loc.dummy; edesc }
  in
  let decl d =
    let dinit = Option.map expr d.dinit in
    let darray = Option.map expr d.darray in
    { d with dinit; darray; dconst = false }
  in
  let rec stmt s =
    let sid = fresh () in
    Hashtbl.replace to_canon s.sid sid;
    Hashtbl.replace of_canon sid s.sid;
    let sdesc =
      match s.sdesc with
      | Decl d -> Decl (decl d)
      | Assign (lhs, op, rhs) ->
        let lhs = expr lhs in
        Assign (lhs, op, expr rhs)
      | Expr_stmt e -> Expr_stmt (expr e)
      | If (c, b1, b2) ->
        let c = expr c in
        let b1 = block b1 in
        If (c, b1, block b2)
      | For (h, b) ->
        let lo = expr h.lo in
        let hi = expr h.hi in
        let step = expr h.step in
        For ({ h with lo; hi; step }, block b)
      | While (c, b) ->
        let c = expr c in
        While (c, block b)
      | Return e -> Return (Option.map expr e)
      | (Break | Continue) as d -> d
      | Scope b -> Scope (block b)
    in
    { sid; sloc = Loc.dummy; pragmas = []; sdesc }
  and block b = List.map stmt b in
  let param (prm : param) = { prm with prm_restrict = false; prm_const = false } in
  let global = function
    | Gfunc f ->
      let fparams = List.map param f.fparams in
      Gfunc { f with fparams; fbody = block f.fbody; floc = Loc.dummy }
    | Gdecl d -> Gdecl (decl d)
  in
  ({ pglobals = List.map global p.pglobals }, to_canon, of_canon)

let trans_sid map sid = Option.value (Hashtbl.find_opt map sid) ~default:sid

let trans_region map = function
  | Machine.Rstmt sid -> Machine.Rstmt (trans_sid map sid)
  | r -> r

(* Regions are a set as far as the interpreter is concerned (membership
   tests only), so sorting them makes the key order-insensitive. *)
let canon_config to_canon (c : Machine.config) =
  let regions = List.sort compare (List.map (trans_region to_canon) c.Machine.regions) in
  { c with Machine.regions }

let translate map (r : Machine.result) =
  {
    r with
    Machine.loop_stats =
      List.map (fun (sid, ls) -> (trans_sid map sid, ls)) r.Machine.loop_stats;
    region_stats =
      List.map (fun (rg, rs) -> (trans_region map rg, rs)) r.Machine.region_stats;
  }

(* ------------------------------------------------------------------ *)
(* The cache instance                                                  *)
(* ------------------------------------------------------------------ *)

(* Keys are digests of the marshalled canonical pair: programs and
   configs are closure-free data, and a digest avoids rehashing deep
   trees on every bucket comparison.  The interpreter version and the
   backend tag are folded in so results cached by an older interpreter
   (or by the other backend, should their observables ever diverge) are
   never replayed.

   Storage and single-flight dedup live in {!Cache}: concurrent pool
   workers requesting the same key block on one interpretation, and when
   the on-disk tier is enabled (Cache.set_dir) results persist across
   processes.  Entries are stored in canonical id space — cached
   statistics are translated into the requester's ids on every hit. *)
(* No_sharing: a marshalled value's bytes otherwise depend on physical
   sharing, which differs between freshly built structures and ones
   unmarshalled from the disk tier — same content, different key.
   Structural serialization makes keys provenance-independent. *)
let key_of backend canon_p config =
  Digest.string
    (Marshal.to_string
       (Machine.interp_version, Ir.version, Machine.backend_tag backend, canon_p, config)
       [ Marshal.No_sharing ])

module C = Cache.Make (struct
  type value = Machine.result

  let kind = "run"

  (* v2: entries use the Obs.Atomic_io record format; v3: a result's
     counters are the Counters.t int vector, not a record of named
     fields, so a v2 payload would unmarshal as the wrong type.  The
     version is part of the entry's file name, so a v2 entry reads as a
     miss. *)
  let version = 3
end)

let run ?(config = Machine.default_config) ?backend p =
  let backend =
    match backend with Some b -> b | None -> Machine.default_backend ()
  in
  let canon_p, to_canon, of_canon = canonicalize p in
  let key = key_of backend canon_p (canon_config to_canon config) in
  (* Failed runs propagate their exception and are never cached. *)
  let canon_r =
    (* the persisted copy drops the final memory image (hundreds of KB
       per entry, nothing downstream reads it from a memoized run); the
       in-memory tier keeps the full result, so only cross-process
       replays observe an empty [memory].  It also sorts the statistics
       by canonical id: the interpreter lists them in hash-table order
       over the requester's raw ids, which depends on the process's
       id-allocation history, and the bytes on disk must not. *)
    C.find_or_compute
      ~to_disk:(fun r ->
        let by_key (a, _) (b, _) = compare a b in
        {
          r with
          Machine.memory = Memory.create ();
          loop_stats = List.sort by_key r.Machine.loop_stats;
          region_stats = List.sort by_key r.Machine.region_stats;
        })
      ~key
      (fun () -> translate to_canon (Machine.run ~config ~backend p))
  in
  translate of_canon canon_r

let analysis_config ?(config = Machine.default_config) ?kernel () =
  let regions =
    match kernel with
    | Some k -> Machine.Rfunc k :: config.Machine.regions
    | None -> config.Machine.regions
  in
  { config with Machine.profile_loops = true; trace_aliases = true; regions }
