(* Differential property tests: randomly generated (well-typed, total)
   kernels are pushed through the frontend, rewriter and interpreter, and
   through complete flow transforms, checking semantic preservation and
   classification invariants. *)

let check = Alcotest.(check bool)

(* ---- a generator of safe straight-line loop kernels ----

   Programs have the shape

     const int N = 16;
     int main() {
       double x[N]; double y[N];
       <init loop>
       for (int i = 0; i < N; i++) { <random statements> }
       <checksum print>
     }

   Expressions are double-valued, built from x[i], i, literals and locals;
   intrinsic arguments and divisions are guarded so evaluation is total. *)

module Gen = struct
  open QCheck.Gen

  (* a float intrinsic drawn from the table at one precision, its argument
     folded into [0.5, 4.5] and a second argument clamped to [-2, 2], so
     every function stays finite:
     [f(fmin(fabs(a), 4.0) + 0.5 [, fmax(fmin(b, 2.0), -2.0)])] *)
  let intrinsic ~single sub =
    let name op = (Intrinsic.of_op op ~single).Intrinsic.name in
    let lit v = if single then v ^ "f" else v in
    let pos a =
      Printf.sprintf "(%s(%s(%s), %s) + %s)" (name (Intrinsic.F2 Intrinsic.Fmin))
        (name (Intrinsic.F1 Intrinsic.Fabs)) a (lit "4.0") (lit "0.5")
    in
    let clamp b =
      Printf.sprintf "%s(%s(%s, %s), %s)" (name (Intrinsic.F2 Intrinsic.Fmax))
        (name (Intrinsic.F2 Intrinsic.Fmin)) b (lit "2.0") (lit "-2.0")
    in
    let fns =
      List.filter
        (fun (i : Intrinsic.t) ->
          i.Intrinsic.single = single
          && match i.Intrinsic.op with Intrinsic.F1 _ | Intrinsic.F2 _ -> true | _ -> false)
        Intrinsic.all
    in
    oneofl fns >>= fun i ->
    match i.Intrinsic.op with
    | Intrinsic.F2 _ ->
      map2 (fun a b -> Printf.sprintf "%s(%s, %s)" i.Intrinsic.name (pos a) (clamp b)) sub sub
    | _ -> map (fun a -> Printf.sprintf "%s(%s)" i.Intrinsic.name (pos a)) sub

  (* [iv] is the loop index variable the leaves may read — "i" at the
     outer level, "jK" inside a generated inner loop *)
  let leaf ?(iv = "i") locals =
    oneof
      ([
         map (fun n -> Printf.sprintf "%.2f" (float_of_int n /. 4.0)) (1 -- 40);
         return (Printf.sprintf "x[%s]" iv);
         return (Printf.sprintf "(double)%s" iv);
       ]
      @ List.map return locals)

  let rec expr ?iv locals depth =
    if depth = 0 then leaf ?iv locals
    else
      frequency
        [
          (3, leaf ?iv locals);
          ( 4,
            map3
              (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "+"; "-"; "*" ])
              (expr ?iv locals (depth - 1))
              (expr ?iv locals (depth - 1)) );
          (2, intrinsic ~single:false (expr ?iv locals (depth - 1)));
          ( 1,
            map2
              (fun a b -> Printf.sprintf "(%s / (fabs(%s) + 1.0))" a b)
              (expr ?iv locals (depth - 1))
              (expr ?iv locals (depth - 1)) );
        ]

  (* boolean guards: comparisons between guarded double expressions *)
  let cond locals =
    map3
      (fun op a b -> Printf.sprintf "%s %s %s" a op b)
      (oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ])
      (expr locals 2) (expr locals 2)

  let stmt idx locals =
    let e = expr locals 3 in
    let c = cond locals in
    let j = Printf.sprintf "j%d" idx in
    frequency
      [
        (3, map (fun e -> (Printf.sprintf "double t%d = %s;" idx e, Some (Printf.sprintf "t%d" idx))) e);
        (3, map (fun e -> (Printf.sprintf "y[i] = %s;" e, None)) e);
        (3, map (fun e -> (Printf.sprintf "y[i] += %s;" e, None)) e);
        ( 2,
          map3
            (fun c a b ->
              ( Printf.sprintf "double t%d = (%s) ? %s : %s;" idx c a b,
                Some (Printf.sprintf "t%d" idx) ))
            c e e );
        ( 2,
          map3
            (fun c a b ->
              (Printf.sprintf "if (%s) { y[i] += %s; } else { y[i] -= %s; }" c a b, None))
            c e e );
        ( 1,
          map2
            (fun c a -> (Printf.sprintf "if (%s) { y[i] = %s; }" c a, None))
            c e );
        ( 2,
          map2
            (fun inner lim ->
              ( Printf.sprintf "for (int %s = 0; %s < %d; %s++) { y[i] += %s; }" j j
                  lim j inner,
                None ))
            (expr ~iv:j locals 2) (2 -- 8) );
        ( 1,
          map2
            (fun c inner ->
              ( Printf.sprintf
                  "if (%s) { for (int %s = 0; %s < 4; %s++) { y[i] += %s; } }" c j j
                  j inner,
                None ))
            c
            (expr ~iv:j locals 2) );
      ]

  (* 2 to 6 statements from [stmt], each seeing [locals] and the locals
     bound before it *)
  let body_of ?(locals = []) stmt =
    let rec build idx locals n acc =
      if n = 0 then return (List.rev acc)
      else
        stmt idx locals >>= fun (line, binds) ->
        let locals = match binds with Some t -> t :: locals | None -> locals in
        build (idx + 1) locals (n - 1) (line :: acc)
    in
    2 -- 6 >>= fun n -> build 0 locals n []

  let body = body_of stmt

  (* [stmt], or a scratch array declared in the loop body (sized by a
     literal or by the global [N]), partly filled by an inner loop, maybe
     behind a guard, then read, an untouched cell included *)
  let kernel_stmt idx locals =
    let a = Printf.sprintf "a%d" idx and j = Printf.sprintf "j%d" idx in
    frequency
      [
        (6, stmt idx locals);
        ( 1,
          map3
            (fun (size, fill) inner guard ->
              let body =
                Printf.sprintf
                  "double %s[%s]; for (int %s = 0; %s < %d; %s++) { %s[%s] = %s; } \
                   y[i] += %s[0] + %s[3];"
                  a size j j fill j a j inner a a
              in
              match guard with
              | Some c -> (Printf.sprintf "if (%s) { %s }" c body, None)
              | None -> (body, None))
            (pair (oneofl [ "4"; "N - 12"; "2 + 2" ]) (1 -- 4))
            (expr ~iv:j locals 2) (opt (cond locals)) );
      ]

  (* ---- the single-precision variant ----

     The same shapes over float arrays and locals, with [f] literals,
     [(float)] casts, single-precision intrinsics, ternaries, and float targets (locals
     and [+=] into the float array) assigned double expressions — a
     [(double)] operand or a double literal makes the whole expression
     double, demoted on the store — so random programs reach demotion and
     the single-precision superinstructions. *)

  let sp_leaf ?(iv = "i") locals =
    oneof
      ([
         map (fun n -> Printf.sprintf "%.2ff" (float_of_int n /. 4.0)) (1 -- 40);
         return (Printf.sprintf "x[%s]" iv);
         return "y[i]";
         return (Printf.sprintf "(float)%s" iv);
       ]
      @ List.map return locals)

  let rec sp_expr ?iv locals depth =
    if depth = 0 then sp_leaf ?iv locals
    else
      let sub = sp_expr ?iv locals (depth - 1) in
      frequency
        [
          (3, sp_leaf ?iv locals);
          ( 4,
            map3
              (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "+"; "-"; "*" ])
              sub sub );
          (2, intrinsic ~single:true sub);
          (1, map2 (fun a b -> Printf.sprintf "(%s / (fabsf(%s) + 1.0f))" a b) sub sub);
          (1, map (fun a -> Printf.sprintf "(float)(%s * 0.75)" a) sub);
        ]

  (* double-valued, over single-precision operands *)
  let dp_expr locals =
    let e = sp_expr locals 2 in
    oneof
      [
        map2 (fun a b -> Printf.sprintf "((double)%s * 0.5 + %s)" a b) e e;
        intrinsic ~single:false (map (Printf.sprintf "(double)%s") e);
        map2 (fun a b -> Printf.sprintf "(%s - (double)%s / 3.0)" a b) e e;
      ]

  let sp_stmt idx locals =
    let e = sp_expr locals 3 in
    let d = dp_expr locals in
    let c =
      map3
        (fun op a b -> Printf.sprintf "%s %s %s" a op b)
        (oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ])
        (sp_expr locals 2) (sp_expr locals 2)
    in
    let j = Printf.sprintf "j%d" idx in
    let t = Printf.sprintf "t%d" idx in
    frequency
      ([
         (3, map (fun e -> (Printf.sprintf "float %s = %s;" t e, Some t)) e);
         (2, map (fun e -> (Printf.sprintf "float %s = %s;" t e, Some t)) d);
         (3, map (fun e -> (Printf.sprintf "y[i] = %s;" e, None)) e);
         (3, map (fun e -> (Printf.sprintf "y[i] += %s;" e, None)) e);
         (1, map (fun e -> (Printf.sprintf "y[i] += %s;" e, None)) d);
         ( 2,
           map3
             (fun c a b -> (Printf.sprintf "float %s = (%s) ? %s : %s;" t c a b, Some t))
             c e e );
         ( 2,
           map3
             (fun c a b ->
               (Printf.sprintf "if (%s) { y[i] += %s; } else { y[i] -= %s; }" c a b, None))
             c e e );
         ( 2,
           map2
             (fun inner lim ->
               ( Printf.sprintf "for (int %s = 0; %s < %d; %s++) { y[i] += %s; }" j j
                   lim j inner,
                 None ))
             (sp_expr ~iv:j locals 2) (2 -- 8) );
       ]
      @
      if locals = [] then []
      else
        [
          ( 2,
            map2
              (fun v e -> (Printf.sprintf "%s = %s;" v e, None))
              (oneofl locals) d );
        ])

  let sp_body = body_of sp_stmt

  (* the whole program around [lines], the compute loop's body, over
     [elt] arrays initialised by [init]: the loop sits in [main], or with
     [~kernel] in a function [knl] that main calls twice, the shape
     hotspot extraction gives flows; [helpers] are functions defined
     before both *)
  let shape ?(kernel = false) ?(helpers = "") ~elt ~init lines =
    let loop =
      Printf.sprintf "for (int i = 0; i < N; i++) {\n%s\n}\n" (String.concat "\n" lines)
    in
    Printf.sprintf
      "const int N = 16;\n\
       %s%sint main() {\n\
       %s x[N];\n\
       %s y[N];\n\
       for (int i = 0; i < N; i++) { %s }\n\
       %sdouble checksum = 0.0;\n\
       for (int i = 0; i < N; i++) { checksum += y[i]; }\n\
       print_float(checksum);\n\
       return 0; }"
      helpers
      (if kernel then Printf.sprintf "void knl(%s* x, %s* y) {\n%s}\n" elt elt loop else "")
      elt elt init
      (if kernel then "knl(x, y);\nknl(x, y);\n" else loop)

  let dp_shape = shape ~elt:"double" ~init:"x[i] = rand01() + 0.5; y[i] = 0.0;"

  let sp_shape = shape ~elt:"float" ~init:"x[i] = (float)(rand01() + 0.5); y[i] = 0.0f;"

  let program = map dp_shape body

  (* ---- a leaf helper called once per iteration ----

     The random statements move into [leaf], whose int parameter keeps the
     index name [i], and which also reads its by-value parameters [s],
     [h] (a float, read as [(double)h] so expressions stay double-valued)
     and [m].  The compute loop calls it once per iteration, optionally
     behind a guard, passing a double expression, a double expression
     demoted to [h], the int index converted to [m], and the arrays in
     order, swapped or aliased — the HIP launch loop's shape, one body
     call per thread. *)

  let leaf_call =
    let arg = expr [] 2 in
    map3
      (fun (s, h) ptrs guard ->
        let call = Printf.sprintf "leaf(i, %s, %s, i, %s);" s h ptrs in
        match guard with
        | Some c -> Printf.sprintf "if (%s) { %s }" c call
        | None -> call)
      (pair arg arg)
      (oneofl [ "x, y"; "y, x"; "x, x" ])
      (opt (cond []))

  let leaf_program =
    body_of ~locals:[ "s"; "(double)h"; "m" ] stmt >>= fun lines ->
    leaf_call >|= fun call ->
    dp_shape ~kernel:true
      ~helpers:
        (Printf.sprintf
           "void leaf(int i, double s, float h, double m, double* x, double* y) {\n%s\n}\n"
           (String.concat "\n" lines))
      [ call ]

  (* [stmt], or an inner level running from the root index to a clamp of
     it, so its trip count differs per root iteration *)
  let tri_stmt idx locals =
    let j = Printf.sprintf "j%d" idx in
    frequency
      [
        (3, stmt idx locals);
        ( 2,
          map2
            (fun inner lim ->
              ( Printf.sprintf "for (int %s = i; %s < imin(i + %d, N); %s++) { y[i] += %s; }"
                  j j lim j inner,
                None ))
            (expr ~iv:j locals 2) (2 -- 8) );
      ]

  (* ---- the HIP launch shape ----

     The codegen's per-thread launch: [knl]'s loop over [__tid] calls
     [body] once per thread, and [body] indexes through
     [int i = C + __tid;] under a guard [if (i < E)] (or [<=]) that wraps
     the rest.  [C] >= 0, and [E] falls below, at or above the last
     thread's index.  The statements of [body] optionally end with a tile
     level: [tile] staged under [if (jj + t < M)], then read by a level
     from [jj] to [imin(jj + T, M)], [M] not a multiple of [T]. *)

  let tile_level =
    map3
      (fun t m inner ->
        Printf.sprintf
          "for (int jj = 0; jj < %d; jj += %d) {\n\
           double tile[%d];\n\
           for (int t = 0; t < %d; t++) { if (jj + t < %d) { tile[t] = x[jj + t]; } }\n\
           for (int j = jj; j < imin(jj + %d, %d); j++) { y[i] += tile[j - jj] * %s; }\n\
           }"
          m t t t m t m inner)
      (oneofl [ 3; 4; 8 ])
      (oneofl [ 5; 10; 13 ])
      (expr ~iv:"j" [] 1)

  let hip_program =
    body_of stmt >>= fun lines ->
    opt tile_level >>= fun tile ->
    0 -- 3 >>= fun c ->
    oneofl [ -5; -1; 0; 1; 4 ] >>= fun d ->
    oneofl [ "<"; "<=" ] >|= fun cmp ->
    Printf.sprintf
      "const int N = 16;\n\
       void body(int __tid, double* x, double* y) {\n\
       int i = %d + __tid;\n\
       if (i %s N + %d) {\n\
       %s\n\
       }\n\
       }\n\
       void knl(double* x, double* y) {\n\
       for (int __tid = 0; __tid < N; __tid++) { body(__tid, x, y); }\n\
       }\n\
       int main() {\n\
       double x[N + 24];\n\
       double y[N + 24];\n\
       for (int i = 0; i < N + 24; i++) { x[i] = rand01() + 0.5; y[i] = 0.0; }\n\
       knl(x, y);\n\
       knl(x, y);\n\
       double checksum = 0.0;\n\
       for (int i = 0; i < N + 24; i++) { checksum += y[i]; }\n\
       print_float(checksum);\n\
       return 0; }"
      c cmp (c + d)
      (String.concat "\n" (lines @ Option.to_list tile))
end

let arbitrary_program = QCheck.make Gen.program ~print:Fun.id

let arbitrary_kernel =
  QCheck.make ~print:Fun.id
    (QCheck.Gen.map (Gen.dp_shape ~kernel:true) (Gen.body_of Gen.kernel_stmt))

(* single-precision kernels, in both shapes *)
let arbitrary_sp_program =
  QCheck.make ~print:Fun.id (QCheck.Gen.map Gen.sp_shape Gen.sp_body)

let arbitrary_sp_kernel =
  QCheck.make ~print:Fun.id (QCheck.Gen.map (Gen.sp_shape ~kernel:true) Gen.sp_body)

(* kernels whose loop calls a leaf helper per iteration *)
let arbitrary_leaf_kernel = QCheck.make ~print:Fun.id Gen.leaf_program

(* HIP-shaped launch loops *)
let arbitrary_hip_kernel = QCheck.make ~print:Fun.id Gen.hip_program

(* kernels with inner levels bounded by the root index *)
let arbitrary_tri_kernel =
  QCheck.make ~print:Fun.id
    (QCheck.Gen.map (Gen.dp_shape ~kernel:true) (Gen.body_of Gen.tri_stmt))

let parse = Parser.parse_program

let prop_roundtrip_stable =
  QCheck.Test.make ~name:"generated kernels: print/parse round trip is stable"
    ~count:120 arbitrary_program (fun src ->
      let p = parse src in
      let t1 = Pretty.program_to_string p in
      let t2 = Pretty.program_to_string (parse t1) in
      String.equal t1 t2)

let prop_typechecks =
  QCheck.Test.make ~name:"generated kernels typecheck" ~count:120 arbitrary_program
    (fun src -> Typecheck.check_program (parse src) = Ok ())

let prop_deterministic =
  QCheck.Test.make ~name:"interpretation is deterministic" ~count:60
    arbitrary_program (fun src ->
      let p = parse src in
      (Machine.run p).Machine.output = (Machine.run p).Machine.output)

let prop_renumber_preserves_semantics =
  QCheck.Test.make ~name:"Ast.renumber preserves semantics" ~count:60
    arbitrary_program (fun src ->
      let p = parse src in
      (Machine.run p).Machine.output = (Machine.run (Ast.renumber p)).Machine.output)

let prop_identity_rewrite =
  QCheck.Test.make ~name:"identity expression rewrite is the identity" ~count:60
    arbitrary_program (fun src ->
      let p = parse src in
      let p' = Rewrite.map_exprs (fun _ -> None) p in
      String.equal (Pretty.program_to_string p) (Pretty.program_to_string p'))

let prop_output_finite =
  QCheck.Test.make ~name:"guarded kernels produce finite checksums" ~count:60
    arbitrary_program (fun src ->
      match (Machine.run (parse src)).Machine.output with
      | [ s ] -> (match float_of_string_opt s with Some f -> Float.is_finite f | None -> false)
      | _ -> false)

let prop_region_counters_bounded =
  QCheck.Test.make ~name:"region counters never exceed whole-program counters"
    ~count:40 arbitrary_program (fun src ->
      (* outline the compute loop and profile it as a region *)
      let p = parse src in
      match Hotspot.detect p with
      | [] -> true
      | h :: _ ->
        (match Hotspot.extract p ~sid:h.Hotspot.hs_sid ~kernel_name:"knl" with
         | Error _ -> true (* extraction legitimately refuses some shapes *)
         | Ok ex ->
           let config =
             { Machine.default_config with regions = [ Machine.Rfunc "knl" ] }
           in
           let r = Machine.run ~config ex.Hotspot.ex_program in
           (match Machine.find_region_stats r (Machine.Rfunc "knl") with
            | None -> true
            | Some rs ->
              Counters.flops rs.Machine.rs_counters <= Counters.flops r.Machine.counters
              && Counters.bytes rs.Machine.rs_counters <= Counters.bytes r.Machine.counters)))

let prop_extraction_preserves_semantics =
  QCheck.Test.make ~name:"hotspot extraction preserves program output" ~count:40
    arbitrary_program (fun src ->
      let p = parse src in
      match Hotspot.detect p with
      | [] -> true
      | h :: _ ->
        (match Hotspot.extract p ~sid:h.Hotspot.hs_sid ~kernel_name:"knl" with
         | Error _ -> true
         | Ok ex ->
           (Machine.run p).Machine.output = (Machine.run ex.Hotspot.ex_program).Machine.output))

let prop_scalarize_preserves_semantics =
  QCheck.Test.make ~name:"scalarisation preserves program output" ~count:40
    arbitrary_program (fun src ->
      let p = parse src in
      let loops = Query.loops p in
      let p' =
        List.fold_left
          (fun p (lm : Query.loop_match) ->
            Scalarize.apply p ~loop_sid:lm.lm_stmt.Ast.sid)
          p loops
      in
      (Machine.run p).Machine.output = (Machine.run p').Machine.output)

(* SIV classification: a[i + k] = a[i] is carried iff k <> 0 *)
let prop_siv_distance =
  QCheck.Test.make ~name:"SIV test: shifted self-assignment carried iff shift nonzero"
    ~count:60
    QCheck.(int_range (-3) 3)
    (fun k ->
      let src =
        Printf.sprintf
          "void f(double* a, int n) { for (int i = 3; i < n - 3; i++) { a[i + %d] = a[i] + 1.0; } }"
          k
      in
      let p = parse src in
      let v = Dependence.analyse_loop p (List.hd (Query.loops p)) in
      if k = 0 then v.Dependence.parallel_with_reductions
      else not v.Dependence.parallel_with_reductions)

(* the OpenMP design of any parallel generated kernel stays equivalent *)
let prop_openmp_design_equivalent =
  QCheck.Test.make ~name:"OpenMP designs of generated kernels are equivalent" ~count:30
    arbitrary_program (fun src ->
      let p = parse src in
      match Hotspot.detect p with
      | [] -> true
      | h :: _ ->
        (match Hotspot.extract p ~sid:h.Hotspot.hs_sid ~kernel_name:"knl" with
         | Error _ -> true
         | Ok ex ->
           (match Openmp.generate ex.Hotspot.ex_program ~kernel:"knl" with
            | Error _ -> true (* non-parallel shapes are legitimately rejected *)
            | Ok r ->
              (Machine.run p).Machine.output
              = (Machine.run r.Openmp.omp_program).Machine.output)))

(* [Intrinsic.demote] is the Int32 bit round trip, bit for bit, and
   idempotent.  Inputs: random 64-bit patterns, NaNs with random payloads
   (signalling ones included), signed zeros and infinities, subnormal
   doubles, magnitudes across the float subnormal range, float halfway
   ties (the exact midpoint of two adjacent floats, and one double ulp to
   either side) and values around FLT_MAX and the overflow threshold. *)
let prop_demote_bits =
  let oracle x = Int32.float_of_bits (Int32.bits_of_float x) in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let open QCheck.Gen in
  let bits64 = map Int64.float_of_bits ui64 in
  let signed g = map2 (fun neg x -> if neg then -.x else x) bool g in
  let nan =
    map
      (fun p ->
        let m = Int64.logand p 0xF_FFFF_FFFF_FFFFL in
        Int64.float_of_bits
          (Int64.logor (Int64.logand p Int64.min_int)
             (Int64.logor 0x7FF0_0000_0000_0000L (if m = 0L then 1L else m))))
      ui64
  in
  let specials = oneofl [ 0.0; -0.0; infinity; neg_infinity; Float.nan; -.Float.nan ] in
  let dp_subnormal =
    map (fun p -> Int64.float_of_bits (Int64.logand p 0x800F_FFFF_FFFF_FFFFL)) ui64
  in
  let sp_range = signed (map2 Float.ldexp (float_range 0.5 1.0) (int_range (-160) (-120))) in
  let nudge x n = if n < 0 then Float.pred x else if n > 0 then Float.succ x else x in
  let rec nudges x n k = if k = 0 then x else nudges (nudge x n) n (k - 1) in
  let tie =
    map3
      (fun b e n ->
        (* a finite float, not the largest: its bits plus one is the next *)
        let b = Int32.logand b 0x807F_FFFFl in
        let b = Int32.logor b (Int32.shift_left (Int32.of_int e) 23) in
        let f1 = Int32.float_of_bits b and f2 = Int32.float_of_bits (Int32.add b 1l) in
        nudge ((f1 +. f2) /. 2.0) n)
      ui32 (int_range 0 253) (int_range (-1) 1)
  in
  let flt_max = Int32.float_of_bits 0x7F7F_FFFFl in
  let overflow = flt_max +. Float.ldexp 1.0 103 in
  let near_max =
    signed
      (oneof
         [
           map3 nudges (oneofl [ flt_max; overflow ]) (int_range (-1) 1) (int_range 0 3);
           float_range 3.0e38 3.5e38;
         ])
  in
  let gen =
    frequency
      [ (4, bits64); (2, nan); (1, specials); (1, dp_subnormal); (2, sp_range); (3, tie);
        (2, near_max) ]
  in
  QCheck.Test.make ~name:"demote is the Int32 round trip, bit for bit" ~count:200_000
    (QCheck.make ~print:(fun x -> Printf.sprintf "%h (0x%016Lx)" x (Int64.bits_of_float x)) gen)
    (fun x ->
      let d = Intrinsic.demote x in
      same d (oracle x) && same (Intrinsic.demote d) d)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_demote_bits;
      prop_roundtrip_stable;
      prop_typechecks;
      prop_deterministic;
      prop_renumber_preserves_semantics;
      prop_identity_rewrite;
      prop_output_finite;
      prop_region_counters_bounded;
      prop_extraction_preserves_semantics;
      prop_scalarize_preserves_semantics;
      prop_siv_distance;
      prop_openmp_design_equivalent;
    ]

let _ = check
