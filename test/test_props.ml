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
   square roots and divisions are guarded so evaluation is total. *)

module Gen = struct
  open QCheck.Gen

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
          (1, map (fun a -> Printf.sprintf "sqrt(fabs(%s) + 1.0)" a) (expr ?iv locals (depth - 1)));
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

  (* ---- the single-precision variant ----

     The same shapes over float arrays and locals, with [f] literals,
     [(float)] casts, [sqrtf]/[fabsf], ternaries, and float targets (locals
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
          (1, map (fun a -> Printf.sprintf "sqrtf(fabsf(%s) + 1.0f)" a) sub);
          (1, map2 (fun a b -> Printf.sprintf "(%s / (fabsf(%s) + 1.0f))" a b) sub sub);
          (1, map (fun a -> Printf.sprintf "(float)(%s * 0.75)" a) sub);
        ]

  (* double-valued, over single-precision operands *)
  let dp_expr locals =
    let e = sp_expr locals 2 in
    oneof
      [
        map2 (fun a b -> Printf.sprintf "((double)%s * 0.5 + %s)" a b) e e;
        map (fun a -> Printf.sprintf "sqrt(fabs((double)%s) + 1.0)" a) e;
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
end

let arbitrary_program = QCheck.make Gen.program ~print:Fun.id

let arbitrary_kernel =
  QCheck.make ~print:Fun.id (QCheck.Gen.map (Gen.dp_shape ~kernel:true) Gen.body)

(* single-precision kernels, in both shapes *)
let arbitrary_sp_program =
  QCheck.make ~print:Fun.id (QCheck.Gen.map Gen.sp_shape Gen.sp_body)

let arbitrary_sp_kernel =
  QCheck.make ~print:Fun.id (QCheck.Gen.map (Gen.sp_shape ~kernel:true) Gen.sp_body)

(* kernels whose loop calls a leaf helper per iteration *)
let arbitrary_leaf_kernel = QCheck.make ~print:Fun.id Gen.leaf_program

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

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
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
