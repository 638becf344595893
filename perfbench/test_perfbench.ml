(* Tests of the benchmark's own measurement code. *)

let close = Alcotest.float 1e-9

let tail_rule () =
  let check n want = Alcotest.(check (option int)) (Printf.sprintf "n=%d" n) want (Pb_stat.tail_percentile n) in
  check 10 None;
  check 11 (Some 9);
  check 50 (Some 81);
  check 100 (Some 90);
  check 1000 (Some 99);
  (* the chosen percentile keeps ten samples beyond it; the next one up does not *)
  List.iter
    (fun n ->
      match Pb_stat.tail_percentile n with
      | None -> Alcotest.fail "no tail percentile"
      | Some p ->
        Alcotest.(check bool) "ten beyond" true (Pb_stat.beyond n p >= 10);
        if p < 99 then Alcotest.(check bool) "highest" true (Pb_stat.beyond n (p + 1) < 10))
    [ 11; 37; 100; 101; 250; 999; 5000 ]

let percentiles () =
  let xs = List.init 101 float_of_int in
  Alcotest.check close "median" 50.0 (Pb_stat.median xs);
  Alcotest.check close "p90" 90.0 (Pb_stat.percentile xs 90.0);
  Alcotest.check close "interpolated" 1.5 (Pb_stat.median [ 2.0; 1.0 ])

let ev ph name tid ts =
  { Obs.Trace.ev_ph = ph; ev_name = name; ev_cat = name; ev_tid = tid; ev_ts = ts; ev_attrs = [] }

(* outer [0,100] holds a [10,40] (which holds c [20,30]) and b [50,90];
   a second track runs d [0,60] in parallel *)
let self_time () =
  let events =
    [
      ev `B "outer" 0 0.0; ev `B "a" 0 10.0; ev `B "c" 0 20.0; ev `E "c" 0 30.0; ev `E "a" 0 40.0;
      ev `B "b" 0 50.0; ev `E "b" 0 90.0; ev `E "outer" 0 100.0; ev `B "d" 1 0.0; ev `E "d" 1 60.0;
    ]
  in
  let spans = Pb_selftime.spans events in
  let self name = Pb_selftime.self_s ~keep:(fun s -> s.Pb_selftime.name = name) spans *. 1e6 in
  Alcotest.check close "outer" 30.0 (self "outer");
  Alcotest.check close "a" 20.0 (self "a");
  Alcotest.check close "b" 40.0 (self "b");
  Alcotest.check close "c" 10.0 (self "c");
  Alcotest.check close "other track untouched" 60.0 (self "d");
  Alcotest.check close "self times partition the tracks" 160.0 (Pb_selftime.self_s spans *. 1e6);
  Alcotest.check close "covered, clipped to a window" 80.0
    (Pb_selftime.covered_s ~lo_us:20.0 ~hi_us:60.0 spans *. 1e6)

let golden_one_byte () =
  let expected = "N-Body Simulation - uninformed mode\n| OMP | 0.0464 |\n" in
  Alcotest.(check (option int)) "equal" None (Pb_golden.first_difference ~expected ~got:expected);
  let flipped = Bytes.of_string expected in
  Bytes.set flipped 30 (Char.chr (Char.code (Bytes.get flipped 30) lxor 1));
  Alcotest.(check (option int))
    "one flipped byte" (Some 30)
    (Pb_golden.first_difference ~expected ~got:(Bytes.to_string flipped));
  Alcotest.(check (option int))
    "one byte missing" (Some (String.length expected - 1))
    (Pb_golden.first_difference ~expected
       ~got:(String.sub expected 0 (String.length expected - 1)));
  let tbl = Hashtbl.create 1 in
  Hashtbl.replace tbl "k" expected;
  Alcotest.(check bool) "check accepts the golden" true (Pb_golden.check tbl "k" expected);
  Alcotest.(check bool) "check rejects a one-byte change" false
    (Pb_golden.check tbl "k" (Bytes.to_string flipped))

let metric_names () =
  let names = List.map fst (Pb_names.end_to_end @ Pb_names.per_layer) in
  List.iter (fun n -> Alcotest.(check bool) n true (Pb_out.valid_name n)) names;
  Alcotest.(check int) "unique" (List.length names) (List.length (List.sort_uniq compare names));
  List.iter
    (fun bad -> Alcotest.(check bool) bad false (Pb_out.valid_name bad))
    [ ""; "a b"; "p/90"; ".lead"; "x\"y"; String.make 65 'a' ]

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "percentiles" `Quick percentiles;
          Alcotest.test_case "self time of nested spans" `Quick self_time;
          Alcotest.test_case "golden comparator catches one byte" `Quick golden_one_byte;
          Alcotest.test_case "metric names" `Quick metric_names;
        ] );
    ]
