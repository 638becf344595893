(* Tests for the util library: PRNG, percentiles, tables, diffs. *)

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let test_prng_deterministic () =
  let a = Util.Prng.create 7 and b = Util.Prng.create 7 in
  for _ = 1 to 100 do
    check "same stream" true (Util.Prng.int64 a = Util.Prng.int64 b)
  done

let test_prng_seeds_differ () =
  let a = Util.Prng.create 1 and b = Util.Prng.create 2 in
  check "different seeds diverge" false (Util.Prng.int64 a = Util.Prng.int64 b)

let test_prng_uniform_range () =
  let t = Util.Prng.create 3 in
  for _ = 1 to 1000 do
    let u = Util.Prng.uniform t in
    check "uniform in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_prng_uniform_mean () =
  let t = Util.Prng.create 5 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Util.Prng.uniform t
  done;
  let mean = !sum /. float_of_int n in
  check "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

(* the median is the 50th percentile *)
let test_stats_median_odd () =
  checkf "median odd" 3.0 (Util.Stats.percentile [| 5.0; 1.0; 3.0 |] 50.0)

let test_stats_median_even () =
  checkf "median even" 2.5 (Util.Stats.percentile [| 1.0; 2.0; 3.0; 4.0 |] 50.0)

let test_stats_percentile () =
  let a = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  checkf "p0" 10.0 (Util.Stats.percentile a 0.0);
  checkf "p100" 50.0 (Util.Stats.percentile a 100.0);
  checkf "p50" 30.0 (Util.Stats.percentile a 50.0)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_table_render () =
  let t = Util.Table.create ~headers:[ "a"; "b" ] in
  Util.Table.add_row t [ "1"; "22" ];
  Util.Table.add_row t [ "333" ];
  let text = Util.Table.render t in
  check "contains 22" true (contains ~needle:"22" text);
  check "contains 333" true (contains ~needle:"333" text);
  check "has enough lines" true (List.length (String.split_on_char '\n' text) > 4)

let test_table_alignment () =
  let t = Util.Table.create ~headers:[ "n" ] in
  Util.Table.set_aligns t [ Util.Table.Right ];
  Util.Table.add_row t [ "7" ];
  Util.Table.add_row t [ "1000" ];
  let lines = String.split_on_char '\n' (Util.Table.render t) in
  (* the short value must be right-aligned: "|    7 |" *)
  check "right aligned" true (List.exists (fun l -> l = "|    7 |") lines)

(* ---- diff ---- *)

let test_diff_equal_texts () =
  Alcotest.(check string) "no hunks" "" (Util.Diff.unified ~old_text:"a\nb\nc" "a\nb\nc")

let test_diff_add_drop () =
  let ops = Util.Diff.diff_lines [ "a"; "b"; "c" ] [ "a"; "x"; "c" ] in
  check "keeps a and c" true
    (List.mem (Util.Diff.Keep "a") ops && List.mem (Util.Diff.Keep "c") ops);
  check "drops b" true (List.mem (Util.Diff.Drop "b") ops);
  check "adds x" true (List.mem (Util.Diff.Add "x") ops)

let test_diff_unified_format () =
  let u = Util.Diff.unified ~old_text:"one\ntwo\nthree\nfour\nfive" "one\ntwo\nTHREE\nfour\nfive" in
  check "has hunk header" true (contains ~needle:"@@" u);
  check "has removal" true (contains ~needle:"-three" u);
  check "has addition" true (contains ~needle:"+THREE" u);
  check "has context" true (contains ~needle:" two" u)

let qcheck_diff_reconstructs =
  QCheck.Test.make ~name:"diff ops reconstruct both inputs" ~count:200
    QCheck.(pair (list (string_gen_of_size (Gen.return 1) Gen.(map Char.chr (97 -- 99))))
              (list (string_gen_of_size (Gen.return 1) Gen.(map Char.chr (97 -- 99)))))
    (fun (old_l, new_l) ->
      let ops = Util.Diff.diff_lines old_l new_l in
      let olds =
        List.filter_map
          (function Util.Diff.Keep l | Util.Diff.Drop l -> Some l | Util.Diff.Add _ -> None)
          ops
      in
      let news =
        List.filter_map
          (function Util.Diff.Keep l | Util.Diff.Add l -> Some l | Util.Diff.Drop _ -> None)
          ops
      in
      olds = old_l && news = new_l)

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 30) (float_bound_inclusive 100.0)) (float_bound_inclusive 100.0))
    (fun (l, p) ->
      let a = Array.of_list l in
      let v = Util.Stats.percentile a p in
      v >= Array.fold_left Float.min a.(0) a -. 1e-9
      && v <= Array.fold_left Float.max a.(0) a +. 1e-9)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng seeds differ" `Quick test_prng_seeds_differ;
    Alcotest.test_case "prng uniform range" `Quick test_prng_uniform_range;
    Alcotest.test_case "prng uniform mean" `Quick test_prng_uniform_mean;
    Alcotest.test_case "stats median odd" `Quick test_stats_median_odd;
    Alcotest.test_case "stats median even" `Quick test_stats_median_even;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table alignment" `Quick test_table_alignment;
    Alcotest.test_case "diff equal texts" `Quick test_diff_equal_texts;
    Alcotest.test_case "diff add/drop" `Quick test_diff_add_drop;
    Alcotest.test_case "diff unified format" `Quick test_diff_unified_format;
    QCheck_alcotest.to_alcotest qcheck_diff_reconstructs;
    QCheck_alcotest.to_alcotest qcheck_percentile_bounds;
  ]
