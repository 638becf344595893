(* perfbench — the repository benchmark.

   perfbench --workload flow-cold|flow-warm|serve-mixed --seed N
             --seconds S --trace 0|1

   Prints a table of every metric with its unit, then, as the last line
   of standard output, one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   With --trace 0 the metrics are the end-to-end ones (tracing off);
   with --trace 1 they are the per-layer ones, from a separate run with
   the program's spans and counters on.  Run it through run.sh, which
   builds the program first. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload flow-cold|flow-warm|serve-mixed --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := Some (v = "1");
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0.0 -> (!workload, seed, seconds, trace)
  | _ -> usage ()

let metric_list catalogue values notes =
  List.map
    (fun (name, unit_) ->
      Pb_out.m name unit_
        (Option.value (List.assoc_opt name values) ~default:0.0)
        ~note:(Option.value (List.assoc_opt name notes) ~default:""))
    catalogue

let () =
  if Array.to_list Sys.argv = [ Sys.argv.(0); Pb_speed.helper_flag ] then Pb_speed.serve ();
  let workload, seed, seconds, trace = parse_args () in
  (* an interrupted run still stops its daemon and removes its files *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
  (* a daemon that dies mid-exchange must surface as an error, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let run =
    match workload with
    | "flow-cold" -> fun () -> Pb_flows.run Pb_flows.Cold ~seed ~seconds ~trace
    | "flow-warm" -> fun () -> Pb_flows.run Pb_flows.Warm ~seed ~seconds ~trace
    | "serve-mixed" -> fun () -> Pb_serve.run ~seed ~seconds ~trace
    | _ -> usage ()
  in
  match run () with
  | exception e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    exit 1
  | t, e2e, layers ->
    let values = List.map (fun (n, v, _) -> (n, v)) in
    let notes = List.map (fun (n, _, note) -> (n, note)) in
    let ms =
      if trace then metric_list Pb_names.per_layer (values layers) (notes layers)
      else metric_list Pb_names.end_to_end (values e2e) (notes e2e)
    in
    Pb_out.print_table
      ~title:
        (Printf.sprintf "perfbench %s seed=%d seconds=%g (%s)" workload seed seconds
           (if trace then "traced: per-layer" else "timed: end-to-end"))
      ms;
    Printf.printf "  %-34s %14d/%d failed, %d report mismatches\n" "operations" t.Pb_check.failed
      t.attempted t.mismatched;
    print_endline
      (Pb_out.result_json ~correct:(t.failed = 0) ~attempted:(max 1 t.attempted) ~failed:t.failed ms)
