(* Per-span self time from a recorded trace: a span's duration minus the
   part of it that its child spans on the same domain track cover. *)

type span = {
  cat : string;
  name : string;
  tid : int;
  b_us : float;
  e_us : float;
  self_us : float;
}

type frame = { f_name : string; f_cat : string; f_ts : float; mutable f_child : float }

(* Rebuild closed spans from begin/end events.  Spans strictly nest per
   track, so a stack per track pairs each end with the latest open begin;
   an end with no open begin is dropped, as is a begin never closed. *)
let spans (events : Obs.Trace.event list) =
  let stacks = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      let stack = Option.value (Hashtbl.find_opt stacks ev.ev_tid) ~default:[] in
      match ev.ev_ph with
      | `B ->
        Hashtbl.replace stacks ev.ev_tid
          ({ f_name = ev.ev_name; f_cat = ev.ev_cat; f_ts = ev.ev_ts; f_child = 0.0 }
          :: stack)
      | `E -> (
        match stack with
        | [] -> ()
        | f :: rest ->
          let dur = ev.ev_ts -. f.f_ts in
          (match rest with parent :: _ -> parent.f_child <- parent.f_child +. dur | [] -> ());
          Hashtbl.replace stacks ev.ev_tid rest;
          out :=
            {
              cat = f.f_cat;
              name = f.f_name;
              tid = ev.ev_tid;
              b_us = f.f_ts;
              e_us = ev.ev_ts;
              self_us = dur -. f.f_child;
            }
            :: !out))
    events;
  List.rev !out

(* Total self time (seconds) of the spans satisfying [keep]. *)
let self_s ?(keep = fun _ -> true) spans =
  List.fold_left (fun acc s -> if keep s then acc +. s.self_us else acc) 0.0 spans /. 1e6

(* Total inclusive duration (seconds) of the spans satisfying [keep]. *)
let dur_s ?(keep = fun _ -> true) spans =
  List.fold_left (fun acc s -> if keep s then acc +. (s.e_us -. s.b_us) else acc) 0.0 spans
  /. 1e6

(* Time (seconds) the top-level spans of each track cover inside the
   window [lo_us, hi_us], summed over tracks — equal to the tracks' total
   self time when every span lies inside the window. *)
let covered_s ~lo_us ~hi_us spans =
  let depth0 =
    (* a span is top-level when no other span of its track encloses it *)
    let by_tid = Hashtbl.create 8 in
    List.iter
      (fun s ->
        let l = Option.value (Hashtbl.find_opt by_tid s.tid) ~default:[] in
        Hashtbl.replace by_tid s.tid (s :: l))
      spans;
    Hashtbl.fold
      (fun _ l acc ->
        let l = List.sort (fun a b -> compare (a.b_us, -.a.e_us) (b.b_us, -.b.e_us)) l in
        let _, tops =
          List.fold_left
            (fun (reach, tops) s -> if s.e_us <= reach then (reach, tops) else (s.e_us, s :: tops))
            (neg_infinity, []) l
        in
        tops @ acc)
      by_tid []
  in
  List.fold_left
    (fun acc s -> acc +. Float.max 0.0 (Float.min hi_us s.e_us -. Float.max lo_us s.b_us))
    0.0 depth0
  /. 1e6
