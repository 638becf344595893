include Json

type summary = {
  su_events : int;
  su_tids : int list;
  su_cats : (string * int) list;
}

let field_str k ev = match member k ev with Some (Str s) -> Some s | _ -> None

let field_num k ev = match member k ev with Some (Num f) -> Some f | _ -> None

let validate doc =
  match member "traceEvents" doc with
  | Some (List evs) ->
    (* per-tid open-span stack and last timestamp *)
    let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
    let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
    let cats : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let n_events = ref 0 in
    let check ev =
      match field_str "ph" ev with
      | Some "M" | None -> Ok ()
      | Some (("B" | "E") as ph) -> (
        incr n_events;
        match field_num "tid" ev, field_num "ts" ev, field_str "name" ev with
        | None, _, _ -> Error "event without tid"
        | _, None, _ -> Error "event without ts"
        | _, _, None -> Error "event without name"
        | Some tid, Some ts, Some name ->
          let tid = int_of_float tid in
          let prev = Option.value (Hashtbl.find_opt last_ts tid) ~default:neg_infinity in
          if ts < prev then
            Error
              (Printf.sprintf "tid %d: ts %.3f decreases (previous %.3f)" tid ts prev)
          else begin
            Hashtbl.replace last_ts tid ts;
            let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
            if ph = "B" then begin
              Hashtbl.replace stacks tid (name :: stack);
              Ok ()
            end
            else
              match stack with
              | [] -> Error (Printf.sprintf "tid %d: E %S with no open span" tid name)
              | top :: rest when top = name ->
                Hashtbl.replace stacks tid rest;
                (match field_str "cat" ev with
                 | Some cat ->
                   Hashtbl.replace cats cat
                     (1 + Option.value (Hashtbl.find_opt cats cat) ~default:0)
                 | None -> ());
                Ok ()
              | top :: _ ->
                Error
                  (Printf.sprintf "tid %d: E %S closes open span %S (interleaved)" tid
                     name top)
          end)
      | Some ph -> Error (Printf.sprintf "unsupported event phase %S" ph)
    in
    let rec go = function
      | [] ->
        let unbalanced =
          Hashtbl.fold
            (fun tid stack acc -> if stack = [] then acc else tid :: acc)
            stacks []
        in
        if unbalanced <> [] then
          Error
            (Printf.sprintf "unbalanced spans left open on tid(s) %s"
               (String.concat ", "
                  (List.map string_of_int (List.sort compare unbalanced))))
        else
          Ok
            {
              su_events = !n_events;
              su_tids =
                List.sort compare (Hashtbl.fold (fun tid _ acc -> tid :: acc) last_ts []);
              su_cats =
                List.sort compare (Hashtbl.fold (fun c n acc -> (c, n) :: acc) cats []);
            }
      | ev :: rest -> (match check ev with Ok () -> go rest | Error _ as e -> e)
    in
    go evs
  | Some _ -> Error "traceEvents is not an array"
  | None -> Error "no traceEvents member"

let validate_string s = Result.bind (parse s) validate
