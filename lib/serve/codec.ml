module J = Obs.Json

let known_keys =
  [ "app"; "source"; "source_name"; "scale"; "mode"; "workload";
    "step_budget"; "jobs"; "client" ]

let str_field name fields =
  match List.assoc_opt name fields with
  | None -> Ok None
  | Some (J.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

(* Integers ride in JSON numbers; anything fractional or non-positive is
   a spec error, not something to round. *)
let pos_int_field name fields =
  match List.assoc_opt name fields with
  | None -> Ok None
  | Some (J.Num f) when Float.is_integer f && f >= 1.0 && f < 1e15 ->
    Ok (Some (int_of_float f))
  | Some _ -> Error (Printf.sprintf "field %S must be a positive integer" name)

let enum_field name fields choices ~default =
  match List.assoc_opt name fields with
  | None -> Ok default
  | Some (J.Str s) -> (
    match List.assoc_opt s choices with
    | Some v -> Ok v
    | None ->
      Error
        (Printf.sprintf "field %S must be one of: %s" name
           (String.concat ", " (List.map fst choices))))
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let ( let* ) = Result.bind

let parse body =
  match J.parse body with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok (J.Obj fields) -> (
    match
      List.find_opt (fun (k, _) -> not (List.mem k known_keys)) fields
    with
    | Some (k, _) -> Error (Printf.sprintf "unknown field %S" k)
    | None ->
      let* app = str_field "app" fields in
      let* source = str_field "source" fields in
      let* source_name = str_field "source_name" fields in
      let* scale = pos_int_field "scale" fields in
      let* mode =
        enum_field "mode" fields
          [ ("informed", Pipeline.Informed); ("uninformed", Pipeline.Uninformed) ]
          ~default:Pipeline.Uninformed
      in
      let* quick =
        enum_field "workload" fields
          [ ("quick", true); ("eval", false) ]
          ~default:false
      in
      let* step_budget = pos_int_field "step_budget" fields in
      let* jobs = pos_int_field "jobs" fields in
      let* client = str_field "client" fields in
      let* () =
        match client with
        | Some "" -> Error "field \"client\" must be non-empty"
        | _ -> Ok ()
      in
      let* src =
        match (app, source) with
        | Some a, None ->
          if source_name <> None || scale <> None then
            Error "\"source_name\"/\"scale\" apply only to inline sources"
          else Ok (Request.Builtin a)
        | None, Some text ->
          Ok
            (Request.Inline
               {
                 name = Option.value source_name ~default:"inline";
                 text;
                 scale = Option.value scale ~default:1;
               })
        | Some _, Some _ -> Error "give either \"app\" or \"source\", not both"
        | None, None -> Error "one of \"app\" or \"source\" is required"
      in
      Ok
        ( {
            Request.sp_source = src;
            sp_mode = mode;
            sp_quick = quick;
            sp_step_budget = step_budget;
            sp_jobs_hint = jobs;
          },
          client ))
  | Ok _ -> Error "request body must be a JSON object"

let to_json ?client (spec : Request.spec) =
  let opt name f = Option.fold ~none:[] ~some:(fun v -> [ (name, f v) ]) in
  let source =
    match spec.Request.sp_source with
    | Request.Builtin slug -> [ ("app", J.Str slug) ]
    | Request.Inline { name; text; scale } ->
      [ ("source", J.Str text); ("source_name", J.Str name) ]
      @ if scale <> 1 then [ ("scale", J.int scale) ] else []
  in
  J.to_string
    (J.Obj
       (source
       @ [
           ("mode", J.Str (Pipeline.mode_name spec.Request.sp_mode));
           ("workload", J.Str (if spec.Request.sp_quick then "quick" else "eval"));
         ]
       @ opt "step_budget" J.int spec.Request.sp_step_budget
       @ opt "jobs" J.int spec.Request.sp_jobs_hint
       @ opt "client" (fun c -> J.Str c) client))
