let is_code_line line =
  let t = String.trim line in
  t <> "" && not (String.length t >= 2 && t.[0] = '/' && t.[1] = '/')

let count_text text =
  String.split_on_char '\n' text |> List.filter is_code_line |> List.length

let program_loc p = count_text (Pretty.program_to_string p)

let added_pct ~reference_loc ~design =
  if reference_loc = 0 then 0.0
  else
    float_of_int (program_loc design - reference_loc) /. float_of_int reference_loc *. 100.0
