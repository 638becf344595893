type line =
  | Keep of string
  | Add of string
  | Drop of string

(* standard dynamic-programming LCS; inputs here are source files of a few
   hundred lines, so the quadratic table is fine *)
let diff_lines old_lines new_lines =
  let a = Array.of_list old_lines and b = Array.of_list new_lines in
  let n = Array.length a and m = Array.length b in
  let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      lcs.(i).(j) <-
        (if String.equal a.(i) b.(j) then 1 + lcs.(i + 1).(j + 1)
         else max lcs.(i + 1).(j) lcs.(i).(j + 1))
    done
  done;
  let rec walk i j acc =
    if i < n && j < m && String.equal a.(i) b.(j) then
      walk (i + 1) (j + 1) (Keep a.(i) :: acc)
    else if j < m && (i = n || lcs.(i).(j + 1) >= lcs.(i + 1).(j)) then
      walk i (j + 1) (Add b.(j) :: acc)
    else if i < n then walk (i + 1) j (Drop a.(i) :: acc)
    else List.rev acc
  in
  walk 0 0 []

let split text = String.split_on_char '\n' text

let unified ?(context = 2) ~old_text new_text =
  let ops = Array.of_list (diff_lines (split old_text) (split new_text)) in
  let n = Array.length ops in
  let changed i = match ops.(i) with Keep _ -> false | Add _ | Drop _ -> true in
  (* mark lines to print: changes plus [context] neighbours *)
  let show = Array.make n false in
  for i = 0 to n - 1 do
    if changed i then
      for j = max 0 (i - context) to min (n - 1) (i + context) do
        show.(j) <- true
      done
  done;
  if not (Array.exists Fun.id show) then ""
  else begin
    let buf = Buffer.create 1024 in
    (* track line numbers in both files for hunk headers *)
    let old_no = ref 1 and new_no = ref 1 in
    let in_hunk = ref false in
    for i = 0 to n - 1 do
      (if show.(i) then begin
         if not !in_hunk then begin
           Buffer.add_string buf (Printf.sprintf "@@ -%d +%d @@\n" !old_no !new_no);
           in_hunk := true
         end;
         match ops.(i) with
         | Keep l -> Buffer.add_string buf (" " ^ l ^ "\n")
         | Add l -> Buffer.add_string buf ("+" ^ l ^ "\n")
         | Drop l -> Buffer.add_string buf ("-" ^ l ^ "\n")
       end
       else in_hunk := false);
      (match ops.(i) with
       | Keep _ ->
         incr old_no;
         incr new_no
       | Add _ -> incr new_no
       | Drop _ -> incr old_no)
    done;
    Buffer.contents buf
  end
