type align = Left | Right | Center

type t = {
  headers : string list;
  mutable aligns : align array;
  mutable rows : string list list; (* reversed *)
}

let create ~headers =
  { headers; aligns = Array.make (List.length headers) Left; rows = [] }

let set_aligns t aligns =
  List.iteri
    (fun i a -> if i < Array.length t.aligns then t.aligns.(i) <- a)
    aligns

let add_row t cells = t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s
    | Center ->
      let left = (width - n) / 2 in
      String.make left ' ' ^ s ^ String.make (width - n - left) ' '

let render t =
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri
      (fun i c -> if i < ncols then widths.(i) <- max widths.(i) (String.length c))
      cells
  in
  measure t.headers;
  List.iter measure t.rows;
  let rule =
    "+"
    ^ String.concat "+" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let line align_of cells =
    let padded =
      List.init ncols (fun i ->
          let c = try List.nth cells i with Failure _ -> "" in
          " " ^ pad (align_of i) widths.(i) c ^ " ")
    in
    "|" ^ String.concat "|" padded ^ "|"
  in
  let buf = Buffer.create 256 in
  let addl s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
  addl rule;
  addl (line (fun _ -> Center) t.headers);
  addl rule;
  List.iter (fun c -> addl (line (fun i -> t.aligns.(i)) c)) (List.rev t.rows);
  addl rule;
  Buffer.contents buf

let print t = print_string (render t)
