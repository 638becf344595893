(* Minimal HTTP/1.1 client over a Unix-domain socket: one request per
   connection, as psaflowd serves them ([Connection: close]). *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off = if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off)) in
  go 0

let read_all fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ();
  Buffer.contents buf

(* [(status, body)]; raises [Unix.Unix_error] when the daemon is not
   reachable and [Failure] on a malformed response. *)
let exchange ~sock ?(body = "") meth path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.0;
      Unix.connect fd (Unix.ADDR_UNIX sock);
      write_all fd
        (Printf.sprintf
           "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
           meth path (String.length body) body);
      let resp = read_all fd in
      let status =
        try Scanf.sscanf resp "HTTP/1.%_d %d" Fun.id
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> failwith "malformed HTTP response"
      in
      let body =
        let rec find i =
          if i + 4 > String.length resp then String.length resp
          else if String.sub resp i 4 = "\r\n\r\n" then i + 4
          else find (i + 1)
        in
        let start = find 0 in
        String.sub resp start (String.length resp - start)
      in
      (status, body))

(* A string field of a JSON object body. *)
let json_field body name =
  match Obs.Trace_json.parse body with
  | Ok j -> (
    match Obs.Trace_json.member name j with Some (Obs.Trace_json.Str s) -> Some s | _ -> None)
  | Error _ -> None

(* A flat JSON object of numbers, as [GET /v1/metrics] serves. *)
let json_numbers body =
  match Obs.Trace_json.parse body with
  | Ok (Obs.Trace_json.Obj fields) ->
    List.filter_map
      (function n, Obs.Trace_json.Num v -> Some (n, v) | _ -> None)
      fields
  | _ -> []
