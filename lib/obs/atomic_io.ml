let tmp_counter = Atomic.make 0

let tmp_path dir =
  Filename.concat dir
    (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add tmp_counter 1))

let with_atomic_out path writer =
  let dir = Filename.dirname path in
  let tmp = tmp_path dir in
  match
    let oc = open_out_bin tmp in
    (try
       writer oc;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)

let write_file path contents =
  with_atomic_out path (fun oc -> output_string oc contents)

let header ~tag ~version payload =
  Printf.sprintf "%s v%d %s %d\n" tag version
    (Digest.to_hex (Digest.string payload))
    (String.length payload)

let write_checksummed ~tag ~version path payload =
  let header = header ~tag ~version payload in
  Result.map
    (fun () -> String.length header + String.length payload)
    (with_atomic_out path (fun oc ->
         output_string oc header;
         output_string oc payload))

type read_error =
  | Unreadable of string
  | Malformed
  | Wrong_version of int

(* The declared length is checked against the bytes actually present
   before the digest reads them, so no header can make the reader
   allocate by its say-so or read past the end. *)
let decode_checksummed ~tag ~version bytes =
  match String.index_opt bytes '\n' with
  | None -> Error Malformed
  | Some eol -> (
    let ofs = eol + 1 in
    let len = String.length bytes - ofs in
    match String.split_on_char ' ' (String.sub bytes 0 eol) with
    | [ t; v; digest; declared ] when t = tag && String.length v > 1 && v.[0] = 'v' -> (
      match int_of_string_opt (String.sub v 1 (String.length v - 1)) with
      | None -> Error Malformed
      | Some v when v <> version -> Error (Wrong_version v)
      | Some _ ->
        if int_of_string_opt declared = Some len
           && Digest.to_hex (Digest.substring bytes ofs len) = digest
        then Ok ofs
        else Error Malformed)
    | _ -> Error Malformed)

let read_checksummed ~tag ~version path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error (Unreadable msg)
  | bytes ->
    Result.map
      (fun ofs -> String.sub bytes ofs (String.length bytes - ofs))
      (decode_checksummed ~tag ~version bytes)
