(** Torn-write-free file publication, shared by every artifact writer.

    All output files that another process (or a rerun of this one) may
    read — cache entries, traces, bench JSON, ledger records, emitted
    design sources — go through the same discipline: write to a unique
    temp file in the destination directory, then publish with an atomic
    [rename].  An interrupted writer leaves at worst a stale temp file,
    never a truncated artifact under the real name.

    {!write_checksummed}/{!read_checksummed} add one checksummed record
    format on top, shared by [.psa-cache] entries, ledger records and the
    daemon's request store: the published file carries a header line with
    a format tag, a schema version, an MD5 digest of the payload and its
    length, so a reader can tell truncation/corruption from valid data.
    No header field is trusted before it is checked against the bytes
    actually present. *)

val with_atomic_out : string -> (out_channel -> unit) -> (unit, string) result
(** [with_atomic_out path writer] opens a fresh temp file next to [path]
    (binary mode), runs [writer] on it, closes it and renames it onto
    [path].  On any I/O failure (including one raised by [writer]) the
    temp file is removed and the previous [path] contents, if any, are
    left untouched. *)

val write_file : string -> string -> (unit, string) result
(** [write_file path contents] — {!with_atomic_out} with a fixed string. *)

val write_checksummed : tag:string -> version:int -> string -> string -> (int, string) result
(** [write_checksummed ~tag ~version path payload] atomically publishes
    ["<tag> v<version> <md5-hex> <length>\n<payload>"] and returns the
    number of bytes published.  [tag] must not contain a space. *)

type read_error =
  | Unreadable of string  (** open/read failure *)
  | Malformed  (** bad header, truncation or digest mismatch *)
  | Wrong_version of int  (** valid entry recorded under another schema *)

val read_checksummed : tag:string -> version:int -> string -> (string, read_error) result
(** Read a {!write_checksummed} file back, validating tag, version,
    length and digest; the payload is returned only when all match.
    Never raises: any byte sequence is an [Ok] payload or a classified
    error. *)

val decode_checksummed : tag:string -> version:int -> string -> (int, read_error) result
(** The checks of {!read_checksummed} over a record's bytes already in
    memory: the declared length must equal the number of bytes after
    the header line ([Malformed] otherwise), and the payload must match
    its digest.  On success, the offset at which the payload starts; it
    runs to the end of the bytes, so a reader can decode it in place. *)
