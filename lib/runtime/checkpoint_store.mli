(** Crash-consistent on-disk persistence for {!Checkpoint} state and
    committed row payloads.

    PR 2's row-granular checkpoints die with the host process: a job
    killed mid-batch restarts from row zero. This store makes each
    validated row group durable, so a resumed process continues
    exactly at the last committed group and the final output is
    bit-identical to an uninterrupted run.

    {2 On-disk format (little-endian)}

    {v
    header : "ASCKPT" | version u16 | rows u32 | len u32
           | meta_len u32 | meta bytes | crc32(header) u32
    record : lo u32 | hi u32 | payload_len u32
           | payload ((hi-lo)*len float64 bit patterns)
           | crc32(record) u32
    v}

    Payload elements are the {e exact} IEEE-754 bit patterns of the
    committed output rows ({!Ascend.Global_tensor.get} values), so a
    restore is bit-identical regardless of dtype.

    {2 Crash consistency}

    Every {!commit} serialises the complete store to [path ^ ".tmp"],
    flushes and fsyncs it, then atomically renames it over [path] — a
    [SIGKILL] at any instant leaves either the previous fully-valid
    snapshot or the new one, never a mix. Belt and braces, {!load}
    additionally verifies the header and every record CRC and treats a
    truncated or corrupt tail (a torn write under a filesystem without
    atomic rename, or bit rot) as the end of the log: the damaged
    record and everything after it are discarded and reported through
    [torn], rather than poisoning the resume. The records hold
    pairwise disjoint rows: a record whose rows overlap an earlier
    one's (a duplicated record, say) is damage like a bad CRC. *)

type t

val create : path:string -> rows:int -> len:int -> ?meta:string -> unit -> t
(** A fresh store: writes an empty (header-only) snapshot at [path],
    replacing any existing file. [meta] is an opaque caller string
    (the CLI records the scenario file and seed) checked on resume.
    Raises [Invalid_argument] on non-positive dimensions, [Sys_error]
    when the path is unwritable. *)

type loaded = {
  l_rows : int;
  l_len : int;
  l_meta : string;
  l_groups : (int * int * float array) list;
      (** Validated commits in commit order: rows [lo, hi) and their
          [(hi-lo)*len] payload values. *)
  l_torn : bool;
      (** A truncated or CRC-corrupt tail, or a record overlapping an
          earlier one, was detected and dropped with everything after
          it. *)
}

val load : path:string -> (loaded, string) result
(** Parse a snapshot. [Error] on a missing file, bad magic, or an
    unsupported version — a torn {e tail} is not an error (see
    {!type:loaded}[.l_torn]). A file with valid magic but a format
    version this build does not write is refused with an error naming
    both versions (a newer-build store must never be misparsed). *)

val version : int
(** The store format version this build reads and writes. *)

val crc32 : Bytes.t -> int
(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven:
    the header and record checksum. *)

val reopen : path:string -> (t * loaded, string) result
(** {!load}, then return a store handle that continues committing to
    the same path with the surviving records preserved. *)

val commit : t -> lo:int -> hi:int -> values:float array -> unit
(** Durably append one validated row group (rows [lo <= r < hi],
    [values] their row-major payload of length [(hi-lo)*len]) with the
    atomic snapshot-rename protocol above. Raises [Invalid_argument]
    on a bad range or payload length, or when a row of the range is
    already committed. *)

val path : t -> string
val rows : t -> int
val len : t -> int
val meta : t -> string

val commits : t -> int
(** Records currently in the store (restored + appended). *)

val groups : t -> (int * int * float array) list
(** The store's records in commit order — what a resumed
    [Resilient.run_groups] restores before touching the device. *)

val pp_loaded : Format.formatter -> loaded -> unit
