let magic = "ASCKPT"
let version = 1

(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c))

let crc32 (b : Bytes.t) =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = 0 to Bytes.length b - 1 do
    c := table.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(* Little-endian integer helpers over Buffer. *)
let add_u16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))

let add_u32 buf v =
  add_u16 buf (v land 0xFFFF);
  add_u16 buf ((v lsr 16) land 0xFFFF)

let add_f64 buf v =
  let bits = Int64.bits_of_float v in
  for b = 0 to 7 do
    Buffer.add_char buf
      (Char.chr
         (Int64.to_int (Int64.shift_right_logical bits (b * 8)) land 0xFF))
  done

type t = {
  st_path : string;
  st_rows : int;
  st_len : int;
  st_meta : string;
  mutable records : (int * int * float array) list;  (* newest first *)
  mutable n_records : int;
}

(* Whether rows [lo, hi) share a row with one of [groups]: a store's
   records are row-disjoint. *)
let overlaps ~lo ~hi groups =
  List.exists (fun (lo', hi', _) -> lo < hi' && lo' < hi) groups

let path t = t.st_path
let rows t = t.st_rows
let len t = t.st_len
let meta t = t.st_meta
let commits t = t.n_records
let groups t = List.rev t.records

let header_bytes t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf magic;
  add_u16 buf version;
  add_u32 buf t.st_rows;
  add_u32 buf t.st_len;
  add_u32 buf (String.length t.st_meta);
  Buffer.add_string buf t.st_meta;
  let body = Buffer.to_bytes buf in
  add_u32 buf (crc32 body);
  Buffer.to_bytes buf

let record_bytes (lo, hi, values) =
  let buf = Buffer.create (16 + (Array.length values * 8)) in
  add_u32 buf lo;
  add_u32 buf hi;
  add_u32 buf (Array.length values * 8);
  Array.iter (fun v -> add_f64 buf v) values;
  let body = Buffer.to_bytes buf in
  add_u32 buf (crc32 body);
  Buffer.to_bytes buf

(* Snapshot-rename commit protocol: the full store lands in [.tmp],
   reaches the platters (fsync), and replaces [path] in one atomic
   rename. A SIGKILL anywhere leaves a complete old or new snapshot. *)
let persist t =
  let tmp = t.st_path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_bytes oc (header_bytes t);
  List.iter (fun r -> output_bytes oc (record_bytes r)) (List.rev t.records);
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  close_out oc;
  Sys.rename tmp t.st_path

let create ~path ~rows ~len ?(meta = "") () =
  if rows < 1 || len < 1 then
    invalid_arg "Checkpoint_store.create: rows and len must be >= 1";
  let t =
    { st_path = path; st_rows = rows; st_len = len; st_meta = meta;
      records = []; n_records = 0 }
  in
  persist t;
  t

let commit t ~lo ~hi ~values =
  if lo < 0 || hi > t.st_rows || lo >= hi then
    invalid_arg "Checkpoint_store.commit: bad row range";
  if Array.length values <> (hi - lo) * t.st_len then
    invalid_arg
      (Printf.sprintf
         "Checkpoint_store.commit: payload length %d, expected %d rows * %d"
         (Array.length values) (hi - lo) t.st_len);
  if overlaps ~lo ~hi t.records then
    invalid_arg
      (Printf.sprintf "Checkpoint_store.commit: rows %d-%d already committed"
         lo hi);
  t.records <- (lo, hi, Array.copy values) :: t.records;
  t.n_records <- t.n_records + 1;
  persist t

type loaded = {
  l_rows : int;
  l_len : int;
  l_meta : string;
  l_groups : (int * int * float array) list;
  l_torn : bool;
}

(* Cursor-based parser over the raw file contents; every read is
   bounds-checked so a truncated tail surfaces as [None], never an
   exception. *)
let read_u16 s pos =
  if !pos + 2 > String.length s then None
  else begin
    let v = Char.code s.[!pos] lor (Char.code s.[!pos + 1] lsl 8) in
    pos := !pos + 2;
    Some v
  end

let read_u32 s pos =
  match read_u16 s pos with
  | None -> None
  | Some lo -> (
      match read_u16 s pos with
      | None -> None
      | Some hi -> Some (lo lor (hi lsl 16)))

let read_str s pos n =
  if n < 0 || !pos + n > String.length s then None
  else begin
    let v = String.sub s !pos n in
    pos := !pos + n;
    Some v
  end

let read_f64 s pos =
  if !pos + 8 > String.length s then None
  else begin
    let bits = ref 0L in
    for b = 7 downto 0 do
      bits :=
        Int64.logor
          (Int64.shift_left !bits 8)
          (Int64.of_int (Char.code s.[!pos + b]))
    done;
    pos := !pos + 8;
    Some (Int64.float_of_bits !bits)
  end

let ( let* ) o f = match o with None -> None | Some v -> f v

let parse_record ~rows ~len s pos =
  let start = !pos in
  let* lo = read_u32 s pos in
  let* hi = read_u32 s pos in
  let* payload_len = read_u32 s pos in
  if lo >= hi || hi > rows || payload_len <> (hi - lo) * len * 8 then None
  else begin
    let values = Array.make ((hi - lo) * len) 0.0 in
    let ok = ref true in
    for i = 0 to Array.length values - 1 do
      if !ok then
        match read_f64 s pos with
        | Some v -> values.(i) <- v
        | None -> ok := false
    done;
    if not !ok then None
    else
      let body_end = !pos in
      let* crc = read_u32 s pos in
      if
        crc
        <> crc32
             (Bytes.of_string (String.sub s start (body_end - start)))
      then None
      else Some (lo, hi, values)
  end

let load ~path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error msg -> Error msg
  | s -> (
      let pos = ref 0 in
      (* The version check gets its own failure path: a valid-magic
         file written by a newer build must be refused with a message
         naming the versions, not misreported as corruption. *)
      let header =
        let* m = read_str s pos (String.length magic) in
        if m <> magic then None
        else
          let* v = read_u16 s pos in
          if v <> version then Some (Error v)
          else
            let* rows = read_u32 s pos in
            let* len = read_u32 s pos in
            let* meta_len = read_u32 s pos in
            let* meta = read_str s pos meta_len in
            let body_end = !pos in
            let* crc = read_u32 s pos in
            if
              crc <> crc32 (Bytes.of_string (String.sub s 0 body_end))
            then None
            else Some (Ok (rows, len, meta))
      in
      match header with
      | None ->
          Error
            (Printf.sprintf "%s: not a checkpoint store (bad or torn header)"
               path)
      | Some (Error v) when v > version ->
          Error
            (Printf.sprintf
               "%s: checkpoint store format version %d is newer than this \
                build supports (up to %d); refusing to guess at its layout"
               path v version)
      | Some (Error v) ->
          Error
            (Printf.sprintf
               "%s: unsupported checkpoint store format version %d (this \
                build reads version %d)"
               path v version)
      | Some (Ok (rows, len, meta)) ->
          let groups = ref [] in
          let torn = ref false in
          let stop = ref false in
          while (not !stop) && !pos < String.length s do
            match parse_record ~rows ~len s pos with
            | Some ((lo, hi, _) as g) when not (overlaps ~lo ~hi !groups) ->
                groups := g :: !groups
            | Some _ | None ->
                (* Torn or corrupt record, or rows an earlier record
                   already holds: drop it and the rest. *)
                torn := true;
                stop := true
          done;
          Ok
            {
              l_rows = rows;
              l_len = len;
              l_meta = meta;
              l_groups = List.rev !groups;
              l_torn = !torn;
            })

let reopen ~path =
  match load ~path with
  | Error e -> Error e
  | Ok l ->
      let t =
        {
          st_path = path;
          st_rows = l.l_rows;
          st_len = l.l_len;
          st_meta = l.l_meta;
          records = List.rev l.l_groups;
          n_records = List.length l.l_groups;
        }
      in
      (* A torn tail was dropped at parse time; re-persisting writes a
         clean snapshot so the damage never resurfaces. *)
      if l.l_torn then persist t;
      Ok (t, l)

let pp_loaded fmt l =
  let rows_covered =
    let seen = Array.make l.l_rows false in
    List.iter
      (fun (lo, hi, _) ->
        for r = lo to hi - 1 do
          seen.(r) <- true
        done)
      l.l_groups;
    Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 seen
  in
  Format.fprintf fmt
    "checkpoint store: %d/%d rows durable in %d commit%s (len %d)%s%s"
    rows_covered l.l_rows
    (List.length l.l_groups)
    (if List.length l.l_groups = 1 then "" else "s")
    l.l_len
    (if l.l_meta = "" then "" else Printf.sprintf ", meta %S" l.l_meta)
    (if l.l_torn then ", TORN TAIL DROPPED" else "")
