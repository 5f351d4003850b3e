(* Tests of the row-granular Checkpoint and the crash-consistent
   Checkpoint_store: pending/done bookkeeping under random mark
   interleavings (QCheck), serialization roundtrips with torn-tail
   recovery, the on-disk format pinned by a literal file, the CRC-32
   check value, and byte mutations that must never make [load]
   raise. *)

open Runtime

(* Generator: a row count plus a random sequence of valid [lo, hi)
   mark ranges over it (possibly overlapping and repeated). *)
let marks_gen =
  QCheck.Gen.(
    let* rows = int_range 1 64 in
    let* n = int_range 0 24 in
    let* ranges =
      list_size (return n)
        (let* lo = int_range 0 (rows - 1) in
         let* hi = int_range (lo + 1) rows in
         return (lo, hi))
    in
    return (rows, ranges))

let print_marks (rows, ranges) =
  Printf.sprintf "rows=%d marks=[%s]" rows
    (String.concat ";"
       (List.map (fun (lo, hi) -> Printf.sprintf "%d,%d" lo hi) ranges))

let arb_marks = QCheck.make ~print:print_marks marks_gen

let replay (rows, ranges) =
  let ck = Checkpoint.create ~rows in
  List.iter (fun (lo, hi) -> Checkpoint.mark ck ~lo ~hi) ranges;
  ck

(* The model: a plain bool array driven by the same mark sequence. *)
let model (rows, ranges) =
  let done_ = Array.make rows false in
  List.iter
    (fun (lo, hi) ->
      for r = lo to hi - 1 do
        done_.(r) <- true
      done)
    ranges;
  done_

let prop_done_matches_model =
  QCheck.Test.make ~name:"is_done/done_count match a bool-array model"
    ~count:200 arb_marks (fun ((rows, _) as case) ->
      let ck = replay case in
      let m = model case in
      let expected = Array.fold_left (fun a d -> if d then a + 1 else a) 0 m in
      Checkpoint.done_count ck = expected
      && Checkpoint.complete ck = (expected = rows)
      && Array.for_all Fun.id
           (Array.init rows (fun r -> Checkpoint.is_done ck r = m.(r))))

let prop_pending_covers_undone =
  QCheck.Test.make
    ~name:"pending = exactly the un-done rows, disjoint and ascending"
    ~count:200
    (QCheck.pair arb_marks (QCheck.int_range 1 16))
    (fun (((rows, _) as case), granularity) ->
      let ck = replay case in
      let m = model case in
      let groups = Checkpoint.pending ck ~granularity in
      let covered = Array.make rows false in
      let ok = ref true in
      let last_hi = ref (-1) in
      List.iter
        (fun (lo, hi) ->
          if lo < !last_hi then ok := false;
          last_hi := hi;
          if lo < 0 || hi > rows || lo >= hi then ok := false;
          if hi - lo > granularity then ok := false;
          for r = lo to hi - 1 do
            if covered.(r) || m.(r) then ok := false;
            covered.(r) <- true
          done)
        groups;
      (* every un-done row is covered *)
      Array.iteri (fun r d -> if (not d) && not covered.(r) then ok := false) m;
      !ok)

let prop_commits_counts_marks =
  QCheck.Test.make ~name:"commits counts mark calls" ~count:100 arb_marks
    (fun ((_, ranges) as case) ->
      Checkpoint.commits (replay case) = List.length ranges)

(* Store roundtrip: commit random groups with random payloads, reload,
   and require the exact (bit-level) groups back in commit order. A
   store's groups are row-disjoint, so a case commits some of the
   pieces of a random partition of the rows, in random order. *)
let rec adjacent_pairs = function
  | a :: (b :: _ as rest) -> (a, b) :: adjacent_pairs rest
  | _ -> []

let store_case_gen =
  QCheck.Gen.(
    let* rows = int_range 1 16 in
    let* len = int_range 1 8 in
    let* cuts = list_size (int_range 0 8) (int_range 1 rows) in
    let* pieces =
      shuffle_l (adjacent_pairs (List.sort_uniq compare ((0 :: cuts) @ [ rows ])))
    in
    let* n = int_range 0 (List.length pieces) in
    let* groups =
      flatten_l
        (List.filteri (fun i _ -> i < n) pieces
        |> List.map (fun (lo, hi) ->
               map
                 (fun values -> (lo, hi, values))
                 (array_size
                    (return ((hi - lo) * len))
                    (map (fun f -> Ascend.Fp16.round f) (float_range (-8.0) 8.0)))))
    in
    return (rows, len, groups))

let print_store_case (rows, len, groups) =
  Printf.sprintf "rows=%d len=%d groups=%d" rows len (List.length groups)

let arb_store_case = QCheck.make ~print:print_store_case store_case_gen

let with_temp_store f =
  let path = Filename.temp_file "test_ckpt_" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    (fun () -> f path)

let prop_store_roundtrip =
  QCheck.Test.make ~name:"store roundtrip is exact and ordered" ~count:60
    arb_store_case (fun (rows, len, groups) ->
      with_temp_store (fun path ->
          let st = Checkpoint_store.create ~path ~rows ~len ~meta:"m" () in
          List.iter
            (fun (lo, hi, values) -> Checkpoint_store.commit st ~lo ~hi ~values)
            groups;
          match Checkpoint_store.load ~path with
          | Error _ -> false
          | Ok l ->
              l.Checkpoint_store.l_rows = rows
              && l.Checkpoint_store.l_len = len
              && l.Checkpoint_store.l_meta = "m"
              && (not l.Checkpoint_store.l_torn)
              && l.Checkpoint_store.l_groups = groups))

(* Torn-write recovery: truncating the file anywhere strictly inside
   the record region must never error, and must yield a prefix of the
   committed groups. *)
let prop_store_torn_tail_is_prefix =
  QCheck.Test.make ~name:"any truncation yields a clean prefix" ~count:60
    (QCheck.pair arb_store_case (QCheck.int_range 0 1000))
    (fun ((rows, len, groups), cut_salt) ->
      QCheck.assume (groups <> []);
      with_temp_store (fun path ->
          let st = Checkpoint_store.create ~path ~rows ~len () in
          List.iter
            (fun (lo, hi, values) -> Checkpoint_store.commit st ~lo ~hi ~values)
            groups;
          let full = In_channel.with_open_bin path In_channel.input_all in
          let header_len =
            (* magic + version + rows + len + meta_len + crc *)
            String.length "ASCKPT" + 2 + 4 + 4 + 4 + 4
          in
          let body = String.length full - header_len in
          let cut = header_len + (cut_salt mod max 1 body) in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (String.sub full 0 cut));
          match Checkpoint_store.load ~path with
          | Error _ -> false
          | Ok l ->
              let k = List.length l.Checkpoint_store.l_groups in
              k <= List.length groups
              && l.Checkpoint_store.l_groups
                 = List.filteri (fun i _ -> i < k) groups))

(* Byte mutations of a whole store file: bit flips, records swapped,
   a record duplicated. [load] must return a typed error or pairwise
   row-disjoint groups whose records passed their CRC (each one a
   committed group), and never raise; a reopened store counts exactly
   those groups as its commits. Swapped records are intact, so they
   load as exactly the swapped sequence. A duplicated record overlaps
   its original, so it is dropped as a damaged tail. *)
let header_len meta = String.length "ASCKPT" + 2 + 4 + 4 + 4 + String.length meta + 4
let record_len len (lo, hi, _) = 12 + ((hi - lo) * len * 8) + 4

type mutation = Flip of int list | Swap of int * int | Dup of int

let print_mutation = function
  | Flip bits ->
      Printf.sprintf "flip bits [%s]"
        (String.concat ";" (List.map string_of_int bits))
  | Swap (i, j) -> Printf.sprintf "swap records %d,%d" i j
  | Dup i -> Printf.sprintf "duplicate record %d" i

let mutation_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun l -> Flip l) (list_size (int_range 1 4) (int_range 0 100_000));
        map2 (fun i j -> Swap (i, j)) (int_range 0 100) (int_range 0 100);
        map (fun i -> Dup i) (int_range 0 100);
      ])

let bits_of_group (lo, hi, v) = (lo, hi, Array.map Int64.bits_of_float v)

let prop_store_mutations_never_raise =
  QCheck.Test.make ~name:"mutated store bytes: typed error or CRC-valid groups"
    ~count:150
    (QCheck.pair arb_store_case (QCheck.make ~print:print_mutation mutation_gen))
    (fun ((rows, len, groups), mutation) ->
      QCheck.assume (groups <> []);
      with_temp_store (fun path ->
          let st = Checkpoint_store.create ~path ~rows ~len ~meta:"mut" () in
          List.iter
            (fun (lo, hi, values) -> Checkpoint_store.commit st ~lo ~hi ~values)
            groups;
          let full = In_channel.with_open_bin path In_channel.input_all in
          let h = header_len "mut" in
          let records =
            let pos = ref h in
            List.map
              (fun g ->
                let r = String.sub full !pos (record_len len g) in
                pos := !pos + String.length r;
                r)
              groups
          in
          let k = List.length groups in
          let pick l idx = List.filteri (fun i _ -> i = idx mod k) l in
          let bytes, expected =
            match mutation with
            | Flip bits ->
                let b = Bytes.of_string full in
                List.iter
                  (fun bit ->
                    let bit = bit mod (Bytes.length b * 8) in
                    let i = bit / 8 in
                    Bytes.set b i
                      (Char.chr
                         (Char.code (Bytes.get b i) lxor (1 lsl (bit land 7)))))
                  bits;
                (Bytes.to_string b, None)
            | Swap (i, j) ->
                let i = i mod k and j = j mod k in
                let order =
                  List.init k (fun x ->
                      if x = i then j else if x = j then i else x)
                in
                let perm l = List.map (fun x -> List.nth l x) order in
                ( String.sub full 0 h ^ String.concat "" (perm records),
                  Some (perm groups) )
            | Dup i -> (full ^ String.concat "" (pick records i), Some groups)
          in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc bytes);
          let committed = List.map bits_of_group groups in
          match Checkpoint_store.load ~path with
          | exception e ->
              QCheck.Test.fail_reportf "load raised %s" (Printexc.to_string e)
          | Error _ -> expected = None
          | Ok l ->
              let groups = l.Checkpoint_store.l_groups in
              let got = List.map bits_of_group groups in
              let rec disjoint = function
                | [] -> true
                | (lo, hi, _) :: rest ->
                    List.for_all (fun (lo', hi', _) -> hi <= lo' || hi' <= lo) rest
                    && disjoint rest
              in
              let commits_after_reopen =
                match Checkpoint_store.reopen ~path with
                | Ok (st, _) -> Checkpoint_store.commits st
                | Error _ -> -1
              in
              disjoint groups
              && commits_after_reopen = List.length groups
              && (match (expected, mutation) with
                 | Some e, Dup _ ->
                     l.Checkpoint_store.l_torn && got = List.map bits_of_group e
                 | Some e, _ -> got = List.map bits_of_group e
                 | None, _ -> List.for_all (fun g -> List.mem g committed) got)))

(* The standard check value of IEEE 802.3 CRC-32 over the ASCII
   digits 1..9. *)
let test_crc32_check_value () =
  Alcotest.(check int)
    "crc32 \"123456789\"" 0xCBF43926
    (Checkpoint_store.crc32 (Bytes.of_string "123456789"));
  Alcotest.(check int) "crc32 \"\"" 0 (Checkpoint_store.crc32 Bytes.empty)

let has needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A valid-magic header one version ahead is refused with a message
   naming the versions, never misparsed as corruption. *)
let test_store_refuses_newer_version () =
  with_temp_store (fun path ->
      let buf = Buffer.create 64 in
      Buffer.add_string buf "ASCKPT";
      let add_u16 v =
        Buffer.add_char buf (Char.chr (v land 0xFF));
        Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))
      in
      let add_u32 v =
        add_u16 (v land 0xFFFF);
        add_u16 ((v lsr 16) land 0xFFFF)
      in
      add_u16 (Checkpoint_store.version + 1);
      add_u32 4;
      add_u32 8;
      add_u32 0;
      add_u32 (Checkpoint_store.crc32 (Buffer.to_bytes buf));
      Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf);
      match Checkpoint_store.load ~path with
      | Ok _ -> Alcotest.fail "newer-versioned store accepted"
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "names the version (%s)" msg)
            true
            (has "newer than this build" msg))

(* A version-1 store written by an earlier build: a 3x2 store with
   meta "v1", rows 1-3 committed, then row 0. It must load, and the
   same commits must write the same bytes today. *)
let v1_store =
  "\x41\x53\x43\x4b\x50\x54\x01\x00\x03\x00\x00\x00\x02\x00\x00\x00\
   \x02\x00\x00\x00\x76\x31\xc9\x5d\x44\xd2\x01\x00\x00\x00\x03\x00\
   \x00\x00\x20\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00\
   \x00\x00\x00\x00\x04\x40\x00\x00\x00\x00\x00\x00\xe0\xbf\x00\x00\
   \x00\x00\x00\xfc\xef\x40\x87\xfa\x8c\xc6\x00\x00\x00\x00\x01\x00\
   \x00\x00\x10\x00\x00\x00\x00\x00\x00\x00\x00\x00\xc0\x3f\x00\x00\
   \x00\x00\x00\x00\x08\xc0\xf1\xf0\x19\x3b"

let test_store_loads_v1_file () =
  let v1_groups =
    [ (1, 3, [| 1.0; 2.5; -0.5; 65504.0 |]); (0, 1, [| 0.125; -3.0 |]) ]
  in
  with_temp_store (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc v1_store);
      (match Checkpoint_store.load ~path with
      | Error e -> Alcotest.failf "v1 store rejected: %s" e
      | Ok l ->
          Alcotest.(check (triple int int string))
            "rows, len, meta" (3, 2, "v1")
            (l.Checkpoint_store.l_rows, l.l_len, l.l_meta);
          Alcotest.(check bool) "not torn" false l.l_torn;
          Alcotest.(check bool) "groups" true (l.l_groups = v1_groups));
      let st = Checkpoint_store.create ~path ~rows:3 ~len:2 ~meta:"v1" () in
      List.iter
        (fun (lo, hi, values) -> Checkpoint_store.commit st ~lo ~hi ~values)
        v1_groups;
      Alcotest.(check string)
        "same bytes written" v1_store
        (In_channel.with_open_bin path In_channel.input_all))

let () =
  Alcotest.run "checkpoint"
    [
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_done_matches_model;
            prop_pending_covers_undone;
            prop_commits_counts_marks;
            prop_store_roundtrip;
            prop_store_torn_tail_is_prefix;
            prop_store_mutations_never_raise;
          ] );
      ( "store",
        [
          Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
          Alcotest.test_case "refuses newer version" `Quick
            test_store_refuses_newer_version;
          Alcotest.test_case "loads a version-1 file" `Quick
            test_store_loads_v1_file;
        ] );
    ]
