(* Integration tests: every scan kernel against the reference oracle,
   across edge-case lengths, tile sizes, data types and variants. *)

open Ascend

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Sparse 0/1 inputs keep fp16 arithmetic exact for every kernel's
   rounding order as long as the total stays below 2049 (true up to
   n = 75 000 with a 1-in-37 density); the ternary pattern bounds all
   prefixes in [-1, 1]. *)
let input_01 n = Array.init n (fun i -> if i mod 37 = 0 then 1.0 else 0.0)

let input_ternary n =
  Array.init n (fun i -> float_of_int ((i * 11 mod 3) - 1))

let run_and_check ?(exclusive = false) ~name ~algo ?s data =
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let y, stats = Scan.Scan_api.run ?s ~exclusive ~algo dev x in
  (match
     Scan.Scan_api.check_scan ~round:Fp16.round ~exclusive ~algo
       ~dtype:Dtype.F16 ~input:data ~output:y ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e);
  check_bool (name ^ " time positive") true (stats.Stats.seconds > 0.0);
  stats

(* Entries running under the sum monoid — the ones whose outputs must
   agree bit-for-bit with each other on exact inputs. *)
let is_sum algo =
  match algo.Scan.Op_registry.monoid with
  | Some (module Op : Scan.Scan_op.S) -> String.equal Op.name "sum"
  | None -> false

let lengths = [ 1; 2; 127; 128; 129; 4095; 4096; 4097; 16384; 16385; 50000 ]

let algo_cases algo algo_name =
  List.map
    (fun n ->
      Alcotest.test_case (Printf.sprintf "%s n=%d" algo_name n) `Quick
        (fun () ->
          ignore (run_and_check ~name:algo_name ~algo (input_01 n));
          ignore (run_and_check ~name:algo_name ~algo (input_ternary n))))
    lengths

let small_s_cases algo algo_name =
  List.map
    (fun s ->
      Alcotest.test_case (Printf.sprintf "%s s=%d" algo_name s) `Quick
        (fun () ->
          ignore (run_and_check ~name:algo_name ~algo ~s (input_01 5000))))
    [ 16; 32; 64; 128 ]

let test_exclusive_mcscan () =
  List.iter
    (fun n ->
      ignore
        (run_and_check ~exclusive:true ~name:"mcscan excl"
           ~algo:(Scan.Scan_api.get "mcscan")
           (input_01 n)))
    [ 1; 2; 128; 4097; 50000 ]

let test_exclusive_unsupported () =
  (* Capability violations surface uniformly as [Error] from the
     registry for every non-supporting entry, and as [Invalid_argument]
     through the legacy [Scan_api.run] wrapper. *)
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" (input_01 16) in
  let cfg =
    { Scan.Op_registry.default_config with Scan.Op_registry.exclusive = true }
  in
  List.iter
    (fun algo ->
      let name = Scan.Scan_api.algo_to_string algo in
      if not algo.Scan.Op_registry.caps.Scan.Op_registry.exclusive then begin
        (match
           Scan.Op_registry.run algo cfg dev (Scan.Op_registry.Tensor x)
         with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "%s: exclusive accepted" name);
        check_bool (name ^ " exclusive raises via Scan_api") true
          (try
             ignore (Scan.Scan_api.run ~exclusive:true ~algo dev x);
             false
           with Invalid_argument _ -> true)
      end)
    Scan.Scan_api.all_algos

let test_int8_mcscan () =
  let dev = Device.create () in
  List.iter
    (fun n ->
      let data = Array.init n (fun i -> if i mod 2 = 0 then 1.0 else 0.0) in
      let x = Device.of_array dev Dtype.I8 ~name:"mask" data in
      let y, _ = Scan.Mcscan.run dev x in
      check_bool "output dtype i32" true
        (Dtype.equal (Global_tensor.dtype y) Dtype.I32);
      let expect = Scan.Reference.inclusive_scan data in
      for i = 0 to n - 1 do
        if Global_tensor.get y i <> expect.(i) then
          Alcotest.failf "i8 scan n=%d idx=%d: %g <> %g" n i
            (Global_tensor.get y i) expect.(i)
      done)
    [ 1; 130; 16384; 100000 ]

let test_int8_values_beyond_f16 () =
  (* 70000 ones: the int32 outputs exceed both int16 and fp16 integer
     exactness; the i32 path must stay exact. *)
  let n = 70000 in
  let dev = Device.create () in
  let data = Array.make n 1.0 in
  let x = Device.of_array dev Dtype.I8 ~name:"ones" data in
  let y, _ = Scan.Mcscan.run dev x in
  Alcotest.(check (float 0.0)) "last" (float_of_int n) (Global_tensor.get y (n - 1))

let test_int8_negative_values () =
  let n = 3000 in
  let dev = Device.create () in
  let data = Array.init n (fun i -> float_of_int ((i mod 11) - 5)) in
  let x = Device.of_array dev Dtype.I8 ~name:"signed" data in
  let y, _ = Scan.Mcscan.run dev x in
  let expect = Scan.Reference.inclusive_scan data in
  for i = 0 to n - 1 do
    if Global_tensor.get y i <> expect.(i) then
      Alcotest.failf "signed i8 idx=%d: %g <> %g" i (Global_tensor.get y i)
        expect.(i)
  done

let test_mcscan_block_counts () =
  List.iter
    (fun blocks ->
      let dev = Device.create () in
      let data = input_01 40000 in
      let x = Device.of_array dev Dtype.F16 ~name:"x" data in
      let y, _ = Scan.Mcscan.run ~blocks dev x in
      match
        Scan.Scan_api.check_against_reference ~round:Fp16.round ~input:data
          ~output:y ()
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "blocks=%d: %s" blocks e)
    [ 1; 2; 3; 7; 20; 33 ]

let test_all_algorithms_agree () =
  let data = input_01 30000 in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let outputs =
    List.map
      (fun algo -> fst (Scan.Scan_api.run ~algo dev x))
      (List.filter is_sum Scan.Scan_api.all_algos)
  in
  match outputs with
  | first :: rest ->
      List.iteri
        (fun j y ->
          for i = 0 to 29999 do
            if Global_tensor.get y i <> Global_tensor.get first i then
              Alcotest.failf "algo %d disagrees at %d" j i
          done)
        rest
  | [] -> Alcotest.fail "no algorithms"

let test_validation_errors () =
  let dev = Device.create () in
  let xi = Device.of_array dev Dtype.I32 ~name:"xi" [| 1.0 |] in
  check_bool "scanu wrong dtype" true
    (try
       ignore (Scan.Scan_u.run dev xi);
       false
     with Invalid_argument _ -> true);
  check_bool "mcscan odd s" true
    (try
       let x = Device.of_array dev Dtype.F16 ~name:"x" [| 1.0 |] in
       ignore (Scan.Mcscan.run ~s:3 dev x);
       false
     with Invalid_argument _ -> true)

let test_traffic_accounting () =
  (* Every scan must read at least N and write at least N elements. *)
  let n = 20000 in
  let data = input_01 n in
  List.iter
    (fun algo ->
      let dev = Device.create () in
      let x = Device.of_array dev Dtype.F16 ~name:"x" data in
      let _, st = Scan.Scan_api.run ~algo dev x in
      check_bool
        (Scan.Scan_api.algo_to_string algo ^ " reads >= input")
        true
        (st.Stats.gm_read_bytes >= 2 * n);
      check_bool
        (Scan.Scan_api.algo_to_string algo ^ " writes >= output")
        true
        (st.Stats.gm_write_bytes >= 2 * n))
    Scan.Scan_api.all_algos

let test_vec_only_tile_shapes () =
  let data = input_01 20000 in
  List.iter
    (fun (rows, cols) ->
      let dev = Device.create () in
      let x = Device.of_array dev Dtype.F16 ~name:"x" data in
      let y, _ = Scan.Scan_vec_only.run ~rows ~cols dev x in
      match
        Scan.Scan_api.check_against_reference ~round:Fp16.round ~input:data
          ~output:y ()
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "rows=%d cols=%d: %s" rows cols e)
    [ (32, 32); (64, 64); (128, 128); (64, 256); (1, 512) ]

let test_instruction_mix () =
  (* Structural assertions via the per-launch instruction mix: ScanU
     issues one Mmad per s^2-tile, ScanUL1 exactly three. *)
  let n = 5 * 128 * 128 in
  let data = input_01 n in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let _, st_u = Scan.Scan_u.run dev x in
  check_int "scanu mmads" 5 (Stats.op_count st_u "mmad");
  let _, st_l = Scan.Scan_ul1.run dev x in
  check_int "scanul1 mmads" 15 (Stats.op_count st_l "mmad");
  (* The vec-only baseline never touches the cube. *)
  let _, st_v = Scan.Scan_vec_only.run dev x in
  check_int "vec-only has no mmad" 0 (Stats.op_count st_v "mmad");
  check_bool "vec-only uses cumsum api" true
    (Stats.op_count st_v "cumsum_api" > 0);
  (* MCScan: one mmad per tile plus vector reductions in phase I. *)
  let _, st_m = Scan.Mcscan.run dev x in
  check_int "mcscan mmads" 5 (Stats.op_count st_m "mmad");
  check_bool "mcscan reduces" true (Stats.op_count st_m "reduce_sum" > 0)

let test_algo_names_roundtrip () =
  List.iter
    (fun a ->
      match Scan.Scan_api.(algo_of_string (algo_to_string a)) with
      | Some b when Scan.Op_registry.equal b a -> ()
      | _ -> Alcotest.fail "name roundtrip")
    Scan.Scan_api.all_algos;
  check_int "unknown" 0
    (match Scan.Scan_api.algo_of_string "nope" with Some _ -> 1 | None -> 0)

(* dist_scan's oracle: on 0/1 inputs every partial sum is exact in
   fp16, so the sharded scan equals the single-device MCScan bit for
   bit at any device count. *)
let bits_of y =
  Array.init (Global_tensor.length y) (fun i ->
      Int64.bits_of_float (Global_tensor.get y i))

let sevenths n seed =
  Array.init n (fun i -> if (i + seed) mod 7 = 0 then 1.0 else 0.0)

let single_device_scan input =
  let dev = Device.create () in
  fst (Scan.Mcscan.run dev (Device.of_array dev Dtype.F16 ~name:"x" input))

let prop_dist_equals_single =
  let arb =
    QCheck.make
      ~print:(fun (n, seed, d) ->
        Printf.sprintf "n=%d seed=%d devices=%d" n seed d)
      QCheck.Gen.(triple (int_range 1 3000) (int_range 0 100) (int_range 1 8))
  in
  QCheck.Test.make ~name:"dist_scan(d devices) = single-device" ~count:40
    arb (fun (n, seed, d) ->
      let input = sevenths n seed in
      let dev = Device.create () in
      let x = Device.of_array dev Dtype.F16 ~name:"x" input in
      let y, _ = Scan.Dist_scan.run ~devices:d dev x in
      bits_of (single_device_scan input) = bits_of y)

let test_registry_dist_scan () =
  let e = Option.get (Scan.Op_registry.find "dist_scan") in
  let input = sevenths 777 1 in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" input in
  let cfg =
    { Scan.Op_registry.default_config with Scan.Op_registry.devices = Some 3 }
  in
  (match Scan.Op_registry.run e cfg dev (Scan.Op_registry.Tensor x) with
  | Ok (out, _) ->
      check_bool "registry path bit-identical" true
        (bits_of (single_device_scan input)
        = bits_of (Option.get out.Scan.Op_registry.y))
  | Error e -> Alcotest.failf "registry run failed: %s" e);
  List.iter
    (fun (d, expect) ->
      match
        Scan.Op_registry.run e
          { cfg with Scan.Op_registry.devices = Some d }
          dev (Scan.Op_registry.Tensor x)
      with
      | Error msg -> Alcotest.(check string) "validation message" expect msg
      | Ok _ -> Alcotest.failf "devices=%d accepted" d)
    [
      (0, "devices: device count must be >= 1 (got 0)");
      (778, "devices: device count must be at most the input length 777 (got 778)");
      ( max_int,
        Printf.sprintf
          "devices: device count must be at most the input length 777 (got %d)"
          max_int );
    ]

let test_dist_rejects_zero_devices () =
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" (sevenths 64 0) in
  Alcotest.check_raises "devices=0"
    (Invalid_argument "Dist_scan.run: devices must be >= 1 (got 0)")
    (fun () -> ignore (Scan.Dist_scan.run ~devices:0 dev x))

let dist_scan_cases =
  [
    QCheck_alcotest.to_alcotest prop_dist_equals_single;
    Alcotest.test_case "registry entry" `Quick test_registry_dist_scan;
    Alcotest.test_case "rejects zero devices" `Quick
      test_dist_rejects_zero_devices;
  ]

(* The per-algorithm correctness matrix enumerates the registry: a new
   unary scan entry joins every length (and, where meaningful, tile
   size) case with no edit here. *)
let small_s_algos = [ "scanu"; "scanul1"; "mcscan" ]

let per_algo_suites =
  List.map
    (fun algo ->
      let name = Scan.Scan_api.algo_to_string algo in
      let cases =
        algo_cases algo name
        @
        if List.mem name small_s_algos then small_s_cases algo name else []
      in
      let cases = if name = "dist_scan" then cases @ dist_scan_cases else cases in
      (name, cases))
    Scan.Scan_api.all_algos

let () =
  Alcotest.run "scans"
    (per_algo_suites
    @ [
      ( "variants",
        [
          Alcotest.test_case "mcscan exclusive" `Quick test_exclusive_mcscan;
          Alcotest.test_case "exclusive unsupported" `Quick
            test_exclusive_unsupported;
          Alcotest.test_case "int8 masks" `Quick test_int8_mcscan;
          Alcotest.test_case "int8 beyond f16 range" `Quick
            test_int8_values_beyond_f16;
          Alcotest.test_case "int8 negatives" `Quick test_int8_negative_values;
          Alcotest.test_case "block counts" `Quick test_mcscan_block_counts;
          Alcotest.test_case "algorithms agree" `Quick
            test_all_algorithms_agree;
          Alcotest.test_case "validation" `Quick test_validation_errors;
          Alcotest.test_case "traffic accounting" `Quick
            test_traffic_accounting;
          Alcotest.test_case "cumsum tile shapes" `Quick
            test_vec_only_tile_shapes;
          Alcotest.test_case "instruction mix" `Quick test_instruction_mix;
          Alcotest.test_case "algo names" `Quick test_algo_names_roundtrip;
        ] );
      ])
