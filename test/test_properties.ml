(* Property-based tests (QCheck) of the core invariants, using exact
   integer data paths so floating-point rounding cannot mask bugs. *)

open Ascend

(* Generator: small non-negative int8 values as floats. *)
let small_mask_array =
  QCheck.Gen.(
    let* n = int_range 1 3000 in
    array_size (return n) (map (fun b -> if b then 1.0 else 0.0) bool))

let small_int_array =
  QCheck.Gen.(
    let* n = int_range 1 3000 in
    array_size (return n) (map float_of_int (int_range (-5) 5)))

let arb_mask = QCheck.make ~print:(fun a -> string_of_int (Array.length a)) small_mask_array
let arb_ints = QCheck.make ~print:(fun a -> string_of_int (Array.length a)) small_int_array

let run_i8_scan ?(exclusive = false) data =
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.I8 ~name:"x" data in
  let y, _ = Scan.Mcscan.run ~exclusive dev x in
  Array.init (Array.length data) (Global_tensor.get y)

let prop_scan_matches_reference =
  QCheck.Test.make ~name:"mcscan i8 = reference (exact)" ~count:60 arb_ints
    (fun data -> run_i8_scan data = Scan.Reference.inclusive_scan data)

let prop_exclusive_is_shifted_inclusive =
  QCheck.Test.make ~name:"exclusive = shift of inclusive" ~count:40 arb_ints
    (fun data ->
      let inc = run_i8_scan data and exc = run_i8_scan ~exclusive:true data in
      let n = Array.length data in
      exc.(0) = 0.0
      && Array.for_all Fun.id (Array.init (n - 1) (fun i -> exc.(i + 1) = inc.(i))))

let prop_scan_last_is_sum =
  QCheck.Test.make ~name:"last scan value = sum" ~count:40 arb_ints
    (fun data ->
      let y = run_i8_scan data in
      y.(Array.length data - 1) = Scan.Reference.sum data)

let prop_scan_of_concat =
  QCheck.Test.make ~name:"scan(a ++ b) tail = scan(b) + sum(a)" ~count:30
    (QCheck.pair arb_ints arb_ints) (fun (a, b) ->
      let y = run_i8_scan (Array.append a b) in
      let yb = run_i8_scan b in
      let sa = Scan.Reference.sum a in
      Array.for_all Fun.id
        (Array.init (Array.length b) (fun i ->
             y.(Array.length a + i) = yb.(i) +. sa)))

let prop_split_is_stable_permutation =
  QCheck.Test.make ~name:"split = stable permutation" ~count:40
    (QCheck.pair arb_ints arb_mask) (fun (values, flags) ->
      let n = min (Array.length values) (Array.length flags) in
      QCheck.assume (n > 0);
      let values = Array.sub values 0 n and flags = Array.sub flags 0 n in
      let dev = Device.create () in
      let x = Device.of_array dev Dtype.I16 ~name:"x" values in
      let f = Device.of_array dev Dtype.I8 ~name:"f" flags in
      let r = Ops.Split.run ~with_indices:true dev ~x ~flags:f () in
      let exp_vals, exp_idx = Scan.Reference.split values ~flags in
      let gi = Option.get r.Ops.Split.indices in
      Array.for_all Fun.id
        (Array.init n (fun i ->
             Global_tensor.get r.Ops.Split.values i = exp_vals.(i)
             && int_of_float (Global_tensor.get gi i) = exp_idx.(i))))

let prop_compress_count_is_popcount =
  QCheck.Test.make ~name:"compress count = popcount of mask" ~count:40
    arb_mask (fun mask ->
      let n = Array.length mask in
      let dev = Device.create () in
      let x =
        Device.of_array dev Dtype.F16 ~name:"x"
          (Array.init n (fun i -> float_of_int (i mod 100)))
      in
      let m = Device.of_array dev Dtype.I8 ~name:"m" mask in
      let r = Ops.Compress.run dev ~x ~mask:m () in
      r.Ops.Compress.count
      = Array.fold_left (fun a v -> if v <> 0.0 then a + 1 else a) 0 mask)

let prop_radix_sorts_u16 =
  let arb_u16 =
    QCheck.make
      ~print:(fun a -> string_of_int (Array.length a))
      QCheck.Gen.(
        let* n = int_range 1 2000 in
        array_size (return n) (map float_of_int (int_bound 0xFFFF)))
  in
  QCheck.Test.make ~name:"radix sort on u16 = sorted multiset" ~count:25
    arb_u16 (fun data ->
      let dev = Device.create () in
      let x = Device.of_array dev Dtype.U16 ~name:"x" data in
      let r = Ops.Radix_sort.run dev x in
      let got = Array.init (Array.length data) (Global_tensor.get r.Ops.Radix_sort.values) in
      let expect = Array.copy data in
      Array.sort Float.compare expect;
      got = expect)

let prop_radix_f16_matches_reference =
  let arb_f16 =
    QCheck.make
      ~print:(fun a -> string_of_int (Array.length a))
      QCheck.Gen.(
        let* n = int_range 1 1500 in
        array_size (return n)
          (map (fun u -> Fp16.round (float_of_int (u - 500) /. 8.0))
             (int_bound 1000)))
  in
  QCheck.Test.make ~name:"radix f16 = reference stable sort" ~count:25 arb_f16
    (fun data ->
      let dev = Device.create () in
      let x = Device.of_array dev Dtype.F16 ~name:"x" data in
      let r = Ops.Radix_sort.run dev x in
      let expect, _ = Scan.Reference.stable_sort_with_indices data in
      Array.init (Array.length data) (Global_tensor.get r.Ops.Radix_sort.values)
      = expect)

let prop_batched_equals_rowwise =
  QCheck.Test.make ~name:"batched scan = per-row scans" ~count:20
    (QCheck.pair (QCheck.int_range 1 12) (QCheck.int_range 1 700))
    (fun (batch, len) ->
      let data =
        Array.init (batch * len) (fun i -> float_of_int ((i * 13 mod 3) - 1))
      in
      let dev = Device.create () in
      let x = Device.of_array dev Dtype.F16 ~name:"xb" data in
      let y, _ = Scan.Batched_scan.run_u dev ~batch ~len x in
      let expect = Scan.Reference.batched_inclusive ~batch ~len data in
      Array.for_all Fun.id
        (Array.init (batch * len) (fun i -> Global_tensor.get y i = expect.(i))))

let prop_weighted_sample_in_support =
  QCheck.Test.make ~name:"weighted sample lands on positive weight" ~count:30
    (QCheck.pair arb_mask (QCheck.float_range 0.0 0.999))
    (fun (mask, theta) ->
      QCheck.assume (Array.exists (fun v -> v > 0.0) mask);
      let dev = Device.create () in
      let w = Device.of_array dev Dtype.F16 ~name:"w" mask in
      let idx, _ = Ops.Weighted_sampling.sample dev ~weights:w ~theta in
      idx >= 0 && idx < Array.length mask && mask.(idx) > 0.0)

let prop_scan_algos_agree =
  QCheck.Test.make ~name:"all sum-scan algorithms agree on exact data" ~count:15
    arb_ints (fun data ->
      let dev = Device.create () in
      let x = Device.of_array dev Dtype.F16 ~name:"x" data in
      (* Cross-kernel agreement only holds within one monoid: the
         registry also carries e.g. the max scan. *)
      let sum_algos =
        List.filter Scan.Op_registry.is_sum (Scan.Op_registry.unary_scans ())
      in
      let outs =
        List.map
          (fun algo ->
            let y, _ = Registry_util.run algo dev x in
            Array.init (Array.length data) (Global_tensor.get y))
          sum_algos
      in
      match outs with
      | first :: rest -> List.for_all (fun o -> o = first) rest
      | [] -> false)

let prop_max_scan_monotone_and_idempotent =
  QCheck.Test.make ~name:"max scan is monotone and idempotent" ~count:25
    arb_ints (fun data ->
      let dev = Device.create () in
      let x = Device.of_array dev Dtype.F32 ~name:"x" data in
      let y, _ = Scan.Max_scan.run dev x in
      let arr = Array.init (Array.length data) (Global_tensor.get y) in
      let monotone = ref true in
      Array.iteri (fun i v -> if i > 0 && v < arr.(i - 1) then monotone := false) arr;
      let y2t = Device.of_array dev Dtype.F32 ~name:"y" arr in
      let y2, _ = Scan.Max_scan.run dev y2t in
      !monotone
      && Array.init (Array.length data) (Global_tensor.get y2) = arr)

let prop_segmented_no_flags_is_plain_scan =
  QCheck.Test.make ~name:"segmented scan without flags = plain scan" ~count:20
    arb_ints (fun data ->
      let n = Array.length data in
      let dev = Device.create () in
      let x = Device.of_array dev Dtype.F16 ~name:"x" data in
      let f = Device.of_array dev Dtype.I8 ~name:"f" (Array.make n 0.0) in
      let y, _ = Scan.Segmented_scan.run dev ~x ~flags:f () in
      let expect = Scan.Reference.inclusive_scan data in
      Array.for_all Fun.id
        (Array.init n (fun i -> Global_tensor.get y i = expect.(i))))

let prop_segmented_concat_independence =
  QCheck.Test.make
    ~name:"segmented scan: segments are independent" ~count:20
    (QCheck.pair arb_ints arb_ints) (fun (a, b) ->
      let na = Array.length a and nb = Array.length b in
      let dev = Device.create () in
      let data = Array.append a b in
      let flags = Array.make (na + nb) 0.0 in
      flags.(0) <- 1.0;
      flags.(na) <- 1.0;
      let x = Device.of_array dev Dtype.F16 ~name:"x" data in
      let f = Device.of_array dev Dtype.I8 ~name:"f" flags in
      let y, _ = Scan.Segmented_scan.run dev ~x ~flags:f () in
      let ea = Scan.Reference.inclusive_scan a in
      let eb = Scan.Reference.inclusive_scan b in
      Array.for_all Fun.id (Array.init na (fun i -> Global_tensor.get y i = ea.(i)))
      && Array.for_all Fun.id
           (Array.init nb (fun i -> Global_tensor.get y (na + i) = eb.(i))))

let prop_cube_reduce_equals_vec_reduce =
  QCheck.Test.make ~name:"cube reduce = vec reduce = oracle" ~count:20
    arb_ints (fun data ->
      let dev = Device.create () in
      let x = Device.of_array dev Dtype.F16 ~name:"x" data in
      let a, _, _ = Scan.Cube_reduce.run_cube dev x in
      let b, _, _ = Scan.Cube_reduce.run_vec dev x in
      a = b && a = Scan.Reference.sum data)

let prop_radix_select_is_topk_multiset =
  QCheck.Test.make ~name:"radix select = top-k multiset" ~count:15
    (QCheck.pair arb_ints (QCheck.int_range 1 50)) (fun (data, k) ->
      let n = Array.length data in
      QCheck.assume (k <= n);
      let dev = Device.create () in
      let x = Device.of_array dev Dtype.F16 ~name:"x" data in
      let got, _ = Ops.Radix_select.run dev x ~k in
      let expect, _ = Scan.Reference.top_k data ~k in
      Array.init k (Global_tensor.get got) = expect)

let () =
  Alcotest.run "properties"
    [
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_scan_matches_reference;
            prop_exclusive_is_shifted_inclusive;
            prop_scan_last_is_sum;
            prop_scan_of_concat;
            prop_split_is_stable_permutation;
            prop_compress_count_is_popcount;
            prop_radix_sorts_u16;
            prop_radix_f16_matches_reference;
            prop_batched_equals_rowwise;
            prop_weighted_sample_in_support;
            prop_scan_algos_agree;
            prop_max_scan_monotone_and_idempotent;
            prop_segmented_no_flags_is_plain_scan;
            prop_segmented_concat_independence;
            prop_cube_reduce_equals_vec_reduce;
            prop_radix_select_is_topk_multiset;
          ] );
    ]
