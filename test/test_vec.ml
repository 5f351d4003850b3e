(* Unit tests of the vector (AIV) engine operations. *)

open Ascend

let check_float = Alcotest.(check (float 0.0))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ctx () =
  let dev = Device.create () in
  Block.make ~device:dev ~idx:0 ~num_blocks:1

let ub ?(dt = Dtype.F16) ?(n = 16) c = Block.alloc c (Mem_kind.Ub 0) dt n

let load t a = Array.iteri (fun i v -> Local_tensor.set t i v) a
let dump t n = Array.init n (Local_tensor.get t)

let test_binops () =
  let c = ctx () in
  let a = ub c and b = ub c and d = ub c in
  load a [| 1.0; 2.0; 3.0; 4.0 |];
  load b [| 4.0; 3.0; 2.0; 1.0 |];
  Vec.binop c Vec.Add ~src0:a ~src1:b ~dst:d ~len:4 ();
  Alcotest.(check (array (float 0.0))) "add" [| 5.0; 5.0; 5.0; 5.0 |] (dump d 4);
  Vec.binop c Vec.Sub ~src0:a ~src1:b ~dst:d ~len:4 ();
  check_float "sub" (-3.0) (Local_tensor.get d 0);
  Vec.binop c Vec.Mul ~src0:a ~src1:b ~dst:d ~len:4 ();
  check_float "mul" 6.0 (Local_tensor.get d 1);
  Vec.binop c Vec.Max ~src0:a ~src1:b ~dst:d ~len:4 ();
  check_float "max" 4.0 (Local_tensor.get d 0);
  Vec.binop c Vec.Min ~src0:a ~src1:b ~dst:d ~len:4 ();
  check_float "min" 1.0 (Local_tensor.get d 0)

let test_binop_rounds_to_dtype () =
  let c = ctx () in
  let a = ub c and b = ub c and d = ub c in
  load a [| 2048.0 |];
  load b [| 1.0 |];
  Vec.add c ~src0:a ~src1:b ~dst:d ~len:1 ();
  check_float "fp16 rounding applied" 2048.0 (Local_tensor.get d 0)

let test_scalar_ops () =
  let c = ctx () in
  let a = ub c and d = ub c in
  load a [| 1.0; -2.0; 3.0 |];
  Vec.adds c ~src:a ~dst:d ~scalar:10.0 ~len:3 ();
  check_float "adds" 8.0 (Local_tensor.get d 1);
  Vec.muls c ~src:a ~dst:d ~scalar:2.0 ~len:3 ();
  check_float "muls" (-4.0) (Local_tensor.get d 1);
  Vec.maxs c ~src:a ~dst:d ~scalar:0.0 ~len:3 ();
  check_float "maxs (relu)" 0.0 (Local_tensor.get d 1);
  Vec.mins c ~src:a ~dst:d ~scalar:0.0 ~len:3 ();
  check_float "mins" 0.0 (Local_tensor.get d 2);
  Vec.exp c ~src:a ~dst:d ~len:1 ();
  check_float "exp" (Fp16.round (Stdlib.exp 1.0)) (Local_tensor.get d 0)

let test_offsets () =
  let c = ctx () in
  let a = ub c and d = ub c in
  load a [| 1.0; 2.0; 3.0; 4.0 |];
  Vec.adds c ~src:a ~src_off:2 ~dst:d ~dst_off:1 ~scalar:1.0 ~len:2 ();
  check_float "offset result" 4.0 (Local_tensor.get d 1);
  check_float "offset result2" 5.0 (Local_tensor.get d 2);
  check_float "untouched" 0.0 (Local_tensor.get d 0)

let test_compare_select () =
  let c = ctx () in
  let a = ub c and b = ub c in
  let m = ub ~dt:Dtype.I8 c in
  let d = ub c in
  load a [| 1.0; 5.0; 3.0 |];
  load b [| 2.0; 2.0; 3.0 |];
  Vec.compare_scalar c Vec.Ge ~src:a ~dst:m ~scalar:3.0 ~len:3 ();
  Alcotest.(check (array (float 0.0))) "cmp scalar" [| 0.0; 1.0; 1.0 |] (dump m 3);
  Vec.compare c Vec.Gt ~src0:a ~src1:b ~dst:m ~len:3 ();
  Alcotest.(check (array (float 0.0))) "cmp tensors" [| 0.0; 1.0; 0.0 |] (dump m 3);
  Vec.select c ~mask:m ~src0:a ~src1:b ~dst:d ~len:3 ();
  Alcotest.(check (array (float 0.0))) "select" [| 2.0; 5.0; 3.0 |] (dump d 3)

let test_bitwise () =
  let c = ctx () in
  let a = ub ~dt:Dtype.U16 c and d = ub ~dt:Dtype.U16 c in
  load a [| 12.0 |];
  Vec.shift_right c ~src:a ~dst:d ~bits:2 ~len:1 ();
  check_float "shr" 3.0 (Local_tensor.get d 0);
  Vec.shift_left c ~src:a ~dst:d ~bits:2 ~len:1 ();
  check_float "shl" 48.0 (Local_tensor.get d 0);
  Vec.bit_ands c ~src:a ~dst:d ~mask:0b0100 ~len:1 ();
  check_float "and" 4.0 (Local_tensor.get d 0);
  Vec.bit_ors c ~src:a ~dst:d ~mask:0b0011 ~len:1 ();
  check_float "or" 15.0 (Local_tensor.get d 0);
  Vec.bit_xors c ~src:a ~dst:d ~mask:0xFFFF ~len:1 ();
  check_float "xor" (float_of_int (0xFFFF lxor 12)) (Local_tensor.get d 0);
  Vec.bit_not c ~src:a ~dst:d ~len:1 ();
  check_float "not" (float_of_int (0xFFFF lxor 12)) (Local_tensor.get d 0);
  let b = ub ~dt:Dtype.U16 c in
  load b [| 10.0 |];
  Vec.bit_op c Vec.Xor ~src0:a ~src1:b ~dst:d ~len:1 ();
  check_float "xor tensors" 6.0 (Local_tensor.get d 0);
  Vec.bit_op c Vec.And ~src0:a ~src1:b ~dst:d ~len:1 ();
  check_float "and tensors" 8.0 (Local_tensor.get d 0);
  Vec.bit_op c Vec.Or ~src0:a ~src1:b ~dst:d ~len:1 ();
  check_float "or tensors" 14.0 (Local_tensor.get d 0)

let test_bitwise_requires_integer () =
  let c = ctx () in
  let a = ub c and d = ub c in
  check_bool "float bitop raises" true
    (try
       Vec.bit_ands c ~src:a ~dst:d ~mask:1 ~len:1 ();
       false
     with Invalid_argument _ -> true)

let test_signed_unsigned_field () =
  (* I8 -1 has unsigned field 0xFF. *)
  let c = ctx () in
  let a = ub ~dt:Dtype.I8 c and d = ub ~dt:Dtype.I8 c in
  load a [| -1.0 |];
  Vec.shift_right c ~src:a ~dst:d ~bits:4 ~len:1 ();
  check_float "i8 -1 >> 4" 15.0 (Local_tensor.get d 0)

let test_cast_dup_copy_arange () =
  let c = ctx () in
  let a = ub ~dt:Dtype.U16 c in
  let d = ub ~dt:Dtype.I8 c in
  load a [| 0.0; 1.0; 200.0 |];
  Vec.cast c ~src:a ~dst:d ~len:3 ();
  check_float "cast wraps" (-56.0) (Local_tensor.get d 2);
  let f = ub c in
  Vec.dup c ~dst:f ~scalar:7.0 ~len:5 ();
  check_float "dup" 7.0 (Local_tensor.get f 4);
  let g = ub c in
  Vec.copy c ~src:f ~dst:g ~len:5 ();
  check_float "copy" 7.0 (Local_tensor.get g 4);
  let h = ub ~dt:Dtype.I32 c in
  Vec.arange c ~dst:h ~start:10.0 ~len:5 ();
  check_float "arange" 14.0 (Local_tensor.get h 4)

let test_reductions () =
  let c = ctx () in
  let a = ub ~n:100 c in
  load a (Array.init 100 (fun i -> float_of_int (i + 1)));
  check_float "reduce_sum" 5050.0 (Vec.reduce_sum c ~src:a ~len:100 ());
  check_float "reduce_sum range" 5.0
    (Vec.reduce_sum c ~src:a ~src_off:1 ~len:2 ());
  check_float "reduce_max" 100.0 (Vec.reduce_max c ~src:a ~len:100 ())

let test_cumsum () =
  let c = ctx () in
  let a = ub ~n:64 c and d = ub ~n:64 c in
  load a (Array.make 64 1.0);
  Vec.cumsum c ~src:a ~dst:d ~rows:8 ~cols:8 ();
  check_float "linear cumsum across rows" 64.0 (Local_tensor.get d 63);
  check_float "first" 1.0 (Local_tensor.get d 0);
  check_float "row boundary" 9.0 (Local_tensor.get d 8)

let test_gather_mask () =
  let c = ctx () in
  let a = ub c and m = ub ~dt:Dtype.I8 c and d = ub c in
  load a [| 10.0; 20.0; 30.0; 40.0 |];
  load m [| 1.0; 0.0; 1.0; 1.0 |];
  let n = Vec.gather_mask c ~src:a ~mask:m ~dst:d ~len:4 () in
  check_int "count" 3 n;
  Alcotest.(check (array (float 0.0))) "gathered" [| 10.0; 30.0; 40.0 |] (dump d 3)

(* A compaction that overflows [dst] is a typed range error, recorded
   by the sanitizer, and writes nothing; a short [dst] that holds the
   selection is fine. *)
let test_gather_mask_overflow () =
  let dev = Device.create ~sanitize:true () in
  let c = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  let a = ub c and m = ub ~dt:Dtype.I8 c in
  load a [| 10.0; 20.0; 30.0; 40.0 |];
  load m [| 1.0; 1.0; 0.0; 1.0 |];
  let fits = ub ~n:3 c in
  check_int "fits" 3 (Vec.gather_mask c ~src:a ~mask:m ~dst:fits ~len:4 ());
  let d = ub ~n:3 c in
  Alcotest.check_raises "overflow"
    (Invalid_argument "Vec.gather_mask: range 1+3 out of bounds [0,3)")
    (fun () ->
      ignore (Vec.gather_mask c ~src:a ~mask:m ~dst:d ~dst_off:1 ~len:4 ()));
  Alcotest.(check (array (float 0.0))) "nothing written" [| 0.0; 0.0; 0.0 |]
    (dump d 3);
  match Device.sanitizer dev with
  | None -> Alcotest.fail "sanitizer not armed"
  | Some san ->
      check_int "one out-of-bounds record" 1
        (Sanitizer.count_kind san Sanitizer.Out_of_bounds)

let test_sort_region () =
  let c = ctx () in
  let a = ub ~n:64 c and d = ub ~n:64 c in
  load a (Array.init 64 (fun i -> float_of_int ((i * 37) mod 64)));
  Vec.sort_region c ~src:a ~dst:d ~len:64 ();
  let out = dump d 64 in
  Array.iteri (fun i v -> check_float "sorted asc" (float_of_int i) v) out;
  Vec.sort_region c ~descending:true ~src:a ~dst:d ~len:64 ();
  check_float "desc first" 63.0 (Local_tensor.get d 0)

let test_get_set () =
  let c = ctx () in
  let a = ub c in
  Vec.set c a 2 5.0;
  check_float "set/get" 5.0 (Vec.get c a 2)

let test_ub_only () =
  let c = ctx () in
  let l1 = Block.alloc c Mem_kind.L1 Dtype.F16 16 in
  let d = ub c in
  check_bool "vec op on L1 raises" true
    (try
       Vec.adds c ~src:l1 ~dst:d ~scalar:1.0 ~len:4 ();
       false
     with Invalid_argument _ -> true)

let test_structure_invalidated_by_write () =
  let c = ctx () in
  let a = ub c in
  Scan.Const_mat.fill a ~s:4 Scan.Const_mat.Ones;
  check_bool "tagged" true (Local_tensor.structure a = Local_tensor.All_ones);
  Vec.adds c ~src:a ~dst:a ~scalar:1.0 ~len:4 ();
  check_bool "write clears tag" true
    (Local_tensor.structure a = Local_tensor.General)

let test_cost_charged_to_engine () =
  let c = ctx () in
  let a = ub c and d = ub c in
  Vec.adds c ~vec:1 ~src:a ~dst:d ~scalar:1.0 ~len:4 ();
  let r = Block.finish c in
  let busy e = r.Block.busy.(Engine.index ~vec_per_core:2 e) in
  check_bool "vec1 charged" true (busy (Engine.Vec 1) > 0.0);
  check_bool "vec0 idle" true (busy (Engine.Vec 0) = 0.0)

(* [scan_rows] against the per-row [adds] + [get] loop it batches, in
   a two-block launch whose core 0 dies inside block 0's tile: the
   dead block's partial op counts (part of [Stats]) count only the
   rows issued before the kill. *)
let scan_rows_launch ~mode ~trace ~kill ~len ~batched =
  let fault = Fault.config ~seed:0 ~rate:0.0 ~kills:[ (0, kill) ] () in
  let dev = Device.create ~mode ~fault () in
  if trace then ignore (Device.arm_trace dev);
  let s = 128 in
  let st =
    Launch.run dev ~blocks:2 (fun c ->
        let buf = ub ~n:len c in
        if batched then
          ignore (Vec.scan_rows c ~op:Vec.Add ~buf ~len ~s ~init:0.0 ())
        else begin
          let carry = ref 0.0 in
          for r = 0 to ((len + s - 1) / s) - 1 do
            let off = r * s in
            let l = min s (len - off) in
            Vec.adds c ~src:buf ~src_off:off ~dst:buf ~dst_off:off
              ~scalar:!carry ~len:l ();
            carry := Vec.get c buf (off + l - 1)
          done
        end)
  in
  let recs =
    match Device.trace dev with
    | None -> []
    | Some tr -> Trace.launches tr
  in
  (st, recs)

let test_scan_rows_killed () =
  List.iter
    (fun (mode, trace, kill, len) ->
      let what =
        Printf.sprintf "%s%s len=%d killed at %g"
          (if mode = Device.Cost_only then "cost-only" else "functional")
          (if trace then " traced" else "")
          len kill
      in
      let a, ta = scan_rows_launch ~mode ~trace ~kill ~len ~batched:false in
      let b, tb = scan_rows_launch ~mode ~trace ~kill ~len ~batched:true in
      let bytes st =
        Marshal.to_string { st with Stats.host_seconds = 0.0 } []
      in
      Alcotest.(check (list (pair string int)))
        (what ^ ": op counts") a.Stats.op_counts b.Stats.op_counts;
      check_bool (what ^ ": stats") true (bytes a = bytes b);
      check_bool (what ^ ": trace") true (ta = tb))
    [
      (Device.Cost_only, false, 3000.0, 8192);
      (Device.Cost_only, true, 3000.0, 8192);
      (Device.Functional, false, 3000.0, 8192);
      (Device.Cost_only, false, 1234.5, 8100);
      (Device.Functional, true, 2999.0, 8100);
    ];
  (* 64 rows in each of the two full blocks, plus 57 rows of the
     killed block issued before the kill. *)
  let st, _ =
    scan_rows_launch ~mode:Device.Cost_only ~trace:false ~kill:3000.0
      ~len:8192 ~batched:true
  in
  check_int "adds" 185 (Stats.op_count st "adds");
  check_int "scalar_get" 185 (Stats.op_count st "scalar_get")

let () =
  Alcotest.run "vec"
    [
      ( "ops",
        [
          Alcotest.test_case "binops" `Quick test_binops;
          Alcotest.test_case "dtype rounding" `Quick
            test_binop_rounds_to_dtype;
          Alcotest.test_case "scalar ops" `Quick test_scalar_ops;
          Alcotest.test_case "offsets" `Quick test_offsets;
          Alcotest.test_case "compare/select" `Quick test_compare_select;
          Alcotest.test_case "bitwise" `Quick test_bitwise;
          Alcotest.test_case "bitwise requires int" `Quick
            test_bitwise_requires_integer;
          Alcotest.test_case "unsigned field of signed" `Quick
            test_signed_unsigned_field;
          Alcotest.test_case "cast/dup/copy/arange" `Quick
            test_cast_dup_copy_arange;
          Alcotest.test_case "reductions" `Quick test_reductions;
          Alcotest.test_case "cumsum" `Quick test_cumsum;
          Alcotest.test_case "gather_mask" `Quick test_gather_mask;
          Alcotest.test_case "gather_mask overflow" `Quick
            test_gather_mask_overflow;
          Alcotest.test_case "sort_region" `Quick test_sort_region;
          Alcotest.test_case "get/set" `Quick test_get_set;
          Alcotest.test_case "ub only" `Quick test_ub_only;
          Alcotest.test_case "structure invalidation" `Quick
            test_structure_invalidated_by_write;
          Alcotest.test_case "engine attribution" `Quick
            test_cost_charged_to_engine;
          Alcotest.test_case "scan_rows killed inside the tile" `Quick
            test_scan_rows_killed;
        ] );
    ]
