(* Unit tests of the memory transfer engine (DataCopy). *)

open Ascend

let check_float = Alcotest.(check (float 0.0))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let setup () =
  let dev = Device.create () in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  (dev, ctx)

let test_copy_in_out_roundtrip () =
  let dev, ctx = setup () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" [| 1.0; 2.0; 3.0; 4.0 |] in
  let y = Device.alloc dev Dtype.F16 4 ~name:"y" in
  let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 4 in
  Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~dst:ub ~len:4 ();
  check_float "in" 3.0 (Local_tensor.get ub 2);
  Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:ub ~dst:y ~len:4 ();
  check_float "out" 4.0 (Global_tensor.get y 3);
  let r = Block.finish ctx in
  check_int "read bytes" 8 r.Block.gm_read_bytes;
  check_int "write bytes" 8 r.Block.gm_write_bytes;
  check_int "touched two tensors" 2 (List.length r.Block.touched)

let test_copy_offsets () =
  let dev, ctx = setup () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 8 in
  Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~src_off:2 ~dst:ub
    ~dst_off:1 ~len:3 ();
  check_float "offset copy" 2.0 (Local_tensor.get ub 1);
  check_float "offset copy end" 4.0 (Local_tensor.get ub 3);
  check_float "untouched" 0.0 (Local_tensor.get ub 0)

let test_copy_cast_out () =
  (* L0C (f32) -> GM (f16) quantizing output path. *)
  let dev, ctx = setup () in
  let y = Device.alloc dev Dtype.F16 2 ~name:"y" in
  let l0c = Block.alloc ctx Mem_kind.L0c Dtype.F32 2 in
  Local_tensor.set l0c 0 2049.0;
  Local_tensor.set l0c 1 1.5;
  Mte.copy_out ctx ~engine:Engine.Cube_mte_out ~src:l0c ~dst:y ~len:2 ();
  check_float "quantized" 2048.0 (Global_tensor.get y 0);
  check_float "exact" 1.5 (Global_tensor.get y 1);
  (* Traffic is counted on the GM side: 2 x 2 bytes. *)
  check_int "gm-side bytes" 4 (Block.finish ctx).Block.gm_write_bytes

let test_copy_strided () =
  let dev, ctx = setup () in
  (* Gather rows of a 3x4 matrix into a 3x2 tile (burst 2, strides 4/2). *)
  let x =
    Device.of_array dev Dtype.F16 ~name:"x"
      (Array.init 12 float_of_int)
  in
  let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 6 in
  Mte.copy_in_strided ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~src_off:0
    ~src_stride:4 ~dst:ub ~dst_off:0 ~dst_stride:2 ~burst:2 ~count:3;
  check_float "row0" 0.0 (Local_tensor.get ub 0);
  check_float "row1" 4.0 (Local_tensor.get ub 2);
  check_float "row2" 9.0 (Local_tensor.get ub 5);
  let y = Device.alloc dev Dtype.F16 12 ~name:"y" in
  Mte.copy_out_strided ctx ~engine:(Engine.Vec_mte_out 0) ~src:ub ~src_off:0
    ~src_stride:2 ~dst:y ~dst_off:0 ~dst_stride:4 ~burst:2 ~count:3;
  check_float "scatter" 9.0 (Global_tensor.get y 9)

let test_copy_local_structure () =
  let dev, ctx = setup () in
  ignore dev;
  let l1 = Block.alloc ctx Mem_kind.L1 Dtype.F16 16 in
  Scan.Const_mat.fill l1 ~s:4 Scan.Const_mat.Upper;
  let l0b = Block.alloc ctx Mem_kind.L0b Dtype.F16 16 in
  Mte.copy_local ctx ~engine:Engine.Cube ~src:l1 ~dst:l0b ~len:16 ();
  check_bool "structure preserved on whole copy" true
    (Local_tensor.structure l0b = Local_tensor.Upper_ones);
  check_float "content" 1.0 (Local_tensor.get l0b 3);
  (* Partial copies drop the tag. *)
  let l0b2 = Block.alloc ctx Mem_kind.L0b Dtype.F16 16 in
  Mte.copy_local ctx ~engine:Engine.Cube ~src:l1 ~dst:l0b2 ~len:8 ();
  check_bool "partial copy drops tag" true
    (Local_tensor.structure l0b2 = Local_tensor.General)

let test_bounds_checks () =
  let dev, ctx = setup () in
  let x = Device.alloc dev Dtype.F16 4 ~name:"x" in
  let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 4 in
  check_bool "copy_in overrun raises" true
    (try
       Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~src_off:2 ~dst:ub
         ~len:3 ();
       false
     with Invalid_argument _ -> true);
  check_bool "copy_out overrun raises" true
    (try
       Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:ub ~dst:x
         ~dst_off:3 ~len:2 ();
       false
     with Invalid_argument _ -> true)

let test_costs_scale_with_bytes () =
  let dev, ctx = setup () in
  let cm = Device.cost dev in
  let x = Device.alloc dev Dtype.F16 20000 ~name:"x" in
  let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 20000 in
  let t0 = Block.elapsed_cycles ctx in
  Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~dst:ub ~len:10000 ();
  let c1 = Block.elapsed_cycles ctx -. t0 in
  Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~dst:ub ~len:20000 ();
  let c2 = Block.elapsed_cycles ctx -. t0 -. c1 in
  check_bool "larger copy costs more" true (c2 > c1);
  check_bool "cost near linear" true
    (Float.abs (c2 -. (2.0 *. c1) +. Block.mte_copy_cycles cm ~bytes:0)
     < 2.0)

let test_cost_only_skips_data () =
  let dev = Device.create ~mode:Device.Cost_only () in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  let x = Device.alloc dev Dtype.F16 100 ~name:"x" in
  let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 100 in
  (* Must not raise despite the unbacked global tensor. *)
  Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~dst:ub ~len:100 ();
  Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:ub ~dst:x ~len:100 ();
  let r = Block.finish ctx in
  check_int "traffic still counted" 400
    (r.Block.gm_read_bytes + r.Block.gm_write_bytes)

let () =
  Alcotest.run "mte"
    [
      ( "datacopy",
        [
          Alcotest.test_case "roundtrip" `Quick test_copy_in_out_roundtrip;
          Alcotest.test_case "offsets" `Quick test_copy_offsets;
          Alcotest.test_case "cast on out" `Quick test_copy_cast_out;
          Alcotest.test_case "strided" `Quick test_copy_strided;
          Alcotest.test_case "local structure" `Quick
            test_copy_local_structure;
          Alcotest.test_case "bounds" `Quick test_bounds_checks;
          Alcotest.test_case "cost scaling" `Quick test_costs_scale_with_bytes;
          Alcotest.test_case "cost-only mode" `Quick test_cost_only_skips_data;
        ] );
    ]
