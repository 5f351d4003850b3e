open Ascend

type bufs = {
  l0a : Local_tensor.t array;  (* 2 ping-pong input/operand slots *)
  l0b : Local_tensor.t;
  c1 : Local_tensor.t;
  c2 : Local_tensor.t array;  (* 2 ping-pong result accumulators *)
  c1_l1 : Local_tensor.t;
  u_l1 : Local_tensor.t;
  lminus_l1 : Local_tensor.t;
  ones_l1 : Local_tensor.t;
}

(* Two f16 input slots fill L0A exactly (2 x 32 KB); C1 plus two C2
   slots take 192 of L0C's 256 KB. The doubled slots are what let the
   tile walker overlap copy-in, the mmad chain and copy-out across
   tile iterations. *)
let alloc_bufs ctx ~s =
  let tile = s * s in
  {
    l0a = Array.init 2 (fun _ -> Block.alloc ctx Mem_kind.L0a Dtype.F16 tile);
    l0b = Block.alloc ctx Mem_kind.L0b Dtype.F16 tile;
    c1 = Block.alloc ctx Mem_kind.L0c Dtype.F32 tile;
    c2 = Array.init 2 (fun _ -> Block.alloc ctx Mem_kind.L0c Dtype.F32 tile);
    c1_l1 = Block.alloc ctx Mem_kind.L1 Dtype.F16 tile;
    u_l1 =
      Scan_core.load_cube_encoding
        (module Scan_op.Sum)
        ctx ~engine:Engine.Cube_mte_in ~kind:Mem_kind.L1 ~dtype:Dtype.F16 ~s;
    lminus_l1 =
      Const_mat.load ctx ~engine:Engine.Cube_mte_in ~kind:Mem_kind.L1
        ~dtype:Dtype.F16 ~s Const_mat.Strict_lower;
    ones_l1 =
      Const_mat.load ctx ~engine:Engine.Cube_mte_in ~kind:Mem_kind.L1
        ~dtype:Dtype.F16 ~s Const_mat.Ones;
  }

(* One ScanUL1 tile (Algorithm 2, lines 6-13), split into the pipeline
   stages the walker schedules: [load_tile] stages the input into L0A
   slot [slot]; [compute_tile] runs the three matmuls and stores C2.
   For tail tiles with fewer than [s] rows the L^- operand is the
   [rows x rows] leading submatrix (the strided L1 -> L0A copy extracts
   it; we charge the full-matrix move, which is conservative). *)
let load_tile ctx ~schedule ~x ~off ~len ~bufs ~slot =
  Scan_core.stage_in ctx ~schedule ~engine:Engine.Cube_mte_in ~src:x
    ~src_off:off ~dst:bufs.l0a.(slot) ~len ()

let compute_tile ctx ~schedule ~y ~off ~len ~s ~bufs ~slot =
  let rows = Kernel_util.ceil_div len s in
  let l0a = bufs.l0a.(slot) and c2 = bufs.c2.(slot) in
  (* C1 = A @ 1 (accumulation off; A stays resident in L0A). *)
  Mte.copy_local ctx ~engine:Engine.Cube ~src:bufs.ones_l1 ~dst:bufs.l0b
    ~len:(s * s) ();
  Cube.mmad ctx ~a:l0a ~b:bufs.l0b ~c:bufs.c1 ~m:rows ~k:s ~n:s
    ~accumulate:false;
  (* Stage C1 in L1, casting the fp32 accumulator back to fp16 so it
     can be a matmul operand again. *)
  Mte.copy_local ctx ~engine:Engine.Cube ~src:bufs.c1 ~dst:bufs.c1_l1
    ~len:(rows * s) ();
  (* C2 = A @ U. *)
  Mte.copy_local ctx ~engine:Engine.Cube ~src:bufs.u_l1 ~dst:bufs.l0b
    ~len:(s * s) ();
  Cube.mmad ctx ~a:l0a ~b:bufs.l0b ~c:c2 ~m:rows ~k:s ~n:s ~accumulate:false;
  (* C2 += L^- @ C1 (accumulation on; all input buffers free after). *)
  Mte.copy_local ctx ~engine:Engine.Cube ~src:bufs.lminus_l1 ~dst:l0a
    ~len:(s * s) ();
  Mte.copy_local ctx ~engine:Engine.Cube ~src:bufs.c1_l1 ~dst:bufs.l0b
    ~len:(rows * s) ();
  Cube.mmad ctx ~a:l0a ~b:bufs.l0b ~c:c2 ~m:rows ~k:rows ~n:s ~accumulate:true;
  Scan_core.stage_out ctx ~schedule ~engine:Engine.Cube_mte_out ~src:c2 ~dst:y
    ~dst_off:off ~len ()

let run ?(s = 128) device x =
  Kernel_util.check_s ~who:"Scan_ul1.run" Dtype.F16 s;
  if not (Dtype.equal (Global_tensor.dtype x) Dtype.F16) then
    invalid_arg "Scan_ul1.run: input must be f16";
  let n = Global_tensor.length x in
  let y =
    Device.alloc device Dtype.F16 n ~name:(Global_tensor.name x ^ "_scanul1")
  in
  let tile = s * s in
  let body ctx =
    let schedule = Scan_core.current_schedule () in
    let bufs = alloc_bufs ctx ~s in
    let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 tile in
    let partial = ref (Scan_op.Sum.identity Dtype.F16) in
    Scan_core.pipeline_tiles ctx ~schedule ~out:(Engine.Cube_mte_out, 2)
      ~in_engine:Engine.Cube_mte_in ~tile ~n
      ~load:(fun ~slot ~off ~len ->
        load_tile ctx ~schedule ~x ~off ~len ~bufs ~slot)
      ~work:(fun ~slot ~off ~len ->
        compute_tile ctx ~schedule ~y ~off ~len ~s ~bufs ~slot;
        (* Vector unit: the whole tile is one propagation row, so the
           epilogue is a single scalar fold, overlapping the cube's
           next tile on its own lane. *)
        Scan_core.finish_tile
          (module Scan_op.Sum)
          ctx ~await:Engine.Cube_mte_out ~src:y ~ub ~dst:y ~off ~len ~s:tile
          ~partial ())
      ()
  in
  let stats = Launch.run ~name:"scan_ul1" device ~blocks:1 body in
  (y, stats)
