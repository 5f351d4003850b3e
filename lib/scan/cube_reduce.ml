open Ascend

let ub_tile = 8192

let finalize device ~name ~partials ~count =
  let out = Device.alloc device Dtype.F32 1 ~name:(name ^ "_sum") in
  let body ctx =
    if Block.idx ctx = 0 then begin
      let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F32 count in
      Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:partials ~dst:ub
        ~len:count ();
      let total = Vec.reduce_sum ctx ~src:ub ~len:count () in
      let st = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F32 16 in
      Vec.set ctx st 0 total;
      Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:st ~dst:out ~len:1 ()
    end
  in
  (out, body)

let run_cube ?(s = 128) device x =
  if not (Dtype.equal (Global_tensor.dtype x) Dtype.F16) then
    invalid_arg "Cube_reduce.run_cube: input must be f16";
  Kernel_util.check_s ~who:"Cube_reduce.run_cube" Dtype.F16 s;
  let n = Global_tensor.length x in
  if n = 0 then invalid_arg "Cube_reduce.run_cube: empty input";
  let tile = s * s in
  let plan = Scheduler.plan device ~n in
  let blocks = Scheduler.blocks plan in
  let chunk = Scheduler.chunk plan ~n ~grain:tile in
  let name = Global_tensor.name x in
  let partials = Device.alloc device Dtype.F32 blocks ~name:(name ^ "_partials") in
  (* Row sums see every lane of a row, so the tail tile's stale L0A
     lanes must be zero-padded (a DataCopy from a zero page). *)
  let zeros = Device.alloc device Dtype.F16 tile ~name:(name ^ "_zeropage") in
  let phase1 ctx =
    let i = Block.idx ctx in
    let lo = i * chunk in
    let hi = min n (lo + chunk) in
    if hi > lo then begin
      let schedule = Scan_core.current_schedule () in
      (* Two L0A slots fill L0A exactly (2 x s^2 f16 = 64 KiB): the
         next tile's DataCopy overlaps the current accumulate matmul.
         The arena is reset afterwards to make room for [row1]. *)
      let l0a =
        Array.init 2 (fun _ -> Block.alloc ctx Mem_kind.L0a Dtype.F16 tile)
      in
      let acc = Block.alloc ctx Mem_kind.L0c Dtype.F32 tile in
      let c2 = Block.alloc ctx Mem_kind.L0c Dtype.F32 s in
      let ones_l1 =
        Const_mat.load ctx ~engine:Engine.Cube_mte_in ~kind:Mem_kind.L1
          ~dtype:Dtype.F16 ~s Const_mat.Ones
      in
      let l0b = Block.alloc ctx Mem_kind.L0b Dtype.F16 tile in
      let acc_l1 = Block.alloc ctx Mem_kind.L1 Dtype.F16 tile in
      Mte.copy_local ctx ~engine:Engine.Cube ~src:ones_l1 ~dst:l0b
        ~len:tile ();
      let ntiles = Kernel_util.ceil_div (hi - lo) tile in
      Scan_core.pipeline ctx ~schedule ~in_engine:Engine.Cube_mte_in
        ~n:ntiles
        ~load:(fun ~slot t ->
          let off = lo + (t * tile) in
          let len = min tile (hi - off) in
          let rows = Kernel_util.ceil_div len s in
          Scan_core.stage_in ctx ~schedule ~engine:Engine.Cube_mte_in
            ~src:x ~src_off:off ~dst:l0a.(slot) ~len ();
          if len < rows * s then
            Scan_core.stage_in ctx ~schedule ~engine:Engine.Cube_mte_in
              ~src:zeros ~dst:l0a.(slot) ~dst_off:len
              ~len:((rows * s) - len) ())
        ~work:(fun ~slot t ->
          let off = lo + (t * tile) in
          let len = min tile (hi - off) in
          let rows = Kernel_util.ceil_div len s in
          (* C += A_t @ 1: column j of C accumulates the row sums. *)
          Cube.mmad ctx ~a:l0a.(slot) ~b:l0b ~c:acc ~m:rows ~k:s ~n:s
            ~accumulate:(t > 0))
        ();
      Block.reset_mem ctx Mem_kind.L0a;
      (* Collapse C's rows with one more matmul: 1_{1 x s} @ C. *)
      Mte.copy_local ctx ~engine:Engine.Cube ~src:acc ~dst:acc_l1 ~len:tile ();
      Mte.copy_local ctx ~engine:Engine.Cube ~src:acc_l1 ~dst:l0b ~len:tile ();
      let row1 = Block.alloc ctx Mem_kind.L0a Dtype.F16 s in
      if Block.functional ctx then begin
        for j = 0 to s - 1 do
          Local_tensor.set row1 j 1.0
        done;
        Local_tensor.set_structure row1 Local_tensor.All_ones
      end
      else Local_tensor.set_structure row1 Local_tensor.All_ones;
      Block.charge ~op:"l1_to_l0" ctx Engine.Cube
        (Block.local_copy_cycles (Block.cost ctx) ~bytes:(2 * s));
      Cube.mmad ctx ~a:row1 ~b:l0b ~c:c2 ~m:1 ~k:s ~n:s ~accumulate:false;
      Mte.copy_out ctx ~engine:Engine.Cube_mte_out ~src:c2 ~dst:partials
        ~dst_off:i ~len:1 ()
    end
  in
  let out, phase2 = finalize device ~name ~partials ~count:blocks in
  let stats =
    Launch.run_phases ~name:"cube_reduce" device ~blocks [ phase1; phase2 ]
  in
  let total = if Device.functional device then Global_tensor.get out 0 else 0.0 in
  (total, out, stats)

let run_vec device x =
  if not (Dtype.equal (Global_tensor.dtype x) Dtype.F16) then
    invalid_arg "Cube_reduce.run_vec: input must be f16";
  let n = Global_tensor.length x in
  if n = 0 then invalid_arg "Cube_reduce.run_vec: empty input";
  let blocks = Scheduler.blocks (Scheduler.plan device ~n) in
  let vpc = (Device.cost device).Cost_model.vec_per_core in
  let nvec = blocks * vpc in
  let chunk = Kernel_util.ceil_div n nvec in
  let name = Global_tensor.name x in
  let partials = Device.alloc device Dtype.F32 nvec ~name:(name ^ "_vpartials") in
  let phase1 ctx =
    let i = Block.idx ctx in
    let schedule = Scan_core.current_schedule () in
    let ubs =
      Array.init vpc (fun v ->
          Array.init 2 (fun _ ->
              Block.alloc ctx (Mem_kind.Ub v) Dtype.F16 ub_tile))
    in
    let stage =
      Array.init vpc (fun v -> Block.alloc ctx (Mem_kind.Ub v) Dtype.F32 16)
    in
    for v = 0 to vpc - 1 do
      let lo = ((i * vpc) + v) * chunk in
      let hi = min n (lo + chunk) in
      if hi > lo then begin
        let acc = ref 0.0 in
        Scan_core.pipeline_tiles ctx ~schedule
          ~in_engine:(Engine.Vec_mte_in v) ~tile:ub_tile ~n:(hi - lo)
          ~load:(fun ~slot ~off ~len ->
            Scan_core.stage_in ctx ~schedule ~engine:(Engine.Vec_mte_in v)
              ~src:x ~src_off:(lo + off) ~dst:ubs.(v).(slot) ~len ())
          ~work:(fun ~slot ~off:_ ~len ->
            acc := !acc +. Vec.reduce_sum ctx ~vec:v ~src:ubs.(v).(slot) ~len ())
          ();
        Vec.set ctx ~vec:v stage.(v) 0 !acc;
        Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:stage.(v)
          ~dst:partials ~dst_off:((i * vpc) + v) ~len:1 ()
      end
    done
  in
  let out, phase2 = finalize device ~name ~partials ~count:nvec in
  let stats =
    Launch.run_phases ~name:"vec_reduce" device ~blocks [ phase1; phase2 ]
  in
  let total = if Device.functional device then Global_tensor.get out 0 else 0.0 in
  (total, out, stats)
