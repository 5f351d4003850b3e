open Ascend

let run ?(s = 128) device x =
  Kernel_util.check_s ~who:"Scan_u.run" Dtype.F16 s;
  if not (Dtype.equal (Global_tensor.dtype x) Dtype.F16) then
    invalid_arg "Scan_u.run: input must be f16";
  let n = Global_tensor.length x in
  let y = Device.alloc device Dtype.F16 n ~name:(Global_tensor.name x ^ "_scanu") in
  let tile = s * s in
  let body ctx =
    let schedule = Scan_core.current_schedule () in
    (* Ping-pong slots: two f16 input tiles fill L0A exactly (2 x 32 KB)
       and two f32 accumulators take half of L0C, so copy-in of tile
       [t+1], the mmad of tile [t] and copy-out of tile [t-1] all
       overlap — the 3-stage pipeline of the paper's ScanU. *)
    let l0a = Array.init 2 (fun _ -> Block.alloc ctx Mem_kind.L0a Dtype.F16 tile) in
    let l0c = Array.init 2 (fun _ -> Block.alloc ctx Mem_kind.L0c Dtype.F32 tile) in
    let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 tile in
    let u =
      Scan_core.load_cube_encoding
        (module Scan_op.Sum)
        ctx ~engine:Engine.Cube_mte_in ~kind:Mem_kind.L0b ~dtype:Dtype.F16 ~s
    in
    let partial = ref (Scan_op.Sum.identity Dtype.F16) in
    Scan_core.pipeline_tiles ctx ~schedule
      ~out:(Engine.Cube_mte_out, 2) ~in_engine:Engine.Cube_mte_in ~tile ~n
      ~load:(fun ~slot ~off ~len ->
        Scan_core.stage_in ctx ~schedule ~engine:Engine.Cube_mte_in ~src:x
          ~src_off:off ~dst:l0a.(slot) ~len ())
      ~work:(fun ~slot ~off ~len ->
        let rows = Kernel_util.ceil_div len s in
        Cube.mmad ctx ~a:l0a.(slot) ~b:u ~c:l0c.(slot) ~m:rows ~k:s ~n:s
          ~accumulate:false;
        Scan_core.stage_out ctx ~schedule ~engine:Engine.Cube_mte_out
          ~src:l0c.(slot) ~dst:y ~dst_off:off ~len ();
        (* The vector core waits for the cube result in GM, finishes
           the prefix in place, and writes it back; its lane overlaps
           the cube's next tile. *)
        Scan_core.finish_tile
          (module Scan_op.Sum)
          ctx ~vec:0 ~await:Engine.Cube_mte_out ~src:y ~ub ~dst:y ~off ~len ~s
          ~partial ())
      ()
  in
  let stats = Launch.run ~name:"scan_u" device ~blocks:1 body in
  (y, stats)
