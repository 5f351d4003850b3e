open Ascend

let ub_tile_elems = 16384

(* UB staging tiles never hold more than one vector core's sub-block
   ([half] elements), so cap the allocation accordingly. The copy
   granularity — and with it every charge — is unchanged: a sub-block
   range fits in one tile either way. *)
let ub_elems ~half = max 1 (min ub_tile_elems half)

(* Phase I: cube computes tile-local scans into [loc]; vector cores
   re-read the input and write per-vector-sub-block sums into [r].
   The cube walker is the full 3-stage pipeline (ping-pong L0A loads,
   ping-pong L0C stores); each vector core runs its own 2-stage
   load/reduce pipeline on its own lane, overlapping the cube's by
   construction (lanes are independent). *)
let phase1 ~x ~loc ~r ~s ~chunk ~half ~n ~in_dt ctx =
  let i = Block.idx ctx in
  let vpc = (Block.cost ctx).Cost_model.vec_per_core in
  let tile = s * s in
  let lo = i * chunk in
  let hi = min n (lo + chunk) in
  let blen = hi - lo in
  if blen > 0 then begin
    let schedule = Scan_core.current_schedule () in
    let l0a =
      Array.init 2 (fun _ -> Block.alloc ctx Mem_kind.L0a in_dt tile)
    in
    let acc_dt =
      match in_dt with Dtype.I8 -> Dtype.I32 | _ -> Dtype.F32
    in
    let l0c =
      Array.init 2 (fun _ -> Block.alloc ctx Mem_kind.L0c acc_dt tile)
    in
    let u =
      Scan_core.load_cube_encoding
        (module Scan_op.Sum)
        ctx ~engine:Engine.Cube_mte_in ~kind:Mem_kind.L0b ~dtype:in_dt ~s
    in
    let ub_n = ub_elems ~half in
    let ubs =
      List.init vpc (fun v ->
          Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub v) in_dt ub_n))
    in
    let stage =
      List.init vpc (fun v -> Block.alloc ctx (Mem_kind.Ub v)
                                (Global_tensor.dtype r) 16)
    in
    (* Cube units: local scans of all s-rows of the block. *)
    Scan_core.pipeline_tiles ctx ~schedule ~out:(Engine.Cube_mte_out, 2)
      ~in_engine:Engine.Cube_mte_in ~tile ~n:blen
      ~load:(fun ~slot ~off ~len ->
        Scan_core.stage_in ctx ~schedule ~engine:Engine.Cube_mte_in ~src:x
          ~src_off:(lo + off) ~dst:l0a.(slot) ~len ())
      ~work:(fun ~slot ~off ~len ->
        let rows = Kernel_util.ceil_div len s in
        Cube.mmad ctx ~a:l0a.(slot) ~b:u ~c:l0c.(slot) ~m:rows ~k:s ~n:s
          ~accumulate:false;
        Scan_core.stage_out ctx ~schedule ~engine:Engine.Cube_mte_out
          ~src:l0c.(slot) ~dst:loc ~dst_off:(lo + off) ~len ())
      ();
    (* Vector units, in parallel: recompute the reductions. *)
    List.iteri
      (fun v slots ->
        let vlo, vhi = Scan_core.sub_block ~lo ~hi ~half v in
        if vhi > vlo then begin
          let acc = ref (Scan_op.Sum.identity in_dt) in
          Scan_core.pipeline_tiles ctx ~schedule
            ~in_engine:(Engine.Vec_mte_in v) ~tile:ub_n ~n:(vhi - vlo)
            ~load:(fun ~slot ~off ~len ->
              Scan_core.stage_in ctx ~schedule ~engine:(Engine.Vec_mte_in v)
                ~src:x ~src_off:(vlo + off) ~dst:slots.(slot) ~len ())
            ~work:(fun ~slot ~off:_ ~len ->
              acc :=
                Scan_op.Sum.combine !acc
                  (Scan_op.Sum.vec_reduce ctx ~vec:v ~src:slots.(slot) ~len ()))
            ();
          let st = List.nth stage v in
          Vec.set ctx ~vec:v st 0 !acc;
          Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:st ~dst:r
            ~dst_off:((i * vpc) + v) ~len:1 ()
        end)
      ubs
  end

(* Phase II: every vector core scans [r] locally, then propagates the
   running partial through the tile-local scans of its sub-block. *)
let phase2 ~loc ~y ~r ~s ~chunk ~half ~n ~out_dt ~exclusive ctx =
  let i = Block.idx ctx in
  let vpc = (Block.cost ctx).Cost_model.vec_per_core in
  let lo = i * chunk in
  let hi = min n (lo + chunk) in
  if hi > lo then begin
    let rlen = Global_tensor.length r in
    let rubs =
      List.init vpc (fun v ->
          Block.alloc ctx (Mem_kind.Ub v) (Global_tensor.dtype r) rlen)
    in
    let ub_n = ub_elems ~half in
    let ubs =
      List.init vpc (fun v ->
          Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub v) out_dt ub_n))
    in
    let zeros =
      List.init vpc (fun v -> Block.alloc ctx (Mem_kind.Ub v) out_dt 16)
    in
    (* Each vector core runs its own 2-stage pipeline: the copy-in of
       tile [t+1] overlaps the propagation of tile [t]. The propagation
       rewrites the staged tile in place, so stores stay synchronous
       (the slot is only reused once its store has retired). Cores
       overlap each other by construction — their lanes are
       independent. *)
    for v = 0 to vpc - 1 do
      let vlo, vhi = Scan_core.sub_block ~lo ~hi ~half v in
      if vhi > vlo then begin
        let rub = List.nth rubs v in
        Mte.copy_in ctx ~engine:(Engine.Vec_mte_in v) ~src:r ~dst:rub
          ~len:rlen ();
        let k = (i * vpc) + v in
        let base =
          if k = 0 then Scan_op.Sum.identity out_dt
          else Scan_op.Sum.vec_reduce ctx ~vec:v ~src:rub ~len:k ()
        in
        let partial = ref base in
        let slots = List.nth ubs v in
        Scan_core.pipeline_tiles ctx
          ~schedule:(Scan_core.current_schedule ())
          ~in_engine:(Engine.Vec_mte_in v) ~tile:ub_n ~n:(vhi - vlo)
          ~load:(fun ~slot ~off ~len ->
            Scan_core.stage_in ctx
              ~schedule:(Scan_core.current_schedule ())
              ~engine:(Engine.Vec_mte_in v) ~src:loc ~src_off:(vlo + off)
              ~dst:slots.(slot) ~len ())
          ~work:(fun ~slot ~off ~len ->
            let off = vlo + off in
            let ub = slots.(slot) in
            Scan_core.propagate_rows
              (module Scan_op.Sum)
              ctx ~vec:v ~ub ~len ~s ~partial;
            if exclusive then begin
              (* Shift right by one; the global first element
                 becomes zero and the last inclusive value is
                 discarded. *)
              let wlen = if off + len >= n then len - 1 else len in
              if wlen > 0 then
                Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:ub
                  ~dst:y ~dst_off:(off + 1) ~len:wlen ();
              if off = 0 then begin
                let z = List.nth zeros v in
                Vec.set ctx ~vec:v z 0 0.0;
                Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:z
                  ~dst:y ~dst_off:0 ~len:1 ()
              end
            end
            else
              Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:ub
                ~dst:y ~dst_off:off ~len ())
          ()
      end
    done
  end

let run ?(s = 128) ?blocks ?(exclusive = false) device x =
  let in_dt = Global_tensor.dtype x in
  let loc_dt, out_dt =
    match in_dt with
    | Dtype.F16 -> (Dtype.F16, Dtype.F16)
    | Dtype.I8 -> (Dtype.I16, Dtype.I32)
    | d ->
        invalid_arg
          (Printf.sprintf "Mcscan.run: unsupported input dtype %s"
             (Dtype.to_string d))
  in
  Kernel_util.check_s ~who:"Mcscan.run" ~even:true in_dt s;
  let n = Global_tensor.length x in
  if n = 0 then invalid_arg "Mcscan.run: empty input";
  let blocks =
    match blocks with
    | Some b -> b
    | None -> Scheduler.blocks (Scheduler.plan device ~n)
  in
  if blocks < 1 then invalid_arg "Mcscan.run: blocks must be >= 1";
  let vpc = (Device.cost device).Cost_model.vec_per_core in
  let tile = s * s in
  (* Block chunks are tile-aligned; vector sub-blocks are row-aligned
     halves of the chunk ([s] is even so [chunk / vpc] stays a multiple
     of [s] whenever it is itself rounded to rows). *)
  let chunk, half =
    Scan_core.block_partition ~n ~blocks ~vpc ~chunk_align:tile ~half_align:s
  in
  let name = Global_tensor.name x in
  let loc = Device.alloc device loc_dt n ~name:(name ^ "_mcscan_loc") in
  let y = Device.alloc device out_dt n ~name:(name ^ "_mcscan_out") in
  let r =
    Device.alloc device
      (match in_dt with Dtype.I8 -> Dtype.I32 | _ -> Dtype.F32)
      (blocks * vpc)
      ~name:(name ^ "_mcscan_r")
  in
  let stats =
    Launch.run_phases
      ~name:(if exclusive then "mcscan_exclusive" else "mcscan")
      device ~blocks
      [
        phase1 ~x ~loc ~r ~s ~chunk ~half ~n ~in_dt;
        phase2 ~loc ~y ~r ~s ~chunk ~half ~n ~out_dt ~exclusive;
      ]
  in
  (* [loc] and [r] are kernel-internal intermediates; recycle their
     storage so back-to-back launches reuse it. *)
  Global_tensor.retire loc;
  Global_tensor.retire r;
  (y, stats)
