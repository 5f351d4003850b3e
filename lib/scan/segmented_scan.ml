open Ascend

let ub_tile = 8192

type bufs = {
  v : Local_tensor.t array;  (* 2 ping-pong value slots *)
  f : Local_tensor.t array;  (* 2 ping-pong flag slots *)
  tmp_v : Local_tensor.t;
  tmp_f : Local_tensor.t;
  zero : Local_tensor.t;
}

(* The value/flag staging tiles are doubled so the copy-in of tile
   [t+1] overlaps the segmented scan of tile [t]; the scratch buffers
   are only live inside one tile's compute and stay single. *)
let alloc_bufs ctx ~vec =
  let ub dt n = Block.alloc ctx (Mem_kind.Ub vec) dt n in
  let b =
    {
      v = Array.init 2 (fun _ -> ub Dtype.F16 ub_tile);
      f = Array.init 2 (fun _ -> ub Dtype.I8 ub_tile);
      tmp_v = ub Dtype.F16 ub_tile;
      tmp_f = ub Dtype.I8 ub_tile;
      zero = ub Dtype.F16 ub_tile;
    }
  in
  Vec.dup ctx ~vec ~dst:b.zero ~scalar:0.0 ~len:ub_tile ();
  b

(* Load stage of the walker: stage one tile's values and flags into
   slot [slot] (both copies join the same commit group, so one
   wait_group covers the pair). *)
let load_tile ctx ~schedule ~vec ~b ~x ~flags ~off ~len ~slot =
  Scan_core.stage_in ctx ~schedule ~engine:(Engine.Vec_mte_in vec) ~src:x
    ~src_off:off ~dst:b.v.(slot) ~len ();
  Scan_core.stage_in ctx ~schedule ~engine:(Engine.Vec_mte_in vec) ~src:flags
    ~src_off:off ~dst:b.f.(slot) ~len ()

(* Work stage: scan the staged pairs in place and return (last value
   with [base] applied, tile had a boundary). The applied last value is
   the carry into the next tile. *)
let compute_tile ctx ~vec ~b ~len ~base ~slot =
  Vec.segmented_hillis_steele ctx ~vec ~v:b.v.(slot) ~f:b.f.(slot)
    ~tmp_v:b.tmp_v ~tmp_f:b.tmp_f ~zero:b.zero ~len ();
  (* Elements not preceded by an in-tile boundary continue the incoming
     segment: add the carry there. *)
  Vec.adds ctx ~vec ~src:b.v.(slot) ~dst:b.tmp_v ~scalar:base ~len ();
  Vec.select ctx ~vec ~mask:b.f.(slot) ~src0:b.v.(slot) ~src1:b.tmp_v
    ~dst:b.v.(slot) ~len ();
  let last_v = Vec.get ctx ~vec b.v.(slot) (len - 1) in
  let last_f = Vec.get ctx ~vec b.f.(slot) (len - 1) <> 0.0 in
  (last_v, last_f)

(* Phase I: per-sub-block carries (end value from base 0, had-boundary
   flag) into rv / rf — the recomputation pass. Each vector core runs
   its own 2-stage pipeline; cores overlap because their lanes are
   independent. *)
let phase1 ~x ~flags ~rv ~rf ~chunk ~half ~n ctx =
  let i = Block.idx ctx in
  let vpc = (Block.cost ctx).Cost_model.vec_per_core in
  let lo = i * chunk in
  let hi = min n (lo + chunk) in
  if hi > lo then begin
    let schedule = Scan_core.current_schedule () in
    let bufs = List.init vpc (fun v -> alloc_bufs ctx ~vec:v) in
    let stage_v =
      List.init vpc (fun v -> Block.alloc ctx (Mem_kind.Ub v) Dtype.F32 16)
    in
    let stage_f =
      List.init vpc (fun v -> Block.alloc ctx (Mem_kind.Ub v) Dtype.I8 16)
    in
    List.iteri
      (fun v b ->
        let vlo, vhi = Scan_core.sub_block ~lo ~hi ~half v in
        if vhi > vlo then begin
          let carry = ref 0.0 and seen = ref false in
          Scan_core.pipeline_tiles ctx ~schedule
            ~in_engine:(Engine.Vec_mte_in v) ~tile:ub_tile ~n:(vhi - vlo)
            ~load:(fun ~slot ~off ~len ->
              load_tile ctx ~schedule ~vec:v ~b ~x ~flags ~off:(vlo + off)
                ~len ~slot)
            ~work:(fun ~slot ~off:_ ~len ->
              let last_v, last_f =
                compute_tile ctx ~vec:v ~b ~len ~base:!carry ~slot
              in
              carry := last_v;
              seen := !seen || last_f)
            ();
          let k = (i * vpc) + v in
          Vec.set ctx ~vec:v (List.nth stage_v v) 0 !carry;
          Vec.set ctx ~vec:v (List.nth stage_f v) 0
            (if !seen then 1.0 else 0.0);
          Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v)
            ~src:(List.nth stage_v v) ~dst:rv ~dst_off:k ~len:1 ();
          Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v)
            ~src:(List.nth stage_f v) ~dst:rf ~dst_off:k ~len:1 ()
        end)
      bufs
  end

(* Phase II: fold the carries of all preceding sub-blocks, then rescan
   each tile applying the running carry and write the output. The scan
   rewrites the staged tile in place, so stores stay synchronous. *)
let phase2 ~x ~flags ~y ~rv ~rf ~chunk ~half ~n ctx =
  let i = Block.idx ctx in
  let vpc = (Block.cost ctx).Cost_model.vec_per_core in
  let lo = i * chunk in
  let hi = min n (lo + chunk) in
  if hi > lo then begin
    let schedule = Scan_core.current_schedule () in
    let rlen = Global_tensor.length rv in
    let bufs = List.init vpc (fun v -> alloc_bufs ctx ~vec:v) in
    let rvub =
      List.init vpc (fun v -> Block.alloc ctx (Mem_kind.Ub v) Dtype.F32 rlen)
    in
    let rfub =
      List.init vpc (fun v -> Block.alloc ctx (Mem_kind.Ub v) Dtype.I8 rlen)
    in
    List.iteri
      (fun v b ->
        let vlo, vhi = Scan_core.sub_block ~lo ~hi ~half v in
        if vhi > vlo then begin
          let k = (i * vpc) + v in
          Mte.copy_in ctx ~engine:(Engine.Vec_mte_in v) ~src:rv
            ~dst:(List.nth rvub v) ~len:rlen ();
          Mte.copy_in ctx ~engine:(Engine.Vec_mte_in v) ~src:rf
            ~dst:(List.nth rfub v) ~len:rlen ();
          (* Serial fold over at most blocks*vpc carries. *)
          let base = ref 0.0 in
          for j = 0 to k - 1 do
            let vj = Vec.get ctx ~vec:v (List.nth rvub v) j in
            let fj = Vec.get ctx ~vec:v (List.nth rfub v) j in
            base := Fp16.round (if fj <> 0.0 then vj else !base +. vj)
          done;
          let carry = ref !base in
          Scan_core.pipeline_tiles ctx ~schedule
            ~in_engine:(Engine.Vec_mte_in v) ~tile:ub_tile ~n:(vhi - vlo)
            ~load:(fun ~slot ~off ~len ->
              load_tile ctx ~schedule ~vec:v ~b ~x ~flags ~off:(vlo + off)
                ~len ~slot)
            ~work:(fun ~slot ~off ~len ->
              let last_v, _ =
                compute_tile ctx ~vec:v ~b ~len ~base:!carry ~slot
              in
              carry := last_v;
              Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v)
                ~src:b.v.(slot) ~dst:y ~dst_off:(vlo + off) ~len ())
            ()
        end)
      bufs
  end

let run ?blocks device ~x ~flags () =
  if not (Dtype.equal (Global_tensor.dtype x) Dtype.F16) then
    invalid_arg "Segmented_scan.run: x must be f16";
  if not (Dtype.equal (Global_tensor.dtype flags) Dtype.I8) then
    invalid_arg "Segmented_scan.run: flags must be i8";
  let n = Global_tensor.length x in
  if Global_tensor.length flags <> n then
    invalid_arg "Segmented_scan.run: length mismatch";
  if n = 0 then invalid_arg "Segmented_scan.run: empty input";
  let blocks =
    match blocks with
    | Some b -> b
    | None -> Scheduler.blocks (Scheduler.plan device ~n)
  in
  let vpc = (Device.cost device).Cost_model.vec_per_core in
  let chunk, half =
    Scan_core.block_partition ~n ~blocks ~vpc ~chunk_align:ub_tile
      ~half_align:ub_tile
  in
  let name = Global_tensor.name x in
  let y = Device.alloc device Dtype.F16 n ~name:(name ^ "_segscan") in
  let rv = Device.alloc device Dtype.F32 (blocks * vpc) ~name:(name ^ "_seg_rv") in
  let rf = Device.alloc device Dtype.I8 (blocks * vpc) ~name:(name ^ "_seg_rf") in
  let stats =
    Launch.run_phases ~name:"segmented_scan" device ~blocks
      [
        phase1 ~x ~flags ~rv ~rf ~chunk ~half ~n;
        phase2 ~x ~flags ~y ~rv ~rf ~chunk ~half ~n;
      ]
  in
  (y, stats)
