open Ascend

let check ~batch ~len x =
  if batch <= 0 || len <= 0 then
    invalid_arg "Batched_scan: batch and len must be positive";
  if Global_tensor.length x < batch * len then
    invalid_arg "Batched_scan: tensor shorter than batch * len";
  if not (Dtype.equal (Global_tensor.dtype x) Dtype.F16) then
    invalid_arg "Batched_scan: input must be f16"

(* Resolve the optional row window and output tensor shared by both
   schedules. Restricting [rows] scans only those rows (the others are
   left untouched in [y]) — the replay granule of the checkpointed
   runner in [Runtime.Resilient]. *)
let resolve ~batch ~len ~rows ~y ~suffix device x =
  let row_lo, row_hi =
    match rows with
    | None -> (0, batch)
    | Some (lo, hi) ->
        if lo < 0 || hi > batch || lo >= hi then
          invalid_arg
            (Printf.sprintf
               "Batched_scan: row range [%d,%d) outside batch [0,%d)" lo hi
               batch);
        (lo, hi)
  in
  let y =
    match y with
    | None ->
        Device.alloc device Dtype.F16 (batch * len)
          ~name:(Global_tensor.name x ^ suffix)
    | Some y ->
        if Global_tensor.length y < batch * len then
          invalid_arg "Batched_scan: output tensor shorter than batch * len";
        if not (Dtype.equal (Global_tensor.dtype y) Dtype.F16) then
          invalid_arg "Batched_scan: output must be f16";
        y
  in
  (row_lo, row_hi, y)

(* ScanU-based schedule: block [i] owns row pairs [p = i, i+B, ...];
   the cube core interleaves the tile-local scans of both rows of the
   pair, vector core [v] finishes row [2p + v]. *)
let run_u ?(s = 128) ?rows ?y device ~batch ~len x =
  Kernel_util.check_s ~who:"Batched_scan.run_u" Dtype.F16 s;
  check ~batch ~len x;
  let row_lo, row_hi, y =
    resolve ~batch ~len ~rows ~y ~suffix:"_bscanu" device x
  in
  let tile = s * s in
  let ntiles = Kernel_util.ceil_div len tile in
  let vpc = (Device.cost device).Cost_model.vec_per_core in
  let p_lo = row_lo / vpc in
  let p_hi = Kernel_util.ceil_div row_hi vpc in
  let blocks = Scheduler.blocks (Scheduler.plan device ~n:(p_hi - p_lo)) in
  let body ctx =
    let i = Block.idx ctx in
    let mine =
      List.filter
        (fun p -> p mod blocks = i)
        (List.init (p_hi - p_lo) (fun k -> p_lo + k))
    in
    if mine <> [] then begin
      let schedule = Scan_core.current_schedule () in
      let l0a =
        Array.init 2 (fun _ -> Block.alloc ctx Mem_kind.L0a Dtype.F16 tile)
      in
      let l0c =
        Array.init 2 (fun _ -> Block.alloc ctx Mem_kind.L0c Dtype.F32 tile)
      in
      let u =
        Scan_core.load_cube_encoding
          (module Scan_op.Sum)
          ctx ~engine:Engine.Cube_mte_in ~kind:Mem_kind.L0b ~dtype:Dtype.F16 ~s
      in
      let ubs =
        List.init vpc (fun v -> Block.alloc ctx (Mem_kind.Ub v) Dtype.F16 tile)
      in
      (* Flatten the (pair, tile, row) nest into one item stream so the
         cube pipeline double-buffers straight across row and pair
         boundaries — the ping-pong slots never drain between rows. *)
      let items =
        List.concat_map
          (fun p ->
            List.concat_map
              (fun t ->
                List.filter_map
                  (fun v ->
                    let j = (p * vpc) + v in
                    if j >= row_lo && j < row_hi && j < batch then
                      Some (t, v, (j * len) + (t * tile),
                            min tile (len - (t * tile)))
                    else None)
                  (List.init vpc Fun.id))
              (List.init ntiles Fun.id))
          mine
        |> Array.of_list
      in
      let partials = Array.make vpc 0.0 in
      Scan_core.pipeline ctx ~schedule ~out:(Engine.Cube_mte_out, 2)
        ~in_engine:Engine.Cube_mte_in ~n:(Array.length items)
        ~load:(fun ~slot k ->
          let _, _, off, tlen = items.(k) in
          Scan_core.stage_in ctx ~schedule ~engine:Engine.Cube_mte_in ~src:x
            ~src_off:off ~dst:l0a.(slot) ~len:tlen ())
        ~work:(fun ~slot k ->
          let t, v, off, tlen = items.(k) in
          let rows = Kernel_util.ceil_div tlen s in
          Cube.mmad ctx ~a:l0a.(slot) ~b:u ~c:l0c.(slot) ~m:rows ~k:s ~n:s
            ~accumulate:false;
          Scan_core.stage_out ctx ~schedule ~engine:Engine.Cube_mte_out
            ~src:l0c.(slot) ~dst:y ~dst_off:off ~len:tlen ();
          if t = 0 then partials.(v) <- 0.0;
          let partial = ref partials.(v) in
          Scan_core.finish_tile
            (module Scan_op.Sum)
            ctx ~vec:v ~await:Engine.Cube_mte_out ~src:y ~ub:(List.nth ubs v)
            ~dst:y ~off ~len:tlen ~s ~partial ();
          partials.(v) <- !partial)
        ()
    end
  in
  let stats = Launch.run ~name:"batched_scan_u" device ~blocks body in
  (y, stats)

(* ScanUL1-based schedule: block [i] runs a full ScanUL1 on every row
   [j = i, i+B, ...] using its cube core and vector core 0. *)
let run_ul1 ?(s = 128) ?rows ?y device ~batch ~len x =
  Kernel_util.check_s ~who:"Batched_scan.run_ul1" Dtype.F16 s;
  check ~batch ~len x;
  let row_lo, row_hi, y =
    resolve ~batch ~len ~rows ~y ~suffix:"_bscanul1" device x
  in
  let tile = s * s in
  let ntiles = Kernel_util.ceil_div len tile in
  let blocks = Scheduler.blocks (Scheduler.plan device ~n:(row_hi - row_lo)) in
  let body ctx =
    let i = Block.idx ctx in
    let mine =
      List.filter
        (fun j -> j mod blocks = i)
        (List.init (row_hi - row_lo) (fun k -> row_lo + k))
    in
    if mine <> [] then begin
      let schedule = Scan_core.current_schedule () in
      let bufs = Scan_ul1.alloc_bufs ctx ~s in
      let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 tile in
      (* One flat item stream over (row, tile) so the L0A/C2 ping-pong
         slots stay full across row boundaries. *)
      let items =
        List.concat_map
          (fun j ->
            List.init ntiles (fun t ->
                (t, (j * len) + (t * tile), min tile (len - (t * tile)))))
          mine
        |> Array.of_list
      in
      let partial = ref (Scan_op.Sum.identity Dtype.F16) in
      Scan_core.pipeline ctx ~schedule ~out:(Engine.Cube_mte_out, 2)
        ~in_engine:Engine.Cube_mte_in ~n:(Array.length items)
        ~load:(fun ~slot k ->
          let _, off, tlen = items.(k) in
          Scan_ul1.load_tile ctx ~schedule ~x ~off ~len:tlen ~bufs ~slot)
        ~work:(fun ~slot k ->
          let t, off, tlen = items.(k) in
          if t = 0 then partial := Scan_op.Sum.identity Dtype.F16;
          Scan_ul1.compute_tile ctx ~schedule ~y ~off ~len:tlen ~s ~bufs ~slot;
          Scan_core.finish_tile
            (module Scan_op.Sum)
            ctx ~await:Engine.Cube_mte_out ~src:y ~ub ~dst:y ~off ~len:tlen
            ~s:tile ~partial ())
        ()
    end
  in
  let stats = Launch.run ~name:"batched_scan_ul1" device ~blocks body in
  (y, stats)
