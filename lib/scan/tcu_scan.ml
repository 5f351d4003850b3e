open Ascend

(* Phase A: tile-local UL1 scans across all blocks; the last value of
   every tile is extracted into the carry array [t]. *)
let phase_local ~x ~y ~t ~s ~n ctx =
  let tile = s * s in
  let ntiles = Kernel_util.ceil_div n tile in
  let blocks = Block.num_blocks ctx in
  let i = Block.idx ctx in
  let mine = List.filter (fun k -> k mod blocks = i)
               (List.init ntiles Fun.id) in
  if mine <> [] then begin
    let schedule = Scan_core.current_schedule () in
    let bufs = Scan_ul1.alloc_bufs ctx ~s in
    let carry = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 16 in
    let items = Array.of_list mine in
    Scan_core.pipeline ctx ~schedule ~out:(Engine.Cube_mte_out, 2)
      ~in_engine:Engine.Cube_mte_in ~n:(Array.length items)
      ~load:(fun ~slot j ->
        let k = items.(j) in
        let off = k * tile in
        let len = min tile (n - off) in
        Scan_ul1.load_tile ctx ~schedule ~x ~off ~len ~bufs ~slot)
      ~work:(fun ~slot j ->
        let k = items.(j) in
        let off = k * tile in
        let len = min tile (n - off) in
        Scan_ul1.compute_tile ctx ~schedule ~y ~off ~len ~s ~bufs ~slot;
        (* Extract the tile's last (inclusive) value into t.(k); the
           vector MTE lane first joins the cube store stream so it
           reads the tile after the (possibly async) store retires. *)
        Block.await_engine ctx ~lane_of:(Engine.Vec_mte_in 0)
          ~on:Engine.Cube_mte_out;
        Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:y
          ~src_off:(off + len - 1) ~dst:carry ~len:1 ();
        Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:carry ~dst:t
          ~dst_off:k ~len:1 ())
      ()
  end

(* Phase B: broadcast-add the scanned carry of the previous tile. *)
let phase_add ~y ~scanned_t ~s ~n ctx =
  let tile = s * s in
  let ntiles = Kernel_util.ceil_div n tile in
  let blocks = Block.num_blocks ctx in
  let i = Block.idx ctx in
  let vpc = (Block.cost ctx).Cost_model.vec_per_core in
  let mine = List.filter (fun k -> k mod blocks = i)
               (List.init ntiles Fun.id) in
  if mine <> [] then begin
    let schedule = Scan_core.current_schedule () in
    let ubs =
      List.init vpc (fun v ->
          Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub v) Dtype.F16 tile))
    in
    let carries =
      List.init vpc (fun v ->
          Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub v) Dtype.F16 16))
    in
    (* Tiles alternate between the AI core's vector cores; each core
       runs its own 2-stage pipeline over its share of the tiles
       (add-in-place, so stores stay synchronous). *)
    for v = 0 to vpc - 1 do
      let items =
        List.filteri (fun idx _ -> idx mod vpc = v) mine
        |> List.filter (fun k -> k > 0)
        |> Array.of_list
      in
      let ub = List.nth ubs v and carry = List.nth carries v in
      Scan_core.pipeline ctx ~schedule ~in_engine:(Engine.Vec_mte_in v)
        ~n:(Array.length items)
        ~load:(fun ~slot j ->
          let k = items.(j) in
          let off = k * tile in
          let len = min tile (n - off) in
          Scan_core.stage_in ctx ~schedule ~engine:(Engine.Vec_mte_in v)
            ~src:scanned_t ~src_off:(k - 1) ~dst:carry.(slot) ~len:1 ();
          Scan_core.stage_in ctx ~schedule ~engine:(Engine.Vec_mte_in v)
            ~src:y ~src_off:off ~dst:ub.(slot) ~len ())
        ~work:(fun ~slot j ->
          let k = items.(j) in
          let off = k * tile in
          let len = min tile (n - off) in
          let c = Vec.get ctx ~vec:v carry.(slot) 0 in
          Vec.adds ctx ~vec:v ~src:ub.(slot) ~dst:ub.(slot) ~scalar:c ~len ();
          Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:ub.(slot)
            ~dst:y ~dst_off:off ~len ())
        ()
    done
  end

let rec scan_rec ?(s = 128) device x ~depth =
  let n = Global_tensor.length x in
  let tile = s * s in
  let name = Global_tensor.name x in
  if n <= tile then begin
    let y, stats = Scan_ul1.run ~s device x in
    (y, [ stats ])
  end
  else begin
    let ntiles = Kernel_util.ceil_div n tile in
    let y = Device.alloc device Dtype.F16 n ~name:(name ^ "_tcu_y") in
    let t =
      Device.alloc device Dtype.F16 ntiles
        ~name:(Printf.sprintf "%s_tcu_carry%d" name depth)
    in
    let blocks = Scheduler.blocks (Scheduler.plan device ~n:ntiles) in
    let s1 =
      Launch.run ~name:(Printf.sprintf "tcu_local_d%d" depth) device ~blocks
        (phase_local ~x ~y ~t ~s ~n)
    in
    let scanned_t, rec_stats = scan_rec ~s device t ~depth:(depth + 1) in
    let s2 =
      Launch.run ~name:(Printf.sprintf "tcu_add_d%d" depth) device ~blocks
        (phase_add ~y ~scanned_t ~s ~n)
    in
    (y, (s1 :: rec_stats) @ [ s2 ])
  end

let run ?(s = 128) device x =
  Kernel_util.check_s ~who:"Tcu_scan.run" Dtype.F16 s;
  if not (Dtype.equal (Global_tensor.dtype x) Dtype.F16) then
    invalid_arg "Tcu_scan.run: input must be f16";
  if Global_tensor.length x = 0 then invalid_arg "Tcu_scan.run: empty input";
  let y, stats = scan_rec ~s device x ~depth:0 in
  (y, Stats.combine ~name:"tcu_scan" stats)
