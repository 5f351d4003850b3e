open Ascend

let sample ?(s = 128) device ~weights ~theta =
  if not (0.0 <= theta && theta < 1.0) then
    invalid_arg "Weighted_sampling.sample: theta out of [0, 1)";
  if not (Dtype.equal (Global_tensor.dtype weights) Dtype.F16) then
    invalid_arg "Weighted_sampling.sample: weights must be f16";
  let n = Global_tensor.length weights in
  if n = 0 then invalid_arg "Weighted_sampling.sample: empty weights";
  let cdf, st_scan = Scan.Mcscan.run ~s device weights in
  let total = Ops_util.read_scalar cdf (n - 1) ~default:1.0 in
  if Device.functional device && not (total > 0.0) then
    invalid_arg "Weighted_sampling.sample: weights must have positive sum";
  let target = theta *. total in
  (* flags.(i) = cdf.(i) > target; the sample is the first flagged
     index (at least one exists since cdf.(n-1) = total > target). *)
  let flags = Device.alloc device Dtype.I8 n ~name:"wsample_flags" in
  let st_cmp =
    Map_kernel.run ~name:"wsample_cmp" device ~inputs:[ cdf ] ~output:flags
      ~f:(fun ctx ~vec ~ins ~out ~scratch:_ ~len ->
        match ins with
        | [ src ] ->
            Vec.compare_scalar ctx ~vec Vec.Gt ~src ~dst:out ~scalar:target
              ~len ()
        | _ -> assert false)
  in
  (* SplitInd on the cdf itself; only the index permutation matters:
     the first true's original index is the sample. *)
  let r =
    Split.run ~s ~with_indices:true ~expected_density:(1.0 -. theta) device
      ~x:cdf ~flags ()
  in
  let idx =
    match r.Split.indices with
    | Some gi -> int_of_float (Ops_util.read_scalar gi 0 ~default:0.0)
    | None -> 0
  in
  let stats =
    Stats.combine ~name:"weighted_sampling" [ st_scan; st_cmp; r.Split.stats ]
  in
  (idx, stats)

let ub_tile = 8192

let sample_many ?(s = 128) device ~weights ~thetas =
  let k = Array.length thetas in
  if k = 0 then invalid_arg "Weighted_sampling.sample_many: no draws";
  Array.iter
    (fun theta ->
      if not (0.0 <= theta && theta < 1.0) then
        invalid_arg "Weighted_sampling.sample_many: theta out of [0, 1)")
    thetas;
  if not (Dtype.equal (Global_tensor.dtype weights) Dtype.F16) then
    invalid_arg "Weighted_sampling.sample_many: weights must be f16";
  let n = Global_tensor.length weights in
  if n = 0 then invalid_arg "Weighted_sampling.sample_many: empty weights";
  let cdf, st_scan = Scan.Mcscan.run ~s device weights in
  let total = Ops_util.read_scalar cdf (n - 1) ~default:1.0 in
  if Device.functional device && not (total > 0.0) then
    invalid_arg "Weighted_sampling.sample_many: weights must have positive sum";
  (* Search the draws in ascending target order with one cdf pass. *)
  let order = Array.init k Fun.id in
  Array.sort (fun a b -> Float.compare thetas.(a) thetas.(b)) order;
  let samples = Array.make k (n - 1) in
  let functional = Device.functional device in
  let body ctx =
    if Block.idx ctx = 0 then begin
      let schedule = Scan.Scan_core.current_schedule () in
      let ub =
        Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 ub_tile)
      in
      let mask = Block.alloc ctx (Mem_kind.Ub 0) Dtype.I8 ub_tile in
      let next = ref 0 in
      let ntiles = Scan.Kernel_util.ceil_div n ub_tile in
      Scan.Scan_core.pipeline_tiles ctx ~schedule
        ~in_engine:(Engine.Vec_mte_in 0) ~tile:ub_tile ~n
        ~load:(fun ~slot ~off ~len ->
          Scan.Scan_core.stage_in ctx ~schedule
            ~engine:(Engine.Vec_mte_in 0) ~src:cdf ~src_off:off
            ~dst:ub.(slot) ~len ())
        ~work:(fun ~slot ~off ~len ->
          let t = off / ub_tile in
          let ub = ub.(slot) in
          if functional then begin
            let tile_last = Vec.get ctx ub (len - 1) in
            (* Resolve every pending draw whose target this tile
               covers: count the strictly-greater suffix. *)
            while
              !next < k
              && (t = ntiles - 1
                 || thetas.(order.(!next)) *. total < tile_last)
            do
              let target = thetas.(order.(!next)) *. total in
              Vec.compare_scalar ctx Vec.Gt ~src:ub ~dst:mask ~scalar:target
                ~len ();
              let above =
                int_of_float (Vec.reduce_sum ctx ~src:mask ~len ())
              in
              samples.(order.(!next)) <- min (n - 1) (off + (len - above));
              incr next
            done
          end
          else begin
            (* Cost-only: draws spread uniformly over the tiles. *)
            let per_tile = Scan.Kernel_util.ceil_div k ntiles in
            for _ = 1 to per_tile do
              Vec.compare_scalar ctx Vec.Gt ~src:ub ~dst:mask ~scalar:0.5
                ~len ();
              ignore (Vec.reduce_sum ctx ~src:mask ~len ())
            done
          end)
        ()
    end
  in
  let st_pass = Launch.run ~name:"sample_many_search" device ~blocks:1 body in
  (samples, Stats.combine ~name:"weighted_sample_many" [ st_scan; st_pass ])
