(* Sharded scan over N devices: shard-local scans -> fp16 prefix chain
   -> fixup -> gather onto the primary.

   The shard totals fold in ascending shard order with one fp16
   rounding per step, so the output equals a single-device blocked
   scan bit for bit whenever the partial sums are exact in fp16. *)

open Ascend

let run ?s ~devices primary x =
  if devices < 1 then
    invalid_arg
      (Printf.sprintf "Dist_scan.run: devices must be >= 1 (got %d)" devices);
  let functional = Device.functional primary in
  let n = Global_tensor.length x in
  let dt = Global_tensor.dtype x in
  if not (Dtype.equal dt Dtype.F16) then
    invalid_arg
      (Printf.sprintf "Dist_scan.run: input must be f16 (got %s)"
         (Dtype.to_string dt));
  let devs =
    Array.init devices (fun i ->
        if i = 0 then primary
        else
          Device.create ~mode:(Device.mode primary)
            ~domains:(Device.domains primary) ())
  in
  let bounds =
    Array.init devices (fun i -> (i * n / devices, (i + 1) * n / devices))
  in
  (* Shard-local scans, shard i on device i. *)
  let shard_y = Array.make devices None in
  let totals = Array.make devices 0.0 in
  let stats_rev = ref [] in
  for i = 0 to devices - 1 do
    let lo, hi = bounds.(i) in
    let len = hi - lo in
    if len > 0 then begin
      let dev = devs.(i) in
      let name = Printf.sprintf "dist_shard%d" i in
      let xs =
        if functional then
          Device.of_array dev dt ~name
            (Array.init len (fun j -> Global_tensor.get x (lo + j)))
        else Device.alloc dev dt len ~name
      in
      let ys, st = Mcscan.run ?s dev xs in
      shard_y.(i) <- Some ys;
      stats_rev := st :: !stats_rev;
      if functional then totals.(i) <- Global_tensor.get ys (len - 1)
    end
  done;
  let prefixes = Array.make devices 0.0 in
  let running = ref 0.0 in
  for i = 0 to devices - 1 do
    prefixes.(i) <- !running;
    running := Fp16.round (!running +. totals.(i))
  done;
  (* Per-shard fixup: a vector kernel adding the shard prefix on the
     shard's device. Shard 0's prefix is the identity and is skipped,
     as is any zero prefix (adding 0.0 is a no-op the single-device
     kernels don't charge either). Cost-only mode has no values, so it
     charges every non-first shard. *)
  for i = 0 to devices - 1 do
    let lo, hi = bounds.(i) in
    let len = hi - lo in
    let wanted =
      len > 0 && i > 0 && ((not functional) || prefixes.(i) <> 0.0)
    in
    if wanted then begin
      let ys = Option.get shard_y.(i) in
      let scalar = prefixes.(i) in
      let st =
        Launch.run ~name:(Printf.sprintf "dist_fixup%d" i) devs.(i) ~blocks:1
          (fun ctx ->
            let tile = 16384 in
            let schedule = Scan_core.current_schedule () in
            let ub =
              Array.init 2 (fun _ ->
                  Block.alloc ctx (Mem_kind.Ub 0) dt (min tile len))
            in
            Scan_core.pipeline_tiles ctx ~schedule
              ~in_engine:(Engine.Vec_mte_in 0) ~tile ~n:len
              ~load:(fun ~slot ~off ~len ->
                Scan_core.stage_in ctx ~schedule
                  ~engine:(Engine.Vec_mte_in 0) ~src:ys ~src_off:off
                  ~dst:ub.(slot) ~len ())
              ~work:(fun ~slot ~off ~len ->
                Vec.adds ctx ~src:ub.(slot) ~dst:ub.(slot) ~scalar ~len ();
                Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0)
                  ~src:ub.(slot) ~dst:ys ~dst_off:off ~len ())
              ())
      in
      stats_rev := st :: !stats_rev
    end
  done;
  (* Gather the shards into one tensor on the primary: a host-side
     view change that charges nothing. *)
  let y = Device.alloc primary dt n ~name:"dist_scan_y" in
  if functional then
    Array.iteri
      (fun i (lo, hi) ->
        Option.iter
          (fun ys ->
            for j = 0 to hi - lo - 1 do
              Global_tensor.set y (lo + j) (Global_tensor.get ys j)
            done)
          shard_y.(i))
      bounds;
  let stats =
    match List.rev !stats_rev with
    | [] ->
        (* n = 0: nothing launched; an empty Stats keeps the API total. *)
        Stats.empty ~name:"dist_scan"
    | l -> Stats.combine ~name:"dist_scan" l
  in
  (y, stats)
