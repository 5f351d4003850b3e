open Ascend

let ub_tile = 8192

(* Streaming copy through every vector core's MTE pair. *)
let clone device x =
  let n = Global_tensor.length x in
  if n = 0 then invalid_arg "Baseline.clone: empty input";
  let dt = Global_tensor.dtype x in
  let y = Device.alloc device dt n ~name:(Global_tensor.name x ^ "_clone") in
  let blocks = Scheduler.blocks (Scheduler.plan device ~n) in
  let vpc = (Device.cost device).Cost_model.vec_per_core in
  let vchunk = Scan.Kernel_util.ceil_div n (blocks * vpc) in
  let body ctx =
    let i = Block.idx ctx in
    let schedule = Scan.Scan_core.current_schedule () in
    let ubs =
      Array.init vpc (fun v ->
          Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub v) dt ub_tile))
    in
    for v = 0 to vpc - 1 do
      let lo = ((i * vpc) + v) * vchunk in
      let hi = min n (lo + vchunk) in
      if hi > lo then
        Scan.Scan_core.pipeline_tiles ctx ~schedule
          ~in_engine:(Engine.Vec_mte_in v) ~tile:ub_tile ~n:(hi - lo)
          ~load:(fun ~slot ~off ~len ->
            Scan.Scan_core.stage_in ctx ~schedule
              ~engine:(Engine.Vec_mte_in v) ~src:x ~src_off:(lo + off)
              ~dst:ubs.(v).(slot) ~len ())
          ~work:(fun ~slot ~off ~len ->
            Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v)
              ~src:ubs.(v).(slot) ~dst:y ~dst_off:(lo + off) ~len ())
          ()
    done
  in
  let stats = Launch.run ~name:"torch_clone" device ~blocks body in
  (y, stats)

let cumsum device x =
  let y, stats = Scan.Scan_vec_only.run device x in
  (y, { stats with Stats.name = "torch_cumsum" })

(* Element-by-element scalar-unit loop: the engine usage the paper
   reports for the stock masked_select. *)
let masked_select device ~x ~mask =
  let n = Global_tensor.length x in
  if Global_tensor.length mask <> n then
    invalid_arg "Baseline.masked_select: length mismatch";
  if n = 0 then invalid_arg "Baseline.masked_select: empty input";
  let y =
    Device.alloc device (Global_tensor.dtype x) n
      ~name:(Global_tensor.name x ^ "_msel")
  in
  let count = ref 0 in
  let body ctx =
    for i = 0 to n - 1 do
      let m = Scalar_unit.gm_read ctx mask i in
      Scalar_unit.ops ctx ~count:2;
      if (not (Block.functional ctx)) && i land 1 = 0 then
        (* Cost-only: charge the expected half of the value accesses. *)
        ignore (Scalar_unit.gm_read ctx x i)
      else if Block.functional ctx && m <> 0.0 then begin
        let v = Scalar_unit.gm_read ctx x i in
        Scalar_unit.gm_write ctx y !count v;
        incr count
      end
    done
  in
  let stats = Launch.run ~name:"torch_masked_select" device ~blocks:1 body in
  (y, !count, stats)

(* The torch.sort baseline: a bitonic network on the vector cores.
   Stages with stride >= tile are full read-modify-write passes over
   global memory (two strided tiles, vector Min/Max, write back).
   For each outer size k, all remaining sub-stages with stride < tile
   are fused into a single pass per tile: the tile is loaded once and
   the in-UB compare-exchange network runs on generic (unspecialised)
   vector code — modelled at [local_substage_instrs] region-sized
   vector instructions per sub-stage, which is what makes the stock
   operator lose to the radix sort at large input sizes while still
   winning below ~0.5M elements where the radix pass overheads
   dominate. *)

let local_substage_instrs = 20

(* Direction of the bitonic segment containing [base]: ascending when
   [base land k = 0]. *)
let stage_dir ~k base = base land k = 0

(* One global stage (k, d) with d >= tile: lows and highs live in
   distinct tiles; within any tile the direction is constant. *)
let bitonic_global_stage ~x ~n ~k ~d ~tile ctx =
  let blocks = Block.num_blocks ctx in
  let i = Block.idx ctx in
  let vpc = (Block.cost ctx).Cost_model.vec_per_core in
  let dt = Global_tensor.dtype x in
  let schedule = Scan.Scan_core.current_schedule () in
  (* The low/high operand tiles are staged ahead under the pipeline
     walker, so they ping-pong; min/max results are consumed by the
     synchronous stores in the same item. *)
  let lo_t =
    Array.init vpc (fun v ->
        Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub v) dt tile))
  in
  let hi_t =
    Array.init vpc (fun v ->
        Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub v) dt tile))
  in
  let mn_t = Array.init vpc (fun v -> Block.alloc ctx (Mem_kind.Ub v) dt tile) in
  let mx_t = Array.init vpc (fun v -> Block.alloc ctx (Mem_kind.Ub v) dt tile) in
  let items = ref [] in
  let seg = ref 0 in
  while !seg < n do
    let toff = ref 0 in
    while !toff < d do
      items := (!seg + !toff, !seg + !toff + d) :: !items;
      toff := !toff + tile
    done;
    seg := !seg + (2 * d)
  done;
  let items = Array.of_list (List.rev !items) in
  let mine = ref [] in
  Array.iteri (fun j it -> if j mod blocks = i then mine := it :: !mine) items;
  let mine = Array.of_list (List.rev !mine) in
  (* All compare-exchange pairs of one stage are disjoint, so
     prefetching item [t+1]'s operands before item [t]'s writes land
     reads the same values the serial order would. *)
  for v = 0 to vpc - 1 do
    let mine_v = ref [] in
    Array.iteri
      (fun j it -> if j mod vpc = v then mine_v := it :: !mine_v)
      mine;
    let mine_v = Array.of_list (List.rev !mine_v) in
    if Array.length mine_v > 0 then
      Scan.Scan_core.pipeline ctx ~schedule ~in_engine:(Engine.Vec_mte_in v)
        ~n:(Array.length mine_v)
        ~load:(fun ~slot t ->
          let off_lo, off_hi = mine_v.(t) in
          let len = min tile (n - off_lo) in
          Scan.Scan_core.stage_in ctx ~schedule
            ~engine:(Engine.Vec_mte_in v) ~src:x ~src_off:off_lo
            ~dst:lo_t.(v).(slot) ~len ();
          Scan.Scan_core.stage_in ctx ~schedule
            ~engine:(Engine.Vec_mte_in v) ~src:x ~src_off:off_hi
            ~dst:hi_t.(v).(slot) ~len ())
        ~work:(fun ~slot t ->
          let off_lo, off_hi = mine_v.(t) in
          let len = min tile (n - off_lo) in
          let up = stage_dir ~k off_lo in
          Vec.binop ctx ~vec:v Vec.Min ~src0:lo_t.(v).(slot)
            ~src1:hi_t.(v).(slot) ~dst:(mn_t.(v)) ~len ();
          Vec.binop ctx ~vec:v Vec.Max ~src0:lo_t.(v).(slot)
            ~src1:hi_t.(v).(slot) ~dst:(mx_t.(v)) ~len ();
          let first, second =
            if up then (mn_t.(v), mx_t.(v)) else (mx_t.(v), mn_t.(v))
          in
          Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:first ~dst:x
            ~dst_off:off_lo ~len ();
          Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:second ~dst:x
            ~dst_off:off_hi ~len ())
        ()
  done

(* Host-side compare-exchange of all sub-stages [d0 .. 1] of outer size
   [k] inside one UB tile starting at global offset [base]. Semantics
   of the generic vector code the cost is charged for. *)
let local_network buf ~base ~len ~k ~d0 =
  let d = ref d0 in
  while !d >= 1 do
    for i = 0 to len - 1 do
      let j = i lxor !d in
      if j > i && j < len then begin
        let up = stage_dir ~k (base + i) in
        let a = Ascend.Host_buffer.get buf i
        and b = Ascend.Host_buffer.get buf j in
        if (up && a > b) || ((not up) && a < b) then begin
          Ascend.Host_buffer.set buf i b;
          Ascend.Host_buffer.set buf j a
        end
      end
    done;
    d := !d / 2
  done

(* Fused pass: for outer size k, runs every sub-stage with stride
   d0 = min (k/2) (tile/2) down to 1 over each tile in one load/store. *)
let bitonic_fused_stage ~x ~n ~k ~tile ctx =
  let blocks = Block.num_blocks ctx in
  let i = Block.idx ctx in
  let vpc = (Block.cost ctx).Cost_model.vec_per_core in
  let dt = Global_tensor.dtype x in
  let schedule = Scan.Scan_core.current_schedule () in
  let tiles =
    Array.init vpc (fun v ->
        Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub v) dt tile))
  in
  let ntiles = (n + tile - 1) / tile in
  let mine = ref [] in
  for t = ntiles - 1 downto 0 do
    if t mod blocks = i then mine := t :: !mine
  done;
  let mine = Array.of_list !mine in
  let d0 = min (k / 2) (tile / 2) in
  let substages =
    let rec count d acc = if d < 1 then acc else count (d / 2) (acc + 1) in
    count d0 0
  in
  let cm = Block.cost ctx in
  (* Tiles are disjoint, so prefetching the next tile under the walker
     never observes an in-flight write-back. *)
  for v = 0 to vpc - 1 do
    let mine_v = ref [] in
    Array.iteri (fun j t -> if j mod vpc = v then mine_v := t :: !mine_v) mine;
    let mine_v = Array.of_list (List.rev !mine_v) in
    if Array.length mine_v > 0 then
      Scan.Scan_core.pipeline ctx ~schedule ~in_engine:(Engine.Vec_mte_in v)
        ~n:(Array.length mine_v)
        ~load:(fun ~slot j ->
          let t = mine_v.(j) in
          let off = t * tile in
          let len = min tile (n - off) in
          Scan.Scan_core.stage_in ctx ~schedule
            ~engine:(Engine.Vec_mte_in v) ~src:x ~src_off:off
            ~dst:tiles.(v).(slot) ~len ())
        ~work:(fun ~slot j ->
          let t = mine_v.(j) in
          let off = t * tile in
          let len = min tile (n - off) in
          (* Generic vector code for the in-tile network. *)
          Block.charge ~op:"scan_network" ctx (Engine.Vec v)
            (float_of_int (local_substage_instrs * substages)
            *. Block.vec_op_cycles cm
                 ~bytes:(len * Dtype.size_bytes dt));
          if Block.functional ctx then begin
            Local_tensor.touch tiles.(v).(slot);
            local_network
              (Local_tensor.buffer tiles.(v).(slot))
              ~base:off ~len ~k ~d0
          end;
          Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v)
            ~src:tiles.(v).(slot) ~dst:x ~dst_off:off ~len ())
        ()
  done

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let sort ?(descending = false) device x =
  let n = Global_tensor.length x in
  if not (is_power_of_two n) then
    invalid_arg "Baseline.sort: length must be a power of two";
  if not (Dtype.equal (Global_tensor.dtype x) Dtype.F16) then
    invalid_arg "Baseline.sort: input must be f16";
  let y, clone_stats = clone device x in
  let tile = ub_tile in
  let phases = ref [] in
  let k = ref 2 in
  while !k <= n do
    let kk = !k in
    let d = ref (!k / 2) in
    while !d >= tile do
      let dd = !d in
      phases := bitonic_global_stage ~x:y ~n ~k:kk ~d:dd ~tile :: !phases;
      d := !d / 2
    done;
    (* All remaining sub-stages (stride < tile) fuse into one pass. *)
    phases := bitonic_fused_stage ~x:y ~n ~k:kk ~tile :: !phases;
    k := !k * 2
  done;
  let blocks = Scheduler.blocks (Scheduler.plan device ~n) in
  let stats =
    Launch.run_phases ~name:"torch_sort" device ~blocks (List.rev !phases)
  in
  (* Descending order: reverse is folded into the last pass on real
     hardware; modelled as one extra streaming pass. *)
  let y, stats =
    if descending then begin
      let rev =
        Device.alloc device Dtype.F16 n ~name:(Global_tensor.name x ^ "_rev")
      in
      let rstats =
        Map_kernel.run ~name:"torch_sort_reverse" device ~inputs:[ y ]
          ~output:rev
          ~f:(fun ctx ~vec ~ins ~out ~scratch:_ ~len ->
            match ins with
            | [ src ] -> Vec.copy ctx ~vec ~src ~dst:out ~len ()
            | _ -> assert false)
      in
      (* The in-tile copy above charges the pass; the global reversal
         itself is a strided addressing mode of the MTE writes. *)
      if Device.functional device then begin
        for i = 0 to n - 1 do
          Global_tensor.set rev i (Global_tensor.get y (n - 1 - i))
        done
      end;
      (rev, Stats.combine ~name:"torch_sort" [ clone_stats; stats; rstats ])
    end
    else (y, Stats.combine ~name:"torch_sort" [ clone_stats; stats ])
  in
  (y, stats)

(* Streaming top-k: sort each tile with the vector-sort instructions,
   keep the k best, and merge into a running candidate buffer. *)
let topk device x ~k =
  if not (Device.functional device) then
    invalid_arg "Baseline.topk: functional mode only";
  let n = Global_tensor.length x in
  if k <= 0 || k > 4096 || k > n then
    invalid_arg "Baseline.topk: k out of range (1..4096, <= n)";
  let dt = Global_tensor.dtype x in
  let out = Device.alloc device dt k ~name:(Global_tensor.name x ^ "_topk") in
  let blocks = Scheduler.blocks (Scheduler.plan device ~n) in
  let vpc = (Device.cost device).Cost_model.vec_per_core in
  let nvec = blocks * vpc in
  let vchunk = Scan.Kernel_util.ceil_div n nvec in
  (* Per-vector-core candidates land in GM; a final single-core pass
     sorts the (nvec * k)-element candidate list. *)
  let cand = Device.alloc device dt (nvec * k) ~name:"topk_cand" in
  let phase1 ctx =
    let i = Block.idx ctx in
    let schedule = Scan.Scan_core.current_schedule () in
    let tiles =
      Array.init vpc (fun v ->
          Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub v) dt ub_tile))
    in
    let accs = Array.init vpc (fun v -> Block.alloc ctx (Mem_kind.Ub v) dt (2 * k)) in
    for v = 0 to vpc - 1 do
      let lo = ((i * vpc) + v) * vchunk in
      let hi = min n (lo + vchunk) in
      if hi > lo then begin
        Vec.dup ctx ~vec:v ~dst:(accs.(v)) ~scalar:neg_infinity ~len:(2 * k) ();
        (* The running-candidate merge is a serial chain through
           [accs.(v)]; only the tile loads ping-pong. *)
        Scan.Scan_core.pipeline_tiles ctx ~schedule
          ~in_engine:(Engine.Vec_mte_in v) ~tile:ub_tile ~n:(hi - lo)
          ~load:(fun ~slot ~off ~len ->
            Scan.Scan_core.stage_in ctx ~schedule
              ~engine:(Engine.Vec_mte_in v) ~src:x ~src_off:(lo + off)
              ~dst:tiles.(v).(slot) ~len ())
          ~work:(fun ~slot ~off:_ ~len ->
            Vec.sort_region ctx ~vec:v ~descending:true ~src:tiles.(v).(slot)
              ~dst:tiles.(v).(slot) ~len ();
            (* Merge the tile's top-k with the running candidates. *)
            Vec.copy ctx ~vec:v ~src:tiles.(v).(slot) ~dst:(accs.(v))
              ~dst_off:k ~len:(min k len) ();
            Vec.sort_region ctx ~vec:v ~descending:true ~src:(accs.(v))
              ~dst:(accs.(v)) ~len:(2 * k) ())
          ();
        let kidx = (i * vpc) + v in
        Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:(accs.(v))
          ~dst:cand ~dst_off:(kidx * k) ~len:k ()
      end
    done
  in
  let phase2 ctx =
    if Block.idx ctx = 0 then begin
      (* Sequentially merge the per-vector-core candidate lists into a
         single running top-k buffer on one vector core. *)
      let buf = Block.alloc ctx (Mem_kind.Ub 0) dt (2 * k) in
      Vec.dup ctx ~dst:buf ~scalar:neg_infinity ~len:(2 * k) ();
      for g = 0 to nvec - 1 do
        Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:cand
          ~src_off:(g * k) ~dst:buf ~dst_off:k ~len:k ();
        Vec.sort_region ctx ~descending:true ~src:buf ~dst:buf ~len:(2 * k) ()
      done;
      Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:buf ~dst:out ~len:k ()
    end
  in
  let stats =
    Launch.run_phases ~name:"torch_topk" device ~blocks [ phase1; phase2 ]
  in
  (out, stats)

let max_multinomial_support = 1 lsl 24

(* Single-core cumulative sum plus scalar binary search, with the stock
   operator's 2^24 support limit. *)
let multinomial device ~weights ~theta =
  let n = Global_tensor.length weights in
  if n > max_multinomial_support then
    invalid_arg
      (Printf.sprintf "Baseline.multinomial: support %d exceeds 2^24" n);
  if theta < 0.0 || theta >= 1.0 then
    invalid_arg "Baseline.multinomial: theta out of [0, 1)";
  let cdf, scan_stats = cumsum device weights in
  let sample = ref 0 in
  let body ctx =
    (* log2 n scalar probes of the cdf. *)
    let steps = int_of_float (Float.ceil (Float.log2 (float_of_int (max 2 n)))) in
    if Block.functional ctx then begin
      let total = Global_tensor.get cdf (n - 1) in
      let target = theta *. total in
      let lo = ref 0 and hi = ref (n - 1) in
      for _ = 1 to steps do
        if !lo < !hi then begin
          let mid = (!lo + !hi) / 2 in
          let v = Scalar_unit.gm_read ctx cdf mid in
          if v <= target then lo := mid + 1 else hi := mid
        end
        else ignore (Scalar_unit.gm_read ctx cdf !lo)
      done;
      sample := !lo
    end
    else
      for _ = 1 to steps do
        ignore (Scalar_unit.gm_read ctx cdf 0)
      done
  in
  let search_stats = Launch.run ~name:"multinomial_search" device ~blocks:1 body in
  (!sample, Stats.combine ~name:"torch_multinomial" [ scan_stats; search_stats ])
