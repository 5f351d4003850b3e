(* Distributed scan: shard-local scans -> prefix exchange -> fixup.

   Placement invariance is the load-bearing property here. Shard
   geometry is fixed by the logical shard count (pod creation geometry
   by default), never by which devices survive; every simulated device
   is identical; and the fixup adds the same prefix values wherever a
   shard lands. So output bytes AND the combined launch Stats are
   bit-identical for any surviving-device subset — only the link-side
   counters (reported separately) depend on placement. The exchange
   schedules fold shard totals in ascending shard order with one fp16
   rounding per step, so Ring and All_gather are numerically identical
   and differ only in link traffic and critical path. *)

open Ascend
module P = Pod

type schedule = Ring | All_gather

let default_schedule pod =
  match P.topology pod with P.Ring -> Ring | P.Fully_connected -> All_gather

(* One device-prefix packet on the wire: an 8-byte header (shard index,
   epoch) plus the fp16 total padded to the 32-byte link flit. *)
let prefix_packet_bytes = 32

type report = {
  y : Global_tensor.t;
  stats : Stats.t;
  shards : (int * int * int) list;
  link_seconds : float;
  exchange_sends : int;
  exchange_retries : int;
  rerouted : int;
}

let phase pod label ~start_s =
  P.sync_clocks pod;
  let now =
    List.fold_left (fun m i -> Float.max m (P.clock pod i)) 0.0
      (P.alive_devices pod)
  in
  P.record pod
    {
      P.ev_kind = P.Phase;
      ev_device = 0;
      ev_peer = None;
      ev_label = label;
      ev_start_s = start_s;
      ev_dur_s = Float.max 0.0 (now -. start_s);
    };
  now

let run ?s ?schedule ?shards ?local pod x =
  let d = P.num_devices pod in
  if P.alive_count pod = 0 then raise Health.All_cores_dead;
  let primary = P.primary pod in
  let functional = Device.functional primary in
  let n = Global_tensor.length x in
  let dt = Global_tensor.dtype x in
  if not (Dtype.equal dt Dtype.F16) then
    invalid_arg
      (Printf.sprintf "Dist_scan.run: input must be f16 (got %s)"
         (Dtype.to_string dt));
  let nshards =
    match shards with
    | None -> d
    | Some k ->
        if k < 1 then invalid_arg "Dist_scan.run: shards must be >= 1";
        min k d
  in
  let sched = match schedule with Some s -> s | None -> default_schedule pod in
  let local_scan =
    match local with
    | Some f -> f
    | None -> fun dev xs -> Mcscan.run ?s dev xs
  in
  (* Failover rule: shard i runs on device i when alive, else on the
     next alive device in ascending cyclic order — deterministic, like
     the core-level replacement in Health/Scheduler. *)
  let exec_of i =
    let i = i mod d in
    if P.alive pod i then i
    else
      let rec go k =
        if k = d then raise Health.All_cores_dead
        else
          let c = (i + k) mod d in
          if P.alive pod c then c else go (k + 1)
      in
      go 1
  in
  let bounds =
    Array.init nshards (fun i -> (i * n / nshards, (i + 1) * n / nshards))
  in
  let execs = Array.init nshards exec_of in
  P.sync_clocks pod;
  let t_local = P.clock pod execs.(0) in
  let sends0 = P.link_sends pod in
  let retries0 = P.link_retries pod in
  let reroutes0 = P.reroutes pod in
  let link_s0 = P.link_seconds pod in
  (* Phase 1: shard-local scans, conceptually parallel across devices
     (each executor's clock advances independently). *)
  let shard_y = Array.make nshards None in
  let totals = Array.make nshards 0.0 in
  let stats_rev = ref [] in
  for i = 0 to nshards - 1 do
    let lo, hi = bounds.(i) in
    let len = hi - lo in
    if len > 0 then begin
      let e = execs.(i) in
      let dev = P.device pod e in
      let name = Printf.sprintf "dist_shard%d" i in
      let xs =
        if functional then
          Device.of_array dev dt ~name
            (Array.init len (fun j -> Global_tensor.get x (lo + j)))
        else Device.alloc dev dt len ~name
      in
      let t0 = P.clock pod e in
      let ys, st = local_scan dev xs in
      shard_y.(i) <- Some ys;
      stats_rev := st :: !stats_rev;
      P.advance_clock pod e st.Stats.seconds;
      P.record pod
        {
          P.ev_kind = P.Local_scan;
          ev_device = e;
          ev_peer = None;
          ev_label = Printf.sprintf "shard %d: local scan (%d elems)" i len;
          ev_start_s = t0;
          ev_dur_s = st.Stats.seconds;
        };
      if functional then totals.(i) <- Global_tensor.get ys (len - 1)
    end
  done;
  let t_exchange = phase pod "local scans" ~start_s:t_local in
  (* Prefix chain: ascending shard order, one fp16 rounding per fold —
     the value every exchange schedule delivers. *)
  let prefixes = Array.make nshards 0.0 in
  let running = ref 0.0 in
  for i = 0 to nshards - 1 do
    prefixes.(i) <- !running;
    running := Fp16.round (!running +. totals.(i))
  done;
  (* Phase 2: move the totals over the links. Same-physical-device
     hops are free; failed links retry, reroute, or raise
     Partitioned. *)
  (match sched with
  | Ring ->
      for i = 0 to nshards - 2 do
        ignore
          (P.send pod ~src:execs.(i) ~dst:execs.(i + 1)
             ~bytes:prefix_packet_bytes
             ~label:(Printf.sprintf "prefix[%d]" (i + 1)))
      done
  | All_gather ->
      for i = 0 to nshards - 1 do
        for j = 0 to nshards - 1 do
          if i <> j then
            ignore
              (P.send pod ~src:execs.(i) ~dst:execs.(j)
                 ~bytes:prefix_packet_bytes
                 ~label:(Printf.sprintf "total[%d]" i))
        done
      done);
  let t_fixup = phase pod "prefix exchange" ~start_s:t_exchange in
  (* Phase 3: per-shard fixup — a real vector kernel adding the shard
     prefix on the executing device. Shard 0's prefix is the identity
     and is skipped, as is any zero prefix (adding 0.0 is a no-op the
     single-device kernels don't charge either). Cost-only mode has no
     values, so it charges every non-first shard. *)
  for i = 0 to nshards - 1 do
    let lo, hi = bounds.(i) in
    let len = hi - lo in
    let wanted =
      len > 0 && i > 0 && ((not functional) || prefixes.(i) <> 0.0)
    in
    if wanted then begin
      let e = execs.(i) in
      let dev = P.device pod e in
      let ys = Option.get shard_y.(i) in
      let scalar = prefixes.(i) in
      let t0 = P.clock pod e in
      let st =
        Launch.run ~name:(Printf.sprintf "dist_fixup%d" i) dev ~blocks:1
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
      stats_rev := st :: !stats_rev;
      P.advance_clock pod e st.Stats.seconds;
      P.record pod
        {
          P.ev_kind = P.Fixup;
          ev_device = e;
          ev_peer = None;
          ev_label = Printf.sprintf "shard %d: fixup (+%g)" i scalar;
          ev_start_s = t0;
          ev_dur_s = st.Stats.seconds;
        }
    end
  done;
  ignore (phase pod "fixup" ~start_s:t_fixup);
  (* Gather the sharded outputs into one tensor on the primary. This is
     a host-side view change (a real pod would leave the result
     sharded), so it charges nothing. *)
  let y = Device.alloc primary dt n ~name:"dist_scan_y" in
  if functional then
    for i = 0 to nshards - 1 do
      let lo, hi = bounds.(i) in
      match shard_y.(i) with
      | Some ys ->
          for j = 0 to hi - lo - 1 do
            Global_tensor.set y (lo + j) (Global_tensor.get ys j)
          done
      | None -> ()
    done;
  let stats =
    match List.rev !stats_rev with
    | [] ->
        (* n = 0: nothing launched; an empty Stats keeps the API total. *)
        Stats.empty ~name:"dist_scan"
    | l -> Stats.combine ~name:"dist_scan" l
  in
  {
    y;
    stats;
    shards =
      Array.to_list (Array.mapi (fun i (lo, hi) -> (lo, hi, execs.(i))) bounds);
    link_seconds = P.link_seconds pod -. link_s0;
    exchange_sends = P.link_sends pod - sends0;
    exchange_retries = P.link_retries pod - retries0;
    rerouted = P.reroutes pod - reroutes0;
  }
