open Ascend

(* ------------------------------------------------------------------ *)
(* Pipeline schedules. *)

type schedule = Serial | Double | Triple

let schedule_name = function
  | Serial -> "serial"
  | Double -> "double"
  | Triple -> "triple"

let default_schedule = ref Triple
let current_schedule () = !default_schedule

let with_schedule sched f =
  let prev = !default_schedule in
  default_schedule := sched;
  Fun.protect ~finally:(fun () -> default_schedule := prev) f

(* Inbound copies go async under any pipelined schedule; outbound
   copies go async only under [Triple] (the 3-stage shape) — and only
   for kernels with a dedicated store buffer, which opt in via the
   walker's [out] parameter. *)
let stage_in ctx ~schedule ~engine ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~len
    () =
  match schedule with
  | Serial -> Mte.copy_in ctx ~engine ~src ~src_off ~dst ~dst_off ~len ()
  | Double | Triple ->
      Mte.copy_in_async ctx ~engine ~src ~src_off ~dst ~dst_off ~len ()

let stage_out ctx ~schedule ~engine ~src ?(src_off = 0) ~dst ?(dst_off = 0)
    ~len () =
  match schedule with
  | Serial | Double -> Mte.copy_out ctx ~engine ~src ~src_off ~dst ~dst_off ~len ()
  | Triple -> Mte.copy_out_async ctx ~engine ~src ~src_off ~dst ~dst_off ~len ()

(* The double-buffered pipeline walker every kernel is built on.

   [load ~slot t] stages item [t]'s inputs into ping-pong slot [slot]
   (via {!stage_in} on [in_engine]); [work ~slot t] consumes the slot —
   compute plus stores. Under [Double]/[Triple] the walker issues
   [load (t+1)] before [work t] and paces slot re-use with AscendC
   commit/wait groups, so copy-in of the next tile overlaps compute of
   the current one. [out = Some (engine, slots)] additionally makes the
   walker pace [slots] ping-pong store buffers: [work] must then issue
   its stores with {!stage_out} on that engine (async under [Triple]),
   and the walker's wait keeps a store in flight while the next item
   computes — the 3-stage shape. Kernels whose compute tile doubles as
   the store source (in-place propagation) pass [out = None] and store
   synchronously; their loads still overlap compute and stores.

   WAR safety of the 2-slot rotation: [load (t+1)] targets the slot
   last consumed by [work (t-1)], which the issuing lane has already
   completed, and — when [out] paces stores — last stored by iteration
   [t-1-(slots-1)], whose group the walker has already waited.

   [Serial] is the no-overlap ablation: everything synchronous with a
   full barrier between items, charging the serial sum of all engine
   work. *)
let pipeline ctx ?schedule ?out ~in_engine ~n ~load ~work () =
  let schedule =
    match schedule with Some s -> s | None -> !default_schedule
  in
  let out = match schedule with Triple -> out | Serial | Double -> None in
  (match schedule with
  | Serial ->
      for t = 0 to n - 1 do
        load ~slot:0 t;
        work ~slot:0 t;
        Block.wait_all ctx
      done
  | Double | Triple ->
      if n > 0 then begin
        load ~slot:0 0;
        Mte.commit_group ctx ~engine:in_engine;
        for t = 0 to n - 1 do
          (match out with
          | Some (oe, slots) when t > 0 ->
              Mte.wait_group ctx ~engine:oe ~outstanding:(slots - 1)
          | _ -> ());
          if t + 1 < n then begin
            load ~slot:((t + 1) land 1) (t + 1);
            Mte.commit_group ctx ~engine:in_engine
          end;
          Mte.wait_group ctx ~engine:in_engine
            ~outstanding:(if t + 1 < n then 1 else 0);
          work ~slot:(t land 1) t;
          match out with
          | Some (oe, _) -> Mte.commit_group ctx ~engine:oe
          | None -> ()
        done;
        match out with
        | Some (oe, _) -> Mte.wait_group ctx ~engine:oe ~outstanding:0
        | None -> ()
      end)

(* [pipeline] over [tile]-sized slices of [0, n): the walker shape of
   every tiled kernel. *)
let pipeline_tiles ctx ?schedule ?out ~in_engine ~tile ~n ~load ~work () =
  let ntiles = Kernel_util.ceil_div n tile in
  let slice t = (t * tile, min tile (n - (t * tile))) in
  pipeline ctx ?schedule ?out ~in_engine ~n:ntiles
    ~load:(fun ~slot t ->
      let off, len = slice t in
      load ~slot ~off ~len)
    ~work:(fun ~slot t ->
      let off, len = slice t in
      work ~slot ~off ~len)
    ()

let sub_block ~lo ~hi ~half v =
  let vlo = lo + (v * half) in
  let vhi = min hi (vlo + half) in
  (vlo, vhi)

let block_partition ~n ~blocks ~vpc ~chunk_align ~half_align =
  let chunk = Kernel_util.round_up (Kernel_util.ceil_div n blocks) chunk_align in
  let half = Kernel_util.round_up (Kernel_util.ceil_div chunk vpc) half_align in
  (chunk, half)

(* ------------------------------------------------------------------ *)
(* Partial propagation (Algorithm 1, lines 11-13, generic in the
   operator). *)

(* One tile-batched op replaces the historical per-row vec_scalar +
   Vec.get loop; Vec.scan_rows reproduces its charges, instruction
   counts and data bit for bit. *)
let propagate_rows (module Op : Scan_op.S) ctx ~vec ~ub ~len ~s ~partial =
  partial :=
    Vec.scan_rows ctx ~vec ~op:Op.vec_binop ~buf:ub ~len ~s ~init:!partial ()

let finish_tile (module Op : Scan_op.S) ctx ?(vec = 0) ?await ?src ~ub ~dst
    ~off ~len ~s ~partial () =
  (* [await] names the producing engine of [src] (typically the cube
     core's outbound MTE): the vector core's lane must not read [src]
     from GM before everything issued there — async stores included —
     has landed. *)
  Option.iter
    (fun on -> Block.await_engine ctx ~lane_of:(Engine.Vec_mte_in vec) ~on)
    await;
  Option.iter
    (fun src ->
      Mte.copy_in ctx ~engine:(Engine.Vec_mte_in vec) ~src ~src_off:off ~dst:ub
        ~len ())
    src;
  propagate_rows (module Op) ctx ~vec ~ub ~len ~s ~partial;
  Mte.copy_out ctx ~engine:(Engine.Vec_mte_out vec) ~src:ub ~dst ~dst_off:off
    ~len ()

let load_cube_encoding (module Op : Scan_op.S) ctx ~engine ~kind ~dtype ~s =
  match Op.cube_encoding with
  | Some which -> Const_mat.load ctx ~engine ~kind ~dtype ~s which
  | None ->
      invalid_arg
        (Printf.sprintf "Scan_core: operator %s has no cube-matrix encoding"
           Op.name)

(* ------------------------------------------------------------------ *)
(* Vector-only two-phase multi-block scan, generic in the operator
   (the decoupled-lookback shape of McScan restricted to the vector
   engines; this is what the bespoke max-scan kernel was). *)

let ub_tile = 8192

(* Phase I: per-vector-sub-block reductions into [r]. Each vector core
   runs its own double-buffered load/reduce pipeline on its own lane;
   issuing them one after another in program text still overlaps them
   on the timeline, because lanes are independent. *)
let vec_phase1 (module Op : Scan_op.S) ~x ~r ~chunk ~half ~n ~dt ctx =
  let i = Block.idx ctx in
  let vpc = (Block.cost ctx).Cost_model.vec_per_core in
  let lo = i * chunk in
  let hi = min n (lo + chunk) in
  if hi > lo then begin
    let schedule = !default_schedule in
    let ubs =
      List.init vpc (fun v ->
          Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub v) dt ub_tile))
    in
    let stage =
      List.init vpc (fun v -> Block.alloc ctx (Mem_kind.Ub v) dt 16)
    in
    List.iteri
      (fun v slots ->
        let vlo, vhi = sub_block ~lo ~hi ~half v in
        if vhi > vlo then begin
          let acc = ref (Op.identity dt) in
          pipeline_tiles ctx ~schedule ~in_engine:(Engine.Vec_mte_in v)
            ~tile:ub_tile ~n:(vhi - vlo)
            ~load:(fun ~slot ~off ~len ->
              stage_in ctx ~schedule ~engine:(Engine.Vec_mte_in v) ~src:x
                ~src_off:(vlo + off) ~dst:slots.(slot) ~len ())
            ~work:(fun ~slot ~off:_ ~len ->
              acc :=
                Op.combine !acc
                  (Op.vec_reduce ctx ~vec:v ~src:slots.(slot) ~len ()))
            ();
          let st = List.nth stage v in
          Vec.set ctx ~vec:v st 0 !acc;
          Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:st ~dst:r
            ~dst_off:((i * vpc) + v) ~len:1 ()
        end)
      ubs
  end

(* Phase II: per-tile Hillis-Steele scan under the operator, seeded
   with the reduction of all preceding sub-blocks and the running
   carry. *)
let vec_phase2 (module Op : Scan_op.S) ~x ~y ~r ~chunk ~half ~n ~dt ctx =
  let i = Block.idx ctx in
  let vpc = (Block.cost ctx).Cost_model.vec_per_core in
  let lo = i * chunk in
  let hi = min n (lo + chunk) in
  if hi > lo then begin
    let rlen = Global_tensor.length r in
    let schedule = !default_schedule in
    let bufs =
      List.init vpc (fun v ->
          ( Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub v) dt ub_tile),
            Block.alloc ctx (Mem_kind.Ub v) dt ub_tile,
            Block.alloc ctx (Mem_kind.Ub v) (Global_tensor.dtype r) rlen ))
    in
    List.iteri
      (fun v (slots, tmp, rub) ->
        let vlo, vhi = sub_block ~lo ~hi ~half v in
        if vhi > vlo then begin
          Mte.copy_in ctx ~engine:(Engine.Vec_mte_in v) ~src:r ~dst:rub
            ~len:rlen ();
          let k = (i * vpc) + v in
          let base =
            if k = 0 then Op.identity dt
            else Op.vec_reduce ctx ~vec:v ~src:rub ~len:k ()
          in
          let partial = ref base in
          (* The scanned slot is also the store source (in-place
             propagation), so stores stay synchronous; loads still
             run ahead of compute. *)
          pipeline_tiles ctx ~schedule ~in_engine:(Engine.Vec_mte_in v)
            ~tile:ub_tile ~n:(vhi - vlo)
            ~load:(fun ~slot ~off ~len ->
              stage_in ctx ~schedule ~engine:(Engine.Vec_mte_in v) ~src:x
                ~src_off:(vlo + off) ~dst:slots.(slot) ~len ())
            ~work:(fun ~slot ~off ~len ->
              let ub = slots.(slot) in
              Vec.hillis_steele ctx ~vec:v ~op:Op.vec_binop ~buf:ub ~tmp ~len
                ();
              partial :=
                Vec.scan_rows ctx ~vec:v ~op:Op.vec_binop ~buf:ub ~len ~s:len
                  ~init:!partial ();
              Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:ub ~dst:y
                ~dst_off:(vlo + off) ~len ())
            ()
        end)
      bufs
  end

let run_vec_blocks (module Op : Scan_op.S) ?blocks ~kernel_name ~suffix device
    x =
  let dt = Global_tensor.dtype x in
  if not (List.exists (Dtype.equal dt) Op.dtypes) then
    invalid_arg
      (Printf.sprintf "%s: unsupported dtype %s" kernel_name
         (Dtype.to_string dt));
  let n = Global_tensor.length x in
  if n = 0 then invalid_arg (Printf.sprintf "%s: empty input" kernel_name);
  let blocks =
    match blocks with
    | Some b -> b
    | None -> Scheduler.blocks (Scheduler.plan device ~n)
  in
  let vpc = (Device.cost device).Cost_model.vec_per_core in
  let chunk, half =
    block_partition ~n ~blocks ~vpc ~chunk_align:ub_tile ~half_align:ub_tile
  in
  let name = Global_tensor.name x in
  let y = Device.alloc device dt n ~name:(name ^ suffix) in
  let r = Device.alloc device dt (blocks * vpc) ~name:(name ^ suffix ^ "_r") in
  (* The identity must pre-fill r so empty sub-blocks are neutral. *)
  if Device.functional device then Global_tensor.fill r (Op.identity dt);
  let stats =
    Launch.run_phases ~name:kernel_name device ~blocks
      [
        vec_phase1 (module Op) ~x ~r ~chunk ~half ~n ~dt;
        vec_phase2 (module Op) ~x ~y ~r ~chunk ~half ~n ~dt;
      ]
  in
  (y, stats)
