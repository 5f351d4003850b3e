(* Unit tests of block timing semantics, local allocation, and the
   launch-level scheduling / bandwidth model. *)

open Ascend

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_floatish msg a b = Alcotest.(check (float 1e-9)) msg a b

let device () = Device.create ()

(* Event-timeline semantics: synchronous charges chain on their lane
   (cube-side engines share lane 0), while different lanes only meet
   at the final makespan. *)
let test_same_lane_chains () =
  let dev = device () in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  Block.charge ctx Engine.Cube 100.0;
  Block.charge ctx Engine.Cube_mte_out 50.0;
  check_floatish "same lane = sum" 150.0 (Block.elapsed_cycles ctx)

let test_lanes_overlap () =
  let dev = device () in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  Block.charge ctx Engine.Cube 100.0;
  Block.charge ctx (Engine.Vec 0) 50.0;
  check_floatish "lanes overlap = max" 100.0 (Block.elapsed_cycles ctx)

let test_async_wait_group () =
  let dev = device () in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  (* Async copy of 100 cycles: the lane cursor does not move... *)
  Block.charge_async ctx Engine.Cube_mte_in 100.0;
  Block.commit_group ctx Engine.Cube_mte_in;
  check_floatish "async leaves lane" 0.0 (Block.lane_clock ctx Engine.Cube);
  check_floatish "async advances queue" 100.0
    (Block.engine_clock ctx Engine.Cube_mte_in);
  (* ...until the group is waited, which joins the lane at its end. *)
  Block.wait_group ctx Engine.Cube_mte_in ~outstanding:0;
  check_floatish "wait joins lane" 100.0 (Block.lane_clock ctx Engine.Cube);
  (* A compute op issued now starts at 100 on the same lane. *)
  Block.charge ctx Engine.Cube 25.0;
  check_floatish "chained after wait" 125.0 (Block.elapsed_cycles ctx)

let test_wait_group_outstanding () =
  let dev = device () in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  (* Two single-copy groups of 100 cycles each, back to back on the
     queue: waiting down to one outstanding group joins the lane at
     the FIRST group's end only. *)
  Block.charge_async ctx Engine.Cube_mte_in 100.0;
  Block.commit_group ctx Engine.Cube_mte_in;
  Block.charge_async ctx Engine.Cube_mte_in 100.0;
  Block.commit_group ctx Engine.Cube_mte_in;
  Block.wait_group ctx Engine.Cube_mte_in ~outstanding:1;
  check_floatish "waited to depth 1" 100.0 (Block.lane_clock ctx Engine.Cube);
  Block.wait_group ctx Engine.Cube_mte_in ~outstanding:0;
  check_floatish "drained" 200.0 (Block.lane_clock ctx Engine.Cube);
  Alcotest.check_raises "negative outstanding"
    (Invalid_argument "Block.wait_group: outstanding must be >= 0") (fun () ->
      Block.wait_group ctx Engine.Cube_mte_in ~outstanding:(-1))

let test_await_engine () =
  let dev = device () in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  Block.charge_async ctx Engine.Cube_mte_out 80.0;
  (* The vector lane joins the cube store queue's clock. *)
  Block.await_engine ctx ~lane_of:(Engine.Vec_mte_in 0) ~on:Engine.Cube_mte_out;
  Block.charge ctx (Engine.Vec 0) 10.0;
  check_floatish "vec after cube store" 90.0 (Block.elapsed_cycles ctx)

let test_alloc_capacity () =
  let dev = device () in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  (* L0A holds 64 KiB = 32768 f16 elements. *)
  let _ = Block.alloc ctx Mem_kind.L0a Dtype.F16 16384 in
  let _ = Block.alloc ctx Mem_kind.L0a Dtype.F16 16384 in
  check_bool "alloc overflow raises" true
    (try
       ignore (Block.alloc ctx Mem_kind.L0a Dtype.F16 1);
       false
     with Failure _ -> true);
  Block.reset_mem ctx Mem_kind.L0a;
  let t = Block.alloc ctx Mem_kind.L0a Dtype.F16 32768 in
  check_int "post-reset full alloc" 32768 t.Local_tensor.length

let test_gm_traffic_and_touched () =
  let dev = device () in
  let x = Device.alloc dev Dtype.F16 1000 ~name:"x" in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  Block.note_gm_traffic ctx ~read:100 ~write:50;
  Block.note_touched ctx x;
  Block.note_touched ctx x;
  let r = Block.finish ctx in
  check_int "read" 100 r.Block.gm_read_bytes;
  check_int "write" 50 r.Block.gm_write_bytes;
  check_int "touched dedup" 1 (List.length r.Block.touched);
  check_int "touched bytes" 2000 (snd (List.hd r.Block.touched))

(* Per-block op counts: one entry per distinct name (equal names merge
   even when they are different strings), any number of names, in
   first-seen order; a count of zero records nothing. *)
let test_op_counts () =
  let dev = device () in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  let a1 = String.concat "" [ "v"; "add" ] in
  let a2 = String.concat "" [ "va"; "dd" ] in
  check_bool "distinct strings" false (a1 == a2);
  Block.count_op ctx a1;
  Block.count_op ctx a2;
  Block.count_op_n ctx "vadd" 3;
  Block.count_op_n ctx "never" 0;
  let names = List.init 20 (Printf.sprintf "op%02d") in
  List.iteri (fun i name -> Block.count_op_n ctx name (i + 1)) names;
  Block.count_op ctx "op00";
  let r = Block.finish ctx in
  let expected =
    List.mapi (fun i name -> (name, if i = 0 then 2 else i + 1)) names
  in
  Alcotest.(check (list (pair string int)))
    "merged, first-seen order" ((a1, 5) :: expected) r.Block.op_counts

(* Counting an op the block has seen, charging an engine, a batch of
   rows, a GM copy of a size, tensor and direction the block has seen,
   or any engine op's one-step issue, with no trace armed, allocates
   nothing: a deterministic count of minor words, not a timing, so a
   closure, an option or a boxed float on that path shows up as a
   failure. *)
let test_charge_allocates_nothing () =
  let dev = Device.create ~mode:Device.Cost_only () in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  let g = Device.alloc dev Dtype.F16 1024 ~name:"g" in
  let lt = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 256 in
  Block.count_op ctx "vadd";
  let gm_in () =
    Block.gm_copy ctx (Engine.Vec_mte_in 0) ~async:false ~write:false g lt
      ~dst_off:0 ~len:256
  in
  let gm_out () =
    Block.gm_copy ctx (Engine.Vec_mte_out 0) ~async:true ~write:true g lt
      ~dst_off:512 ~len:256
  in
  check_bool "no fault" true
    (gm_in () = Fault.No_fault && gm_out () = Fault.No_fault);
  let names = [| "adds"; "scalar_get" |] and cycles = [| 25.0; 28.0 |] in
  let counts = Some [| ("adds", 64); ("scalar_get", 64) |] in
  Block.charge_rows ?counts ctx (Engine.Vec 0) ~count:64 ~names cycles;
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let overhead = words (fun () -> ()) in
  let count () =
    for _ = 1 to 10_000 do
      Block.count_op ctx "vadd"
    done
  in
  let charge () =
    for _ = 1 to 10_000 do
      Block.charge ctx (Engine.Vec 0) 1.0
    done
  in
  let copies () =
    for _ = 1 to 10_000 do
      ignore (gm_in ());
      ignore (gm_out ())
    done
  in
  let mte () =
    for _ = 1 to 10_000 do
      Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:g ~dst:lt ~len:256 ();
      Mte.copy_out_async ctx ~engine:(Engine.Vec_mte_out 0) ~src:lt ~dst:g
        ~dst_off:256 ~len:256 ()
    done
  in
  let rows () =
    for _ = 1 to 1_000 do
      Block.charge_rows ?counts ctx (Engine.Vec 0) ~count:64 ~names cycles
    done
  in
  check_floatish "count_op" 0.0 (words count -. overhead);
  check_floatish "charge" 0.0 (words charge -. overhead);
  check_floatish "gm_copy" 0.0 (words copies -. overhead);
  check_floatish "Mte copies" 0.0 (words mte -. overhead);
  check_floatish "charge_rows" 0.0 (words rows -. overhead);
  let r = Block.finish ctx in
  check_int "all counted" 10_001 (List.assoc "vadd" r.Block.op_counts);
  check_int "copies counted" 20_001
    (List.assoc "datacopy_in" r.Block.op_counts);
  check_int "rows counted" (64 * 1_001) (List.assoc "adds" r.Block.op_counts);
  (* Every engine op's one-step issue on a Cost_only device: checks,
     count, cycles and charge, with no boxed float, engine value or
     closure on the way. *)
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  let lt = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 256 in
  let ub n = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 n in
  let a = ub 256 and b = ub 256 and d = ub 256 and mask = ub 256 in
  let l1 = Block.alloc ctx Mem_kind.L1 Dtype.F16 256 in
  let l0a = Block.alloc ctx Mem_kind.L0a Dtype.F16 256 in
  let l0b = Block.alloc ctx Mem_kind.L0b Dtype.F16 256 in
  let l0c = Block.alloc ctx Mem_kind.L0c Dtype.F32 256 in
  let per name op =
    (* The first issue lists the op's name, which may grow the tally. *)
    op ();
    check_floatish name 0.0
      (words (fun () ->
           for _ = 1 to 10_000 do
             op ()
           done)
      -. overhead)
  in
  per "Vec.adds" (fun () ->
      Vec.adds ctx ~src:a ~dst:d ~scalar:1.0 ~len:256 ());
  per "Vec.add" (fun () -> Vec.add ctx ~src0:a ~src1:b ~dst:d ~len:256 ());
  per "Vec.compare_scalar" (fun () ->
      Vec.compare_scalar ctx Vec.Lt ~src:a ~dst:d ~scalar:0.5 ~len:256 ());
  per "Vec.select" (fun () ->
      Vec.select ctx ~mask ~src0:a ~src1:b ~dst:d ~len:256 ());
  per "Vec.gather_mask" (fun () ->
      ignore (Vec.gather_mask ctx ~src:a ~mask ~dst:d ~len:256 ()));
  per "Vec.reduce_sum" (fun () ->
      ignore (Vec.reduce_sum ctx ~src:a ~len:256 ()));
  per "Mte.copy_in" (fun () ->
      Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:g ~dst:lt ~len:128 ());
  per "Mte.copy_out" (fun () ->
      Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:lt ~dst:g ~len:64 ());
  per "Mte.copy_local" (fun () ->
      Mte.copy_local ctx ~engine:Engine.Cube_mte_in ~src:l1 ~dst:l0a ~len:256
        ());
  per "Cube.mmad" (fun () ->
      Cube.mmad ctx ~a:l0a ~b:l0b ~c:l0c ~m:16 ~k:16 ~n:16 ~accumulate:false)

(* A context caches every engine's index and lane at [make]; the cache
   must read as [Engine] numbers them, on a fresh and on a reset
   context, at every vector-core count, and a vector core out of range
   must still raise [Engine]'s own message from every issue path. *)
let test_engine_cache () =
  List.iter
    (fun vec_per_core ->
      let cost = { Cost_model.default with vec_per_core } in
      let dev = Device.create ~cost ~mode:Device.Cost_only () in
      let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:2 in
      let check_all what =
        List.iter
          (fun e ->
            let name = Printf.sprintf "%s vpc=%d %s" what vec_per_core
                (Engine.to_string e) in
            check_int (name ^ " index") (Engine.index ~vec_per_core e)
              (Block.engine_index ctx e);
            check_int (name ^ " lane") (Engine.lane ~vec_per_core e)
              (Block.engine_lane ctx e))
          (Engine.all ~vec_per_core)
      in
      check_all "fresh";
      Block.charge ctx (Engine.Vec (vec_per_core - 1)) 5.0;
      ignore (Block.finish ctx);
      Block.reset ctx ~core:1 ~idx:1;
      check_all "reset";
      let expected =
        match Engine.index ~vec_per_core (Engine.Vec vec_per_core) with
        | _ -> Alcotest.fail "Engine.index accepted an out-of-range core"
        | exception Invalid_argument msg -> msg
      in
      let raises what f =
        Alcotest.check_raises
          (Printf.sprintf "%s vpc=%d" what vec_per_core)
          (Invalid_argument expected) f
      in
      let v = vec_per_core in
      let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
      let g = Device.alloc dev Dtype.F16 64 ~name:"g" in
      raises "engine_index" (fun () ->
          ignore (Block.engine_index ctx (Engine.Vec_mte_out v)));
      raises "charge" (fun () -> Block.charge ctx (Engine.Vec v) 1.0);
      raises "Vec.adds" (fun () ->
          Vec.adds ctx ~vec:v ~src:ub ~dst:ub ~scalar:1.0 ~len:64 ());
      raises "Vec.get" (fun () -> ignore (Vec.get ctx ~vec:v ub 0));
      raises "Mte.copy_in" (fun () ->
          Mte.copy_in ctx ~engine:(Engine.Vec_mte_in v) ~src:g ~dst:ub
            ~len:64 ()))
    [ 1; 2; 3; 4 ]

(* The cycle formulas moved from Cost_model into Block. The reference
   definitions below are Cost_model's as they were; the moved ones must
   match them bit for bit over a grid of byte counts and shapes. *)
module Old_cost_model = struct
  open Cost_model

  let vec_op_cycles t ~bytes =
    t.vec_issue_cycles +. (float_of_int bytes /. t.vec_bytes_per_cycle)

  let vec_shift_cycles t ~len ~esize dst ~pos ~stride =
    let d = ref 1 and k = ref pos in
    while !d < len do
      dst.(!k) <- vec_op_cycles t ~bytes:((len - !d) * esize);
      d := 2 * !d;
      k := !k + stride
    done

  let mte_copy_cycles t ~bytes =
    t.mte_issue_cycles
    +. (float_of_int bytes *. t.clock_hz /. t.mte_stream_bandwidth)

  let local_copy_cycles t ~bytes =
    t.mte_issue_cycles
    +. (float_of_int bytes *. t.clock_hz /. t.local_stream_bandwidth)

  let mmad_cycles t ~m ~k ~n ~int8 =
    let rate =
      if int8 then t.cube_macs_per_cycle_i8 else t.cube_macs_per_cycle_f16
    in
    t.mmad_issue_cycles +. (float_of_int (m * k * n) /. rate)
end

let test_formulas_bit_identical () =
  let bits x = Int64.bits_of_float x in
  let same what a b =
    if bits a <> bits b then Alcotest.failf "%s: %h <> %h" what a b
  in
  let models =
    [
      Cost_model.default;
      {
        Cost_model.default with
        clock_hz = 1.1e9;
        mte_stream_bandwidth = 97.3e9;
        local_stream_bandwidth = 333.3e9;
        vec_bytes_per_cycle = 96.0;
        vec_issue_cycles = 7.25;
        mte_issue_cycles = 13.1;
        mmad_issue_cycles = 0.3;
        cube_macs_per_cycle_f16 = 3000.0;
        cube_macs_per_cycle_i8 = 6001.0;
      };
    ]
  in
  let byte_grid =
    List.concat_map
      (fun b -> [ b - 1; b; b + 1 ])
      [ 1; 2; 3; 31; 64; 127; 256; 1000; 4096; 32768; 65536; 196608; 1 lsl 24 ]
    @ [ 0 ]
  in
  let dims = [ 1; 2; 3; 15; 16; 17; 64; 100; 128; 181; 256 ] in
  List.iter
    (fun cm ->
      List.iter
        (fun bytes ->
          let w = Printf.sprintf "bytes=%d" bytes in
          same ("vec_op " ^ w)
            (Old_cost_model.vec_op_cycles cm ~bytes)
            (Block.vec_op_cycles cm ~bytes);
          same ("mte_copy " ^ w)
            (Old_cost_model.mte_copy_cycles cm ~bytes)
            (Block.mte_copy_cycles cm ~bytes);
          same ("local_copy " ^ w)
            (Old_cost_model.local_copy_cycles cm ~bytes)
            (Block.local_copy_cycles cm ~bytes))
        byte_grid;
      List.iter
        (fun m ->
          List.iter
            (fun k ->
              List.iter
                (fun n ->
                  List.iter
                    (fun int8 ->
                      same
                        (Printf.sprintf "mmad %dx%dx%d int8=%b" m k n int8)
                        (Old_cost_model.mmad_cycles cm ~m ~k ~n ~int8)
                        (Block.mmad_cycles cm ~m ~k ~n ~int8))
                    [ false; true ])
                dims)
            dims)
        dims;
      List.iter
        (fun len ->
          List.iter
            (fun esize ->
              let a = Array.make 64 nan and b = Array.make 64 nan in
              Old_cost_model.vec_shift_cycles cm ~len ~esize a ~pos:1 ~stride:3;
              Block.vec_shift_cycles cm ~len ~esize b ~pos:1 ~stride:3;
              Array.iteri
                (fun i x ->
                  same (Printf.sprintf "vec_shift len=%d esize=%d [%d]" len esize i)
                    x b.(i))
                a)
            [ 1; 2; 4 ])
        [ 1; 2; 3; 100; 128; 8192; 16384 ])
    models

(* A GM copy is counted before its fault is drawn: a fault that trips
   the core's quarantine budget kills the block at that copy, and the
   dead block's partial op counts (part of [Stats]) include it. Its
   charge and traffic never happen. *)
let test_gm_copy_quarantined () =
  let fault =
    Fault.config ~kinds:[ Fault.Engine_stall ] ~quarantine_after:1 ~seed:1
      ~rate:1.0 ()
  in
  let dev = Device.create ~mode:Device.Cost_only ~fault () in
  let g = Device.alloc dev Dtype.F16 256 ~name:"g" in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  let lt = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 256 in
  (match
     Block.gm_copy ctx (Engine.Vec_mte_in 0) ~async:false ~write:false g lt
       ~dst_off:0 ~len:256
   with
  | _ -> Alcotest.fail "the quarantined core should die at its first fault"
  | exception Health.Core_dead _ -> ());
  let r = Block.finish ctx in
  Alcotest.(check (list (pair string int)))
    "counted" [ ("datacopy_in", 1) ] r.Block.op_counts;
  check_floatish "not charged" 0.0 r.Block.cycles;
  check_int "no traffic" 0 r.Block.gm_read_bytes

(* The touched-tensor set and the op-name index against a list-walk
   reference: random sequences of tensors (more than the id set's first
   capacity, ids colliding in it) and op names (more than the tally's
   first capacity, with an equal name that is a different string and
   counts of 0) give the same [touched] list and [op_counts] in order,
   on a fresh context and on one reset after an earlier block. *)
let test_bookkeeping_reference () =
  let dev = Device.create ~mode:Device.Cost_only () in
  let tensors =
    Array.init 100 (fun i ->
        Device.alloc dev Dtype.F16 (1 + i) ~name:(Printf.sprintf "t%d" i))
  in
  let names =
    Array.append
      [| "adds"; "scalar_get"; "datacopy_in"; "datacopy_out"; "mmad";
         "vadd"; "copy"; "vselect"; "vbitop"; "reduce_sum"; "" |]
      (Array.init 12 (Printf.sprintf "op%02d"))
  in
  let adds_again = String.concat "" [ "ad"; "ds" ] in
  check_bool "a different string" false (adds_again == names.(0));
  let names = Array.append names [| adds_again |] in
  let rng = Random.State.make [| 24 |] in
  let block ctx =
    let touched = ref [] and counts = ref [] in
    for _ = 1 to Random.State.int rng 300 do
      if Random.State.bool rng then begin
        let g = tensors.(Random.State.int rng (1 + Random.State.int rng 100)) in
        let id = Global_tensor.id g in
        if not (List.exists (fun (i, _) -> i = id) !touched) then
          touched := (id, Global_tensor.size_bytes g) :: !touched;
        Block.note_touched ctx g
      end
      else begin
        let name = names.(Random.State.int rng (Array.length names)) in
        let k = Random.State.int rng 4 in
        if k > 0 then
          counts :=
            if List.exists (fun (n, _) -> String.equal n name) !counts then
              List.map
                (fun (n, c) ->
                  if String.equal n name then (n, c + k) else (n, c))
                !counts
            else !counts @ [ (name, k) ];
        Block.count_op_n ctx name k
      end
    done;
    let r = Block.finish ctx in
    Alcotest.(check (list (pair int int))) "touched" !touched r.Block.touched;
    Alcotest.(check (list (pair string int))) "op counts" !counts
      r.Block.op_counts
  in
  for trial = 0 to 49 do
    let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:4 in
    block ctx;
    for idx = 1 to 3 do
      Block.reset ctx ~core:(trial mod 4) ~idx;
      block ctx
    done;
    Block.release ctx
  done

let test_launch_compute_bound () =
  let dev = device () in
  let cm = Device.cost dev in
  (* One block burning 1.8e6 cycles = 1 ms of compute, no traffic. *)
  let st =
    Launch.run dev ~blocks:1 (fun ctx -> Block.charge ctx Engine.Cube 1.8e6)
  in
  check_floatish "time = launch + compute"
    (cm.Cost_model.kernel_launch_seconds +. 1e-3)
    st.Stats.seconds;
  check_bool "not bandwidth bound" false
    (List.hd st.Stats.phases).Stats.bandwidth_bound

let test_launch_round_robin () =
  let dev = device () in
  (* 40 blocks of equal cost on 20 cores: 2 per core. *)
  let st =
    Launch.run dev ~blocks:40 (fun ctx -> Block.charge ctx Engine.Cube 1.8e6)
  in
  let cm = Device.cost dev in
  check_floatish "two rounds" (cm.Cost_model.kernel_launch_seconds +. 2e-3)
    st.Stats.seconds;
  check_int "cores used" 20 st.Stats.cores_used

let test_launch_bandwidth_cap () =
  (* Shrink L2 so a small tensor's footprint spills to HBM: 20 blocks
     each claiming 40 MB of traffic -> 800 MB at 800 GB/s = 1 ms,
     dominating negligible compute. *)
  let cost = { Cost_model.default with Cost_model.l2_capacity_bytes = 1024 } in
  let dev = Device.create ~cost () in
  let big = Device.alloc dev Dtype.F16 4096 ~name:"big" in
  let st =
    Launch.run dev ~blocks:20 (fun ctx ->
        Block.note_touched ctx big;
        Block.note_gm_traffic ctx ~read:(40 * 1000 * 1000) ~write:0;
        Block.charge ctx Engine.Cube 100.0)
  in
  let expected = cost.Cost_model.kernel_launch_seconds +. 1e-3 in
  check_floatish "bandwidth bound time" expected st.Stats.seconds;
  check_bool "flagged bandwidth bound" true
    (List.hd st.Stats.phases).Stats.bandwidth_bound

let test_launch_l2_bandwidth () =
  let dev = device () in
  let cm = Device.cost dev in
  (* Small footprint: the same traffic runs at the L2 rate. *)
  let small = Device.alloc dev Dtype.F16 1024 ~name:"small" in
  let st =
    Launch.run dev ~blocks:1 (fun ctx ->
        Block.note_touched ctx small;
        Block.note_gm_traffic ctx ~read:(4 * 1000 * 1000) ~write:0)
  in
  let expected =
    cm.Cost_model.kernel_launch_seconds
    +. (4e6 /. cm.Cost_model.l2_bandwidth)
  in
  check_floatish "l2 rate" expected st.Stats.seconds

let test_phases_add_sync () =
  let dev = device () in
  let cm = Device.cost dev in
  let nop _ = () in
  let st1 = Launch.run_phases dev ~blocks:1 [ nop ] in
  let st3 = Launch.run_phases dev ~blocks:1 [ nop; nop; nop ] in
  check_floatish "two syncs"
    (2.0 *. cm.Cost_model.sync_all_seconds)
    (st3.Stats.seconds -. st1.Stats.seconds)

let test_launch_validation () =
  let dev = device () in
  Alcotest.check_raises "no phases"
    (Invalid_argument "Launch.run_phases: no phases") (fun () ->
      ignore (Launch.run_phases dev ~blocks:1 []));
  Alcotest.check_raises "blocks < 1"
    (Invalid_argument "Launch.run_phases: blocks must be >= 1") (fun () ->
      ignore (Launch.run dev ~blocks:0 (fun _ -> ())))

let test_stats_combine () =
  let dev = device () in
  let mk () = Launch.run dev ~blocks:2 (fun ctx ->
      Block.charge ctx Engine.Cube 1000.0;
      Block.note_gm_traffic ctx ~read:10 ~write:20)
  in
  let a = mk () and b = mk () in
  let c = Stats.combine ~name:"both" [ a; b ] in
  check_floatish "seconds add" (a.Stats.seconds +. b.Stats.seconds)
    c.Stats.seconds;
  check_int "reads add" 40 c.Stats.gm_read_bytes;
  check_int "writes add" 80 c.Stats.gm_write_bytes;
  check_int "phases concat" 2 (List.length c.Stats.phases);
  let busy name st =
    match List.assoc_opt name st.Stats.engine_busy with
    | Some v -> v
    | None -> Alcotest.failf "engine %s missing" name
  in
  check_floatish "busy adds" (busy "cube" a +. busy "cube" b) (busy "cube" c)

(* Stats.op_counts sorts by count, and tied names keep the order in
   which the launch's merge table meets them, which each block's
   first-seen order decides. The pinned list is the order that
   per-block hash-table counting gave, which op counting must keep;
   golden_timing.expected pins the same order for the real kernels. *)
let test_op_count_tie_order () =
  let names =
    [| "vadd"; "vsub"; "vmul"; "vmax"; "vmin"; "adds"; "muls"; "maxs";
       "mins"; "vselect"; "vcompare"; "vcast"; "duplicate"; "copy";
       "scalar_get"; "scalar_set"; "datacopy_in"; "datacopy_out"; "mmad";
       "gather" |]
  in
  let n = Array.length names in
  let dev = Device.create ~mode:Device.Cost_only () in
  let st =
    Launch.run dev ~blocks:3 (fun ctx ->
        let b = Block.idx ctx in
        for j = 0 to n - 1 do
          Block.count_op ctx names.((j + (7 * b)) mod n)
        done;
        Block.count_op_n ctx "reduce_sum" 2;
        Block.count_op_n ctx "cumsum_api" (b + 2))
  in
  Alcotest.(check (list (pair string int)))
    "tied names in merge order"
    [
      ("cumsum_api", 9); ("reduce_sum", 6); ("muls", 3); ("maxs", 3);
      ("duplicate", 3); ("datacopy_out", 3); ("vcast", 3); ("vmax", 3);
      ("vsub", 3); ("copy", 3); ("mins", 3); ("vselect", 3); ("vcompare", 3);
      ("vadd", 3); ("adds", 3); ("vmin", 3); ("mmad", 3); ("scalar_get", 3);
      ("datacopy_in", 3); ("gather", 3); ("vmul", 3); ("scalar_set", 3);
    ]
    st.Stats.op_counts

let test_device_modes () =
  let dev = Device.create ~mode:Device.Cost_only () in
  check_bool "not functional" false (Device.functional dev);
  let t = Device.alloc dev Dtype.F16 100 ~name:"t" in
  check_bool "unbacked" false (Global_tensor.is_backed t);
  check_bool "buffer raises" true
    (try
       ignore (Global_tensor.buffer t);
       false
     with Invalid_argument _ -> true);
  let devf = device () in
  let tf = Device.of_array devf Dtype.F16 ~name:"tf" [| 1.0; 2.0 |] in
  check_floatish "of_array" 2.0 (Global_tensor.get tf 1);
  check_int "allocated bytes" (100 * 2 + 0) (Device.allocated_bytes dev)

(* ------------------------------------------------------------------ *)
(* Block reuse. [Launch] runs a phase's blocks on one context, reset in
   place between blocks, and hands each block the previous block's
   tiles while its requests repeat. A reset context must be
   indistinguishable from a fresh one. *)

let blocks = 20

(* Six tile requests per block; every third block asks for a shorter
   fourth tile, so the previous block's tiles from there on are retired
   at the mismatch and the rest come from the pool. *)
let tile_specs idx =
  [ (Mem_kind.Ub 0, Dtype.F16, 8192); (Mem_kind.Ub 0, Dtype.I8, 4096);
    (Mem_kind.Ub 1, Dtype.F32, 2048);
    (Mem_kind.Ub 1, Dtype.I16, if idx mod 3 = 2 then 1000 else 2048);
    (Mem_kind.L1, Dtype.F16, 16384); (Mem_kind.L0c, Dtype.F32, 4096) ]

let reads_fresh lt =
  Local_tensor.structure lt = Local_tensor.General
  &&
  let ok = ref true in
  for i = 0 to lt.Local_tensor.length - 1 do
    if Int64.bits_of_float (Local_tensor.get lt i) <> 0L then ok := false
  done;
  !ok

let op_names = [| "vadd"; "vsub"; "vmul"; "duplicate"; "copy"; "gather" |]

(* A body that leaves every piece of per-block state dirty: tiles
   written and tagged, op names first seen in a block-dependent order,
   an async group committed and never waited, an async charge never
   committed, traffic on block-dependent tensors. [stale] records a
   block that found a tile not reading as fresh. *)
let dirty_body ~ins ~out ~stale ctx =
  let idx = Block.idx ctx in
  let tiles =
    List.map (fun (k, dt, n) -> Block.alloc ctx k dt n) (tile_specs idx)
  in
  if Block.functional ctx && not (List.for_all reads_fresh tiles) then
    stale := idx :: !stale;
  List.iteri
    (fun j lt ->
      for i = 0 to 63 + (j * idx) do
        Local_tensor.set lt i (float_of_int (i + idx + 1))
      done;
      Local_tensor.set_structure lt Local_tensor.Upper_ones)
    tiles;
  let n = Array.length op_names in
  for j = 0 to n - 1 do
    Block.count_op_n ctx op_names.((j + idx) mod n) (1 + ((j * idx) mod 4))
  done;
  let t0 = List.nth tiles 0 and t2 = List.nth tiles 2 in
  Vec.adds ctx ~vec:0 ~src:t0 ~dst:t0 ~scalar:1.0 ~len:(64 + idx) ();
  Mte.copy_in_async ctx ~engine:(Engine.Vec_mte_in 1)
    ~src:ins.(idx mod Array.length ins) ~dst:t2 ~len:(32 + idx) ();
  Block.commit_group ctx (Engine.Vec_mte_in 1);
  Vec.adds ctx ~vec:1 ~src:t2 ~dst:t2 ~scalar:2.0 ~len:16 ();
  Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:t0 ~dst:out
    ~dst_off:(idx * 64) ~len:64 ();
  Block.charge_async ctx Engine.Cube_mte_in (float_of_int (50 * idx));
  Block.charge ctx Engine.Cube (float_of_int (150 * idx))

let reuse_device ?(sanitize = false) ?(kills = []) ?(trace = false)
    ?(domains = 1) () =
  let fault =
    if kills = [] then None else Some (Fault.config ~seed:0 ~rate:0.0 ~kills ())
  in
  let dev = Device.create ?fault ~sanitize ~domains () in
  if trace then ignore (Device.arm_trace dev);
  let ins =
    Array.init 3 (fun k ->
        Device.of_array dev Dtype.F32 ~name:(Printf.sprintf "in%d" k)
          (Array.init (256 + k) float_of_int))
  in
  let out = Device.alloc dev Dtype.F16 (64 * blocks) ~name:"out" in
  (dev, dirty_body ~ins ~out)

(* Run the blocks one after another, each on [ctx idx], the way a
   phase does; a block whose core dies keeps its partial result. *)
let run_blocks body ctx =
  Array.init blocks (fun idx ->
      let c = ctx idx in
      (try body c with Health.Core_dead _ -> ());
      Block.finish c)

let fresh_ctx dev idx = Block.make ~device:dev ~idx ~num_blocks:blocks

let reused_ctx dev =
  let ctx = ref None in
  fun idx ->
    match !ctx with
    | Some c ->
        Block.reset c ~core:(idx mod Device.num_cores dev) ~idx;
        c
    | None ->
        let c = fresh_ctx dev idx in
        ctx := Some c;
        c

let same_result idx (a : Block.result) (b : Block.result) =
  let bits = Int64.bits_of_float in
  let what = Printf.sprintf "block %d" idx in
  check_bool (what ^ " cycles") true (bits a.Block.cycles = bits b.Block.cycles);
  check_bool (what ^ " busy") true
    (Array.map bits a.Block.busy = Array.map bits b.Block.busy);
  check_int (what ^ " gm read") a.Block.gm_read_bytes b.Block.gm_read_bytes;
  check_int (what ^ " gm write") a.Block.gm_write_bytes b.Block.gm_write_bytes;
  Alcotest.(check (list (pair int int)))
    (what ^ " touched") a.Block.touched b.Block.touched;
  Alcotest.(check (list (pair string int)))
    (what ^ " op counts") a.Block.op_counts b.Block.op_counts;
  check_bool (what ^ " trace") true (a.Block.trace = b.Block.trace)

(* One sequence on fresh contexts, one on a single reset context, each
   on its own device: every block's result must agree. The kill case
   dies mid-body in block 4 and resets the dead block's context for
   block 5 (a [Launch] resets it for the dead block's replay). *)
let check_reset_equals_fresh ?sanitize ?kills ?trace () =
  let dev_a, body_a = reuse_device ?sanitize ?kills ?trace () in
  let dev_b, body_b = reuse_device ?sanitize ?kills ?trace () in
  let stale_a = ref [] and stale_b = ref [] in
  let fresh = run_blocks (body_a ~stale:stale_a) (fresh_ctx dev_a) in
  let reused = run_blocks (body_b ~stale:stale_b) (reused_ctx dev_b) in
  Array.iteri (fun idx r -> same_result idx r reused.(idx)) fresh;
  Alcotest.(check (list int)) "fresh tiles read +0.0" [] (!stale_a @ !stale_b);
  (dev_a, dev_b, fresh)

let test_reset_equals_fresh () =
  ignore (check_reset_equals_fresh ());
  ignore (check_reset_equals_fresh ~trace:true ())

let test_reset_equals_fresh_sanitized () =
  let dev_a, dev_b, _ = check_reset_equals_fresh ~sanitize:true () in
  let diags d =
    List.length (Sanitizer.diagnostics (Option.get (Device.sanitizer d)))
  in
  check_bool "hazards seen" true (diags dev_a > 0);
  check_int "same diagnostics" (diags dev_a) (diags dev_b)

let test_reset_equals_fresh_killed () =
  let dev_a, _, fresh =
    check_reset_equals_fresh ~kills:[ (4, 700.0) ] ~trace:true ()
  in
  check_bool "core 4 died" false (Health.alive (Device.health dev_a) 4);
  let marks = (Option.get fresh.(4).Block.trace).Trace.b_marks in
  check_bool "block 4 died mid-body" true
    (List.exists (fun m -> m.Trace.mk_kind = Trace.Death) marks)

let stats_bytes (st : Stats.t) =
  Marshal.to_string
    { st with Stats.host_seconds = 0.0; domains = 0 }
    [ Marshal.No_sharing ]

let block_recs tr =
  List.concat_map
    (fun l -> List.concat_map (fun p -> p.Trace.ph_blocks) l.Trace.ln_phases)
    (Trace.launches tr)

(* Each block's trace record on a fresh context, over the two phases
   the launches below run: the reference a reused context must match. *)
let fresh_recs () =
  let dev, body = reuse_device ~trace:true () in
  let stale = ref [] in
  let phase () =
    Array.to_list
      (Array.map
         (fun r -> Option.get r.Block.trace)
         (run_blocks (body ~stale) (fresh_ctx dev)))
  in
  let recs = phase () @ phase () in
  Alcotest.(check (list int)) "fresh tiles read +0.0" [] !stale;
  recs

(* A two-phase launch of [blocks] blocks; every block must find its
   tiles reading fresh. At two domains each phase runs as seven runs of
   at most three blocks, so every run reuses its context. *)
let launch_reuse ?sanitize ~domains () =
  let dev, body = reuse_device ?sanitize ~trace:true ~domains () in
  let stale = ref [] in
  let st = Launch.run_phases dev ~blocks [ body ~stale; body ~stale ] in
  Alcotest.(check (list int)) "fresh tiles read +0.0" [] !stale;
  (stats_bytes st, block_recs (Option.get (Device.trace dev)))

(* The launch through [Launch], one domain, with and without a
   sanitizer: block by block the same records as fresh contexts. *)
let test_launch_reuse_equals_fresh () =
  let fresh = fresh_recs () in
  let st, recs = launch_reuse ~domains:1 () in
  let st_san, recs_san = launch_reuse ~sanitize:true ~domains:1 () in
  check_bool "blocks reused = fresh" true (recs = fresh);
  check_bool "blocks sanitized = fresh" true (recs_san = fresh);
  check_bool "stats sanitized = plain" true (String.equal st_san st)

(* Runs on two domains against the one sequential run. *)
let test_launch_runs_equal_sequential () =
  let st1, recs1 = launch_reuse ~domains:1 () in
  let st2, recs2 = launch_reuse ~domains:2 () in
  check_bool "stats 2 domains = 1 domain" true (String.equal st1 st2);
  check_bool "blocks 2 domains = 1 domain" true (recs1 = recs2)

(* Blocks 4 and 13 raise. On two domains they fall in different runs,
   and the launch surfaces block 4's exception, as one domain does. *)
let test_launch_runs_first_error () =
  let launch domains =
    let dev = Device.create ~mode:Device.Cost_only ~domains () in
    match
      Launch.run dev ~blocks (fun ctx ->
          let idx = Block.idx ctx in
          Block.charge ctx Engine.Cube 100.0;
          if idx = 4 || idx = 13 then failwith (Printf.sprintf "block %d" idx))
    with
    | _ -> Alcotest.fail "launch did not raise"
    | exception Failure msg -> msg
  in
  Alcotest.(check string) "1 domain" "block 4" (launch 1);
  Alcotest.(check string) "2 domains" "block 4" (launch 2)

(* A core killed mid-phase: the dead block's replay, and every block
   after it, runs as it does on a healthy device. *)
let test_launch_reuse_killed () =
  let run kills =
    let dev, body = reuse_device ~kills ~trace:true () in
    let stale = ref [] in
    ignore (Launch.run dev ~blocks (body ~stale));
    Alcotest.(check (list int)) "fresh tiles read +0.0" [] !stale;
    block_recs (Option.get (Device.trace dev))
  in
  let healthy = run [] and killed = run [ (4, 700.0) ] in
  check_int "one partial block" (blocks + 1) (List.length killed);
  let last idx recs =
    List.fold_left (fun acc r -> if r.Trace.b_idx = idx then Some r else acc) None recs
    |> Option.get
  in
  for idx = 0 to blocks - 1 do
    let h = last idx healthy and k = last idx killed in
    check_bool
      (Printf.sprintf "block %d as healthy" idx)
      true
      (h.Trace.b_cycles = k.Trace.b_cycles
      && h.Trace.b_spans = k.Trace.b_spans
      && h.Trace.b_edges = k.Trace.b_edges)
  done

(* Minor words per block of a 20-block launch whose blocks allocate
   six tiles: a deterministic count, not a timing. A fresh context per
   block (about 250 words of arrays, queues and tables) or a
   hash-table allocator or touched set puts it over the bound; a
   reused context with reused tiles stays under it. *)
let test_block_allocation () =
  let dev = Device.create ~mode:Device.Cost_only ~domains:1 () in
  let body ctx =
    List.iter
      (fun (k, dt, n) -> ignore (Block.alloc ctx k dt n))
      (tile_specs 0)
  in
  let launch () = ignore (Launch.run dev ~blocks body) in
  launch ();
  let launches = 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to launches do
    launch ()
  done;
  let per_block = (Gc.minor_words () -. w0) /. float_of_int (launches * blocks) in
  if per_block > 200.0 then
    Alcotest.failf "%.1f minor words per block (bound 200)" per_block

let () =
  Alcotest.run "block_launch"
    [
      ( "block",
        [
          Alcotest.test_case "same-lane chain" `Quick test_same_lane_chains;
          Alcotest.test_case "lanes overlap" `Quick test_lanes_overlap;
          Alcotest.test_case "async wait_group" `Quick test_async_wait_group;
          Alcotest.test_case "wait_group depth" `Quick
            test_wait_group_outstanding;
          Alcotest.test_case "await engine" `Quick test_await_engine;
          Alcotest.test_case "alloc capacity" `Quick test_alloc_capacity;
          Alcotest.test_case "traffic/touched" `Quick
            test_gm_traffic_and_touched;
          Alcotest.test_case "op counts" `Quick test_op_counts;
          Alcotest.test_case "bookkeeping = list-walk reference" `Quick
            test_bookkeeping_reference;
          Alcotest.test_case "gm_copy counted before its fault" `Quick
            test_gm_copy_quarantined;
          Alcotest.test_case "charge allocates nothing" `Quick
            test_charge_allocates_nothing;
          Alcotest.test_case "engine cache = Engine" `Quick test_engine_cache;
          Alcotest.test_case "formulas = Cost_model's" `Quick
            test_formulas_bit_identical;
        ] );
      ( "launch",
        [
          Alcotest.test_case "compute bound" `Quick test_launch_compute_bound;
          Alcotest.test_case "round robin" `Quick test_launch_round_robin;
          Alcotest.test_case "bandwidth cap" `Quick test_launch_bandwidth_cap;
          Alcotest.test_case "l2 bandwidth" `Quick test_launch_l2_bandwidth;
          Alcotest.test_case "phase syncs" `Quick test_phases_add_sync;
          Alcotest.test_case "validation" `Quick test_launch_validation;
          Alcotest.test_case "stats combine" `Quick test_stats_combine;
          Alcotest.test_case "device modes" `Quick test_device_modes;
          Alcotest.test_case "op count tie order" `Quick
            test_op_count_tie_order;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "reset = fresh" `Quick test_reset_equals_fresh;
          Alcotest.test_case "reset = fresh, sanitized" `Quick
            test_reset_equals_fresh_sanitized;
          Alcotest.test_case "reset = fresh, core killed" `Quick
            test_reset_equals_fresh_killed;
          Alcotest.test_case "launch reuse = fresh contexts" `Quick
            test_launch_reuse_equals_fresh;
          Alcotest.test_case "launch runs: 2 domains = 1 domain" `Quick
            test_launch_runs_equal_sequential;
          Alcotest.test_case "launch runs: lowest block's error" `Quick
            test_launch_runs_first_error;
          Alcotest.test_case "launch reuse, core killed" `Quick
            test_launch_reuse_killed;
          Alcotest.test_case "block allocation bound" `Quick
            test_block_allocation;
        ] );
    ]
