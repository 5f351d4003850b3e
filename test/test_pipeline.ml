(* Pipeline-equivalence and async-hazard tests.

   1. QCheck equivalence: for every registry entry and every dtype it
      accepts, running under the asynchronous double/triple-buffered
      schedules must produce output buffers BIT-identical to the fully
      serial schedule on the same corner-biased random input — async
      DataCopy is a timing construct only, never a numeric one.

   2. A unit matrix of wait_group misuse, showing each hazard pattern
      is caught by the sanitizer with a clear diagnostic. *)

open Ascend
module Reg = Scan.Op_registry

let () = Ops.Ops_registry.install ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Corner-biased value generator (after test_bulk's): NaNs, infinities,
   signed zeros, fp16 overflow / subnormal boundaries, integer wrap
   points — the values most likely to expose a schedule-dependent
   rounding or conversion divergence. *)

let interesting =
  [| 0.0; -0.0; 1.0; -1.0; 0.5; -0.5; 2049.0; 65504.0; 65519.0; 65520.0;
     -65520.0; 1e-8; 0x1p-24; 0x1p-25; 0x1p-14; infinity; neg_infinity;
     Float.nan; -.Float.nan;
     Int64.float_of_bits 0x7FF0000000000001L;
     Int64.float_of_bits 0xFFF8000000001234L;
     3.4e38; -3.4e38; 1e300; 126.5; 127.0; 128.0; -128.5; -129.0; 255.0;
     256.0; 32767.5; -32769.0; 65535.0; 65536.0; 2.147483648e9 |]

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (4, float);
        (4, oneofl (Array.to_list interesting));
        (2, map float_of_int (int_range (-2000) 2000));
        (1, map (fun f -> f *. 0x1p-30) float);
      ])

(* Probability-consuming operators (top-p, weighted sampling) need a
   non-degenerate distribution; everything else takes the corner mix. *)
let gen_data ~corner n =
  QCheck.Gen.(
    if corner then array_size (return n) gen_value
    else array_size (return n) (float_range 0.001 1.0))

let gen_flags n =
  QCheck.Gen.(
    array_size (return n) (map (fun b -> if b then 1.0 else 0.0) bool))

type eq_case = { len : int; data : float array; flags : float array }

let gen_case ~corner =
  QCheck.Gen.(
    let* len = int_range 16 5000 in
    let len = len * 4 / 4 in
    let* data = gen_data ~corner len in
    let* flags = gen_flags len in
    return { len; data; flags })

let arb_case ~corner =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "len=%d data[0..3]=%h %h %h %h" c.len c.data.(0)
        c.data.(1) c.data.(2) c.data.(3))
    (gen_case ~corner)

(* ------------------------------------------------------------------ *)
(* Uniform entry runner under an explicit schedule. *)

let config_for (entry : Reg.entry) ~n =
  let batched = entry.Reg.caps.Reg.batched in
  {
    Reg.default_config with
    (* Small tiles so even modest inputs span many pipeline
       iterations; [vec_only] ignores [s] by design. *)
    Reg.s = Some 16;
    batch = (if batched then Some 4 else None);
    len = (if batched then Some (n / 4) else None);
    k = Some 64;
    p = Some 0.9;
    theta = Some 0.4;
    seed = Some 3;
  }

let run_entry (entry : Reg.entry) ~dtype ~sched c =
  Scan.Scan_core.with_schedule sched (fun () ->
      let dev = Device.create () in
      let x = Device.of_array dev dtype ~name:"px" c.data in
      let input =
        if entry.Reg.caps.Reg.masked then
          Reg.Masked
            { x; mask = Device.of_array dev Dtype.I8 ~name:"pm" c.flags }
        else Reg.Tensor x
      in
      Reg.run entry (config_for entry ~n:c.len) dev input)

let tensor_bits t =
  Array.init (Global_tensor.length t) (fun i ->
      Int64.bits_of_float (Global_tensor.get t i))

let outputs_equal (a : Reg.output) (b : Reg.output) =
  (match (a.Reg.y, b.Reg.y) with
  | None, None -> true
  | Some ya, Some yb -> tensor_bits ya = tensor_bits yb
  | _ -> false)
  && List.map (fun (k, v) -> (k, Int64.bits_of_float v)) a.Reg.aux
     = List.map (fun (k, v) -> (k, Int64.bits_of_float v)) b.Reg.aux

let equivalence_prop entry dtype c =
  match
    ( run_entry entry ~dtype ~sched:Scan.Scan_core.Serial c,
      run_entry entry ~dtype ~sched:Scan.Scan_core.Double c,
      run_entry entry ~dtype ~sched:Scan.Scan_core.Triple c )
  with
  | Ok (os, _), Ok (o2, _), Ok (o3, _) ->
      outputs_equal os o2 && outputs_equal os o3
  | Error es, Error e2, Error e3 ->
      (* Uniform rejection must not depend on the schedule either. *)
      String.equal es e2 && String.equal es e3
  | _ -> false

let equivalence_tests =
  List.concat_map
    (fun (entry : Reg.entry) ->
      let corner =
        (* Samplers fold probabilities; feed them a valid distribution. *)
        not
          (List.mem entry.Reg.name [ "topp"; "weighted_sampling"; "topk" ])
      in
      List.map
        (fun dtype ->
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:8
               ~name:
                 (Printf.sprintf "%s %s: async == serial" entry.Reg.name
                    (Dtype.to_string dtype))
               (arb_case ~corner)
               (equivalence_prop entry dtype)))
        entry.Reg.caps.Reg.dtypes)
    (Reg.all ())

(* ------------------------------------------------------------------ *)
(* wait_group misuse matrix: every row is a distinct async-discipline
   mistake; each must surface as exactly the expected Async_hazard
   diagnostics, with clean rows staying clean. *)

let san_device () =
  let dev = Device.create ~sanitize:true () in
  (dev, Option.get (Device.sanitizer dev))

let hazards san = Sanitizer.count_kind san Sanitizer.Async_hazard

let with_block dev f =
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  f ctx;
  ignore (Block.finish ctx)

let mk_input dev n = Device.of_array dev Dtype.F16 ~name:"hx" (Array.make n 1.0)

let test_use_before_any_wait () =
  let dev, san = san_device () in
  let x = mk_input dev 64 in
  with_block dev (fun ctx ->
      let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
      let out = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
      Mte.copy_in_async ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~dst:ub
        ~len:64 ();
      Vec.adds ctx ~src:ub ~dst:out ~scalar:1.0 ~len:64 ());
  check_int "uncommitted use flagged" 1 (hazards san);
  match
    List.find_opt
      (fun d -> d.Sanitizer.kind = Sanitizer.Async_hazard)
      (Sanitizer.diagnostics san)
  with
  | None -> Alcotest.fail "no async diagnostic"
  | Some d ->
      check_bool "op names the consumer" true
        (String.length d.Sanitizer.op >= 4
        && String.sub d.Sanitizer.op 0 4 = "Vec.");
      check_bool "message explains the fix" true
        (let msg = d.Sanitizer.message in
         let has sub =
           let n = String.length msg and m = String.length sub in
           let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
           go 0
         in
         has "wait_group")

let test_use_before_wait_of_committed_group () =
  let dev, san = san_device () in
  let x = mk_input dev 64 in
  with_block dev (fun ctx ->
      let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
      Mte.copy_in_async ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~dst:ub
        ~len:64 ();
      Mte.commit_group ctx ~engine:(Engine.Vec_mte_in 0);
      (* Committed but never waited: still in flight. *)
      let out = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
      Vec.adds ctx ~src:ub ~dst:out ~scalar:1.0 ~len:64 ());
  check_int "committed-unwaited use flagged" 1 (hazards san)

let test_wait_too_shallow () =
  let dev, san = san_device () in
  let x = mk_input dev 64 in
  with_block dev (fun ctx ->
      let ub0 = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
      let ub1 = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
      Mte.copy_in_async ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~dst:ub0
        ~len:64 ();
      Mte.commit_group ctx ~engine:(Engine.Vec_mte_in 0);
      Mte.copy_in_async ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~dst:ub1
        ~len:64 ();
      Mte.commit_group ctx ~engine:(Engine.Vec_mte_in 0);
      (* Depth 1 retires only the FIRST group: ub0 is safe, ub1 is not. *)
      Mte.wait_group ctx ~engine:(Engine.Vec_mte_in 0) ~outstanding:1;
      let out = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
      Vec.adds ctx ~src:ub0 ~dst:out ~scalar:1.0 ~len:64 ();
      check_int "older group is safe" 0 (hazards san);
      Vec.adds ctx ~src:ub1 ~dst:out ~scalar:1.0 ~len:64 ());
  check_int "younger group flagged" 1 (hazards san)

let test_wrong_engine_wait () =
  let dev, san = san_device () in
  let x = mk_input dev 64 in
  with_block dev (fun ctx ->
      let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
      Mte.copy_in_async ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~dst:ub
        ~len:64 ();
      Mte.commit_group ctx ~engine:(Engine.Vec_mte_in 0);
      (* Waiting on a DIFFERENT queue retires nothing relevant. *)
      Mte.wait_group ctx ~engine:Engine.Cube_mte_in ~outstanding:0;
      let out = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
      Vec.adds ctx ~src:ub ~dst:out ~scalar:1.0 ~len:64 ());
  check_int "wrong-queue wait flagged" 1 (hazards san)

let test_proper_wait_is_clean () =
  let dev, san = san_device () in
  let x = mk_input dev 64 in
  with_block dev (fun ctx ->
      let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
      Mte.copy_in_async ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~dst:ub
        ~len:64 ();
      Mte.commit_group ctx ~engine:(Engine.Vec_mte_in 0);
      Mte.wait_group ctx ~engine:(Engine.Vec_mte_in 0) ~outstanding:0;
      Vec.adds ctx ~src:ub ~dst:ub ~scalar:1.0 ~len:64 ();
      Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:ub ~dst:x ~len:64
        ());
  check_int "disciplined pipeline clean" 0 (hazards san)

let test_sync_mte_consumer_flagged () =
  let dev, san = san_device () in
  let x = mk_input dev 64 in
  with_block dev (fun ctx ->
      let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
      Mte.copy_in_async ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~dst:ub
        ~len:64 ();
      (* Storing a tile whose fill is still in flight is the
         store-side variant of the same bug. *)
      Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:ub ~dst:x ~len:64
        ());
  check_int "async src of sync store flagged" 1 (hazards san)

let test_mmad_consumer_flagged () =
  let dev, san = san_device () in
  let x = mk_input dev 256 in
  with_block dev (fun ctx ->
      let a = Block.alloc ctx Mem_kind.L0a Dtype.F16 256 in
      let b = Block.alloc ctx Mem_kind.L0b Dtype.F16 256 in
      let c = Block.alloc ctx Mem_kind.L0c Dtype.F32 256 in
      Mte.copy_in_async ctx ~engine:Engine.Cube_mte_in ~src:x ~dst:a ~len:256
        ();
      Mte.copy_in ctx ~engine:Engine.Cube_mte_in ~src:x ~dst:b ~len:256 ();
      Cube.mmad ctx ~a ~b ~c ~m:16 ~k:16 ~n:16 ~accumulate:false);
  check_int "mmad on in-flight operand flagged" 1 (hazards san)

let test_wait_all_retires_everything () =
  let dev, san = san_device () in
  let x = mk_input dev 64 in
  with_block dev (fun ctx ->
      let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
      Mte.copy_in_async ctx ~engine:(Engine.Vec_mte_in 0) ~src:x ~dst:ub
        ~len:64 ();
      (* A full barrier retires even uncommitted copies. *)
      Block.wait_all ctx;
      Vec.adds ctx ~src:ub ~dst:ub ~scalar:1.0 ~len:64 ());
  check_int "wait_all clean" 0 (hazards san)

let () =
  Alcotest.run "pipeline"
    [
      ("equivalence", equivalence_tests);
      ( "wait_group misuse",
        [
          Alcotest.test_case "use before any wait" `Quick
            test_use_before_any_wait;
          Alcotest.test_case "committed but unwaited" `Quick
            test_use_before_wait_of_committed_group;
          Alcotest.test_case "wait too shallow" `Quick test_wait_too_shallow;
          Alcotest.test_case "wrong engine waited" `Quick
            test_wrong_engine_wait;
          Alcotest.test_case "proper wait clean" `Quick
            test_proper_wait_is_clean;
          Alcotest.test_case "sync store of in-flight tile" `Quick
            test_sync_mte_consumer_flagged;
          Alcotest.test_case "mmad on in-flight operand" `Quick
            test_mmad_consumer_flagged;
          Alcotest.test_case "wait_all retires all" `Quick
            test_wait_all_retires_everything;
        ] );
    ]
