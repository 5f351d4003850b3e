(* Unit tests of the hardware sanitizer: cross-block hazard detection,
   out-of-bounds diagnostics, queue discipline, and the disjoint-write
   annotation used by scatter kernels. *)

open Ascend

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let device () = Device.create ~sanitize:true ()

let san d =
  match Device.sanitizer d with
  | Some s -> s
  | None -> Alcotest.fail "sanitizer not armed"

(* Two blocks touch the same GM range in one phase, one of them
   writing, with no SyncAll in between: a read-write hazard. *)
let test_missing_syncall_rw_hazard () =
  let d = device () in
  let g = Device.alloc d Dtype.F16 64 ~name:"g" in
  let body ctx =
    let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
    if Block.idx ctx = 0 then
      Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:ub ~dst:g ~len:64 ()
    else
      Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:g ~dst:ub ~len:64 ()
  in
  ignore (Launch.run d ~blocks:2 body);
  check_int "one RW hazard" 1
    (Sanitizer.count_kind (san d) Sanitizer.Read_write_hazard);
  match Sanitizer.diagnostics (san d) with
  | [ diag ] ->
      check_bool "names the tensor" true (diag.Sanitizer.tensor = "g");
      check_int "phase 0" 0 diag.Sanitizer.phase
  | _ -> Alcotest.fail "expected exactly one diagnostic"

(* The same access pattern split across two phases (write, SyncAll,
   read) is the legitimate idiom and stays clean. *)
let test_syncall_separates_phases () =
  let d = device () in
  let g = Device.alloc d Dtype.F16 64 ~name:"g" in
  let write ctx =
    if Block.idx ctx = 0 then begin
      let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
      Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:ub ~dst:g ~len:64 ()
    end
  in
  let read ctx =
    let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
    Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:g ~dst:ub ~len:64 ()
  in
  ignore (Launch.run_phases d ~blocks:2 [ write; read ]);
  check_int "clean" 0 (Sanitizer.count (san d))

let test_overlapping_writes_ww_hazard () =
  let d = device () in
  let g = Device.alloc d Dtype.F16 64 ~name:"g" in
  let body ctx =
    let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 48 in
    let dst_off = Block.idx ctx * 16 in
    Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:ub ~dst:g ~dst_off
      ~len:48 ()
  in
  ignore (Launch.run d ~blocks:2 body);
  check_int "one WW hazard" 1
    (Sanitizer.count_kind (san d) Sanitizer.Write_write_hazard)

(* Disjoint per-block tiles — the common partitioning — are clean. *)
let test_disjoint_tiles_clean () =
  let d = device () in
  let g = Device.alloc d Dtype.F16 64 ~name:"g" in
  let body ctx =
    let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 32 in
    let dst_off = Block.idx ctx * 32 in
    Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:ub ~dst:g ~dst_off
      ~len:32 ()
  in
  ignore (Launch.run d ~blocks:2 body);
  check_int "clean" 0 (Sanitizer.count (san d))

(* assume_disjoint_writes silences the conservative span analysis for
   scatter kernels that prove their offsets disjoint. *)
let test_disjoint_annotation () =
  let d = device () in
  let g = Device.alloc d Dtype.F16 64 ~name:"g" in
  let body ctx =
    Block.assume_disjoint_writes ctx g ~reason:"test scatter";
    let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 48 in
    let dst_off = Block.idx ctx * 16 in
    Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:ub ~dst:g ~dst_off
      ~len:48 ()
  in
  ignore (Launch.run d ~blocks:2 body);
  check_int "annotated scatter clean" 0 (Sanitizer.count (san d))

(* An OOB local-tensor access raises as before, and additionally leaves
   a structured diagnostic behind. *)
let test_oob_local_vec () =
  let d = device () in
  let raised = ref false in
  (try
     ignore
       (Launch.run d ~blocks:1 (fun ctx ->
            let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 32 in
            Vec.adds ctx ~src:ub ~src_off:16 ~dst:ub ~scalar:1.0 ~len:32 ()))
   with Invalid_argument _ -> raised := true);
  check_bool "still raises" true !raised;
  check_int "diag recorded" 1
    (Sanitizer.count_kind (san d) Sanitizer.Out_of_bounds);
  match Sanitizer.diagnostics (san d) with
  | [ diag ] ->
      Alcotest.(check string) "names the op" "Vec.adds" diag.Sanitizer.op
  | _ -> Alcotest.fail "expected exactly one diagnostic"

let test_oob_global_mte () =
  let d = device () in
  let g = Device.alloc d Dtype.F16 32 ~name:"g" in
  let raised = ref false in
  (try
     ignore
       (Launch.run d ~blocks:1 (fun ctx ->
            let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
            Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:g ~dst:ub
              ~len:64 ()))
   with Invalid_argument _ -> raised := true);
  check_bool "still raises" true !raised;
  check_int "diag recorded" 1
    (Sanitizer.count_kind (san d) Sanitizer.Out_of_bounds);
  match Sanitizer.diagnostics (san d) with
  | [ diag ] ->
      check_bool "names the tensor" true (diag.Sanitizer.tensor = "g");
      Alcotest.(check string) "names the op" "Mte.copy_in" diag.Sanitizer.op
  | _ -> Alcotest.fail "expected exactly one diagnostic"

(* A vector op that reads a tile whose async copy no wait has retired
   leaves an async-hazard diagnostic naming the consuming op. *)
let test_async_use_names_op () =
  let d = device () in
  let g = Device.of_array d Dtype.F16 ~name:"g" (Array.make 64 1.0) in
  ignore
    (Launch.run d ~blocks:1 (fun ctx ->
         let ub = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
         let out = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 64 in
         Mte.copy_in_async ctx ~engine:(Engine.Vec_mte_in 0) ~src:g ~dst:ub
           ~len:64 ();
         Vec.muls ctx ~src:ub ~dst:out ~scalar:2.0 ~len:64 ()));
  match Sanitizer.diagnostics (san d) with
  | [ diag ] ->
      check_bool "async hazard" true
        (diag.Sanitizer.kind = Sanitizer.Async_hazard);
      Alcotest.(check string) "names the op" "Vec.muls" diag.Sanitizer.op
  | _ -> Alcotest.fail "expected exactly one diagnostic"

(* AscendC queue discipline: enqueue past the buffer pool and dequeue
   of an empty queue are both violations. *)
let test_queue_discipline () =
  let s = Sanitizer.create () in
  let q = Sanitizer.Queue.make s ~block:0 ~name:"inQueue" ~depth:2 in
  Sanitizer.Queue.enqueue q;
  Sanitizer.Queue.enqueue q;
  check_int "two in flight" 2 (Sanitizer.Queue.in_flight q);
  Sanitizer.Queue.enqueue q;
  check_int "overflow flagged" 1
    (Sanitizer.count_kind s Sanitizer.Queue_violation);
  Sanitizer.Queue.dequeue q;
  Sanitizer.Queue.dequeue q;
  Sanitizer.Queue.dequeue q;
  check_int "double-dequeue flagged" 2
    (Sanitizer.count_kind s Sanitizer.Queue_violation);
  check_bool "depth < 1 rejected" true
    (try
       ignore (Sanitizer.Queue.make s ~block:0 ~name:"bad" ~depth:0);
       false
     with Invalid_argument _ -> true)

(* Real kernels pass: mcscan's two phases use disjoint per-block spans
   plus a read-only shared tail, and split's scatter is annotated. *)
let test_mcscan_clean () =
  let d = device () in
  let n = 30000 in
  let input = Array.init n (fun i -> if i mod 37 = 0 then 1.0 else 0.0) in
  let x = Device.of_array d Dtype.F16 ~name:"x" input in
  let y, _ = Scan.Mcscan.run d x in
  (match Registry_util.(check (entry "mcscan")) input y with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mcscan wrong under sanitizer: %s" e);
  check_int "mcscan clean" 0 (Sanitizer.count (san d))

let test_split_clean () =
  let d = device () in
  let n = 20000 in
  let data = Array.init n (fun i -> float_of_int (i mod 13)) in
  let mask = Array.init n (fun i -> if i mod 3 = 0 then 1.0 else 0.0) in
  let x = Device.of_array d Dtype.F16 ~name:"x" data in
  let m = Device.of_array d Dtype.I8 ~name:"m" mask in
  let r = Ops.Split.run ~with_indices:true d ~x ~flags:m () in
  check_bool "split produced something" true (r.Ops.Split.true_count > 0);
  check_int "split clean" 0 (Sanitizer.count (san d))

let () =
  Alcotest.run "sanitizer"
    [
      ( "hazards",
        [
          Alcotest.test_case "missing SyncAll RW" `Quick
            test_missing_syncall_rw_hazard;
          Alcotest.test_case "SyncAll separates" `Quick
            test_syncall_separates_phases;
          Alcotest.test_case "overlapping WW" `Quick
            test_overlapping_writes_ww_hazard;
          Alcotest.test_case "disjoint tiles" `Quick test_disjoint_tiles_clean;
          Alcotest.test_case "scatter annotation" `Quick
            test_disjoint_annotation;
          Alcotest.test_case "async use names op" `Quick
            test_async_use_names_op;
        ] );
      ( "oob",
        [
          Alcotest.test_case "local vec" `Quick test_oob_local_vec;
          Alcotest.test_case "global mte" `Quick test_oob_global_mte;
        ] );
      ( "queues",
        [ Alcotest.test_case "discipline" `Quick test_queue_discipline ] );
      ( "kernels",
        [
          Alcotest.test_case "mcscan clean" `Quick test_mcscan_clean;
          Alcotest.test_case "split clean" `Quick test_split_clean;
        ] );
    ]
