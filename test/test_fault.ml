(* Unit tests of the deterministic fault-injection model: the seeded
   stream, the per-kind payload effects, and the fault log carried in
   launch stats. *)

open Ascend

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let n = 20000
let input = Array.init n (fun i -> if i mod 37 = 0 then 1.0 else 0.0)

let run_mcscan ?fault () =
  let d = Device.create ?fault () in
  let x = Device.of_array d Dtype.F16 ~name:"x" input in
  Scan.Mcscan.run d x

let event_fingerprint (e : Fault.event) =
  Printf.sprintf "%d:%s:%s:%s:%s:%d:%d" e.seq
    (Fault.kind_to_string e.kind)
    e.op e.engine e.tensor e.index e.bit

(* The same seed reproduces the exact same fault schedule. *)
let test_determinism () =
  let fault = Fault.config ~seed:11 ~rate:0.25 () in
  let _, st1 = run_mcscan ~fault () in
  let _, st2 = run_mcscan ~fault () in
  check_bool "some faults fired" true (List.length st1.Stats.faults > 0);
  Alcotest.(check (list string))
    "identical logs"
    (List.map event_fingerprint st1.Stats.faults)
    (List.map event_fingerprint st2.Stats.faults)

(* Rate 0: no events, and output bit-identical to a faultless device. *)
let test_rate_zero () =
  let y0, st0 = run_mcscan () in
  let y1, st1 = run_mcscan ~fault:(Fault.config ~seed:1 ~rate:0.0 ()) () in
  check_int "no faults clean" 0 (List.length st0.Stats.faults);
  check_int "no faults at rate 0" 0 (List.length st1.Stats.faults);
  for i = 0 to n - 1 do
    if Global_tensor.get y0 i <> Global_tensor.get y1 i then
      Alcotest.failf "output differs at %d" i
  done

(* draw at rate 1 with a single kind always produces that kind, records
   an event, and keeps flip coordinates inside the transfer. *)
let test_draw_flip () =
  let f =
    Fault.create (Fault.config ~kinds:[ Fault.Bit_flip ] ~seed:5 ~rate:1.0 ())
  in
  for i = 0 to 9 do
    match
      Fault.draw f ~engine:(Engine.Vec_mte_in 0) ~op:"datacopy_in" ~tensor:"x"
        ~dst_off:(i * 16) ~len:16 ~elem_bits:16
    with
    | Fault.Flip { index; bit } ->
        check_bool "index in range" true (index >= 0 && index < 16);
        check_bool "bit in range" true (bit >= 0 && bit < 16)
    | _ -> Alcotest.fail "expected Flip"
  done;
  check_int "all recorded" 10 (Fault.count f);
  check_int "all flips" 10 (Fault.count_kind f Fault.Bit_flip);
  (* Event indices are absolute (dst_off + relative flip index). *)
  List.iteri
    (fun i (e : Fault.event) ->
      check_bool "absolute index" true
        (e.index >= i * 16 && e.index < (i + 1) * 16))
    (Fault.events f)

(* Out-of-scope engines and empty transfers never fault. *)
let test_scope_and_empty () =
  let f =
    Fault.create (Fault.config ~scope:Fault.Cube_mtes ~seed:5 ~rate:1.0 ())
  in
  (match
     Fault.draw f ~engine:(Engine.Vec_mte_in 0) ~op:"datacopy_in" ~tensor:"x"
       ~dst_off:0 ~len:16 ~elem_bits:16
   with
  | Fault.No_fault -> ()
  | _ -> Alcotest.fail "vec transfer faulted under Cube_mtes scope");
  (match
     Fault.draw f ~engine:Engine.Cube_mte_in ~op:"datacopy_in" ~tensor:"x"
       ~dst_off:0 ~len:0 ~elem_bits:16
   with
  | Fault.No_fault -> ()
  | _ -> Alcotest.fail "empty transfer faulted");
  check_int "nothing recorded" 0 (Fault.count f)

(* flip_in_buffer respects the fp16 encoding: flipping a mantissa bit
   of 1.0 (0x3C00) yields another representable half, and flipping it
   back restores the original value. *)
let test_flip_in_buffer_f16 () =
  let b = Host_buffer.create Dtype.F16 4 in
  Host_buffer.fill b 1.0;
  Fault.flip_in_buffer b ~index:2 ~bit:9;
  check_bool "value changed" true (Host_buffer.get b 2 <> 1.0);
  check_bool "other lanes intact" true (Host_buffer.get b 1 = 1.0);
  Fault.flip_in_buffer b ~index:2 ~bit:9;
  check_bool "flip is involutive" true (Host_buffer.get b 2 = 1.0)

let test_flip_in_buffer_int () =
  let b = Host_buffer.create Dtype.I32 2 in
  Host_buffer.set b 0 5.0;
  Fault.flip_in_buffer b ~index:0 ~bit:1;
  check_bool "int bit flipped" true (Host_buffer.get b 0 = 7.0)

(* Engine stalls cost time without corrupting data. *)
let test_stall_only () =
  let y0, st0 = run_mcscan () in
  let fault =
    Fault.config ~kinds:[ Fault.Engine_stall ] ~seed:9 ~rate:1.0 ()
  in
  let y1, st1 = run_mcscan ~fault () in
  check_bool "stalls fired" true (List.length st1.Stats.faults > 0);
  List.iter
    (fun (e : Fault.event) ->
      check_bool "only stalls" true (e.kind = Fault.Engine_stall))
    st1.Stats.faults;
  check_bool "stalls cost time" true (st1.Stats.seconds > st0.Stats.seconds);
  for i = 0 to n - 1 do
    if Global_tensor.get y0 i <> Global_tensor.get y1 i then
      Alcotest.failf "stall corrupted data at %d" i
  done

(* Dropped copies at rate 1 wreck the scan, and the reference oracle
   notices. *)
let test_drop_corrupts () =
  let fault =
    Fault.config ~kinds:[ Fault.Dropped_copy ] ~seed:2 ~rate:1.0 ()
  in
  let y, st = run_mcscan ~fault () in
  check_bool "drops fired" true (List.length st.Stats.faults > 0);
  match Registry_util.(check (entry "mcscan")) input y with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "dropped copies went undetected"

let test_config_validation () =
  check_bool "rate > 1 rejected" true
    (try
       ignore (Fault.config ~seed:1 ~rate:1.5 ());
       false
     with Invalid_argument _ -> true);
  check_bool "empty kinds rejected" true
    (try
       ignore (Fault.config ~kinds:[] ~seed:1 ~rate:0.5 ());
       false
     with Invalid_argument _ -> true);
  check_bool "stall factor < 1 rejected" true
    (try
       ignore (Fault.config ~stall_factor:0.5 ~seed:1 ~rate:0.5 ());
       false
     with Invalid_argument _ -> true)

(* Satellite: allocation/context boundary guards. *)
let test_boundary_guards () =
  let d = Device.create () in
  check_bool "negative alloc rejected" true
    (try
       ignore (Device.alloc d Dtype.F16 (-1) ~name:"bad");
       false
     with Invalid_argument _ -> true);
  check_bool "num_blocks < 1 rejected" true
    (try
       ignore (Block.make ~device:d ~idx:0 ~num_blocks:0);
       false
     with Invalid_argument _ -> true);
  check_bool "idx out of range rejected" true
    (try
       ignore (Block.make ~device:d ~idx:3 ~num_blocks:2);
       false
     with Invalid_argument _ -> true);
  check_bool "negative idx rejected" true
    (try
       ignore (Block.make ~device:d ~idx:(-1) ~num_blocks:2);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "fault"
    [
      ( "stream",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "rate zero" `Quick test_rate_zero;
          Alcotest.test_case "draw flip" `Quick test_draw_flip;
          Alcotest.test_case "scope and empty" `Quick test_scope_and_empty;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ( "payload",
        [
          Alcotest.test_case "flip f16" `Quick test_flip_in_buffer_f16;
          Alcotest.test_case "flip int" `Quick test_flip_in_buffer_int;
          Alcotest.test_case "stall only" `Quick test_stall_only;
          Alcotest.test_case "drop corrupts" `Quick test_drop_corrupts;
        ] );
      ( "guards",
        [ Alcotest.test_case "boundaries" `Quick test_boundary_guards ] );
    ]
