(* Integration tests of the batched scan schedules. *)

open Ascend

let check_bool = Alcotest.(check bool)

let input ~batch ~len =
  Array.init (batch * len) (fun i -> if (i + (i / len)) mod 37 = 0 then 1.0 else 0.0)

let check_batched ~name ~batch ~len runner =
  let data = input ~batch ~len in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"xb" data in
  let y, stats = runner dev ~batch ~len x in
  (match Registry_util.check_rows ~batch ~len data y with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s batch=%d len=%d: %s" name batch len e);
  stats

let shapes =
  [ (1, 100); (1, 20000); (2, 8192); (3, 5000); (7, 1000); (20, 512);
    (21, 512); (40, 300); (41, 300); (64, 100) ]

let cases name runner =
  List.map
    (fun (batch, len) ->
      Alcotest.test_case
        (Printf.sprintf "%s %dx%d" name batch len)
        `Quick
        (fun () -> ignore (check_batched ~name ~batch ~len runner)))
    shapes

let small_s name runner =
  List.map
    (fun s ->
      Alcotest.test_case (Printf.sprintf "%s s=%d" name s) `Quick (fun () ->
          ignore (check_batched ~name ~batch:5 ~len:3000 (runner ~s))))
    [ 16; 32; 64 ]

let test_rows_independent () =
  (* A huge value in row 0 must not leak into row 1. *)
  let batch = 2 and len = 300 in
  let data = Array.make (batch * len) 0.0 in
  data.(0) <- 1000.0;
  data.(len) <- 1.0;
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"xb" data in
  let y, _ = Scan.Batched_scan.run_u dev ~batch ~len x in
  check_bool "row 0 end" true (Global_tensor.get y (len - 1) = 1000.0);
  check_bool "row 1 unaffected" true
    (Global_tensor.get y ((2 * len) - 1) = 1.0)

let test_validation () =
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" [| 1.0; 2.0 |] in
  check_bool "shape mismatch" true
    (try
       ignore (Scan.Batched_scan.run_u dev ~batch:3 ~len:3 x);
       false
     with Invalid_argument _ -> true);
  check_bool "bad batch" true
    (try
       ignore (Scan.Batched_scan.run_ul1 dev ~batch:0 ~len:2 x);
       false
     with Invalid_argument _ -> true)

let test_schedules_agree () =
  let batch = 9 and len = 2500 in
  let data = input ~batch ~len in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"xb" data in
  let yu, _ = Scan.Batched_scan.run_u dev ~batch ~len x in
  let yl, _ = Scan.Batched_scan.run_ul1 dev ~batch ~len x in
  for i = 0 to (batch * len) - 1 do
    if Global_tensor.get yu i <> Global_tensor.get yl i then
      Alcotest.failf "schedules disagree at %d" i
  done

let () =
  Alcotest.run "batched"
    [
      ( "run_u",
        cases "u" (fun dev ~batch ~len x -> Scan.Batched_scan.run_u dev ~batch ~len x)
        @ small_s "u" (fun ~s dev ~batch ~len x ->
              Scan.Batched_scan.run_u ~s dev ~batch ~len x) );
      ( "run_ul1",
        cases "ul1" (fun dev ~batch ~len x ->
            Scan.Batched_scan.run_ul1 dev ~batch ~len x)
        @ small_s "ul1" (fun ~s dev ~batch ~len x ->
              Scan.Batched_scan.run_ul1 ~s dev ~batch ~len x) );
      ( "semantics",
        [
          Alcotest.test_case "rows independent" `Quick test_rows_independent;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "schedules agree" `Quick test_schedules_agree;
        ] );
    ]
