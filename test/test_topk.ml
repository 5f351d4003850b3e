(* Integration tests of both top-k implementations. *)

open Ascend

let check_bool = Alcotest.(check bool)

let check_topk name values k expect =
  for i = 0 to k - 1 do
    if Global_tensor.get values i <> expect.(i) then
      Alcotest.failf "%s mismatch at %d: %g <> %g" name i
        (Global_tensor.get values i)
        expect.(i)
  done

let case ~seed ~n ~k () =
  let data = Workload.Generators.uniform_f16 ~seed ~lo:(-50.0) ~hi:50.0 n in
  let expect, _ = Scan.Reference.top_k data ~k in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let ours, _ = Ops.Topk.run dev x ~k in
  check_topk "ours" ours k expect;
  let base, _ = Ops.Baseline.topk dev x ~k in
  check_topk "baseline" base k expect;
  let rsel, _ = Ops.Radix_select.run dev x ~k in
  check_topk "radix_select" rsel k expect

let test_duplicates () =
  let n = 30000 in
  let data = Array.init n (fun i -> float_of_int (i mod 8)) in
  let expect, _ = Scan.Reference.top_k data ~k:100 in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let ours, _ = Ops.Topk.run dev x ~k:100 in
  check_topk "dups" ours 100 expect;
  (* Radix select exercises its tie path on this input. *)
  let rsel, _ = Ops.Radix_select.run dev x ~k:100 in
  check_topk "rsel dups" rsel 100 expect

let test_radix_select_negatives_and_ties () =
  let data = [| -1.0; -2.0; -0.5; -1.0; -0.25; -8.0; -0.25 |] in
  let expect, _ = Scan.Reference.top_k data ~k:4 in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let rsel, _ = Ops.Radix_select.run dev x ~k:4 in
  check_topk "negatives" rsel 4 expect

let test_radix_select_scales_in_k () =
  (* The extension's point: unlike the quickselect, per-k cost is flat
     (the bit loop does not depend on k). *)
  let n = 1 lsl 17 in
  let data = Workload.Generators.uniform_f16 ~seed:13 n in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let _, st_small = Ops.Radix_select.run dev x ~k:16 in
  let _, st_large = Ops.Radix_select.run dev x ~k:4096 in
  check_bool "k-insensitive" true
    (st_large.Stats.seconds < 2.0 *. st_small.Stats.seconds)

let test_k_equals_n_small () =
  let n = 500 in
  let data = Workload.Generators.uniform_f16 ~seed:4 n in
  let expect, _ = Scan.Reference.top_k data ~k:n in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let ours, _ = Ops.Topk.run dev x ~k:n in
  check_topk "k=n" ours n expect

let test_negative_result_shape () =
  (* The paper's honest negative result: the split-based top-k does not
     beat the streaming baseline for small k. *)
  let n = 1 lsl 18 in
  let data = Workload.Generators.uniform_f16 ~seed:5 n in
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" data in
  let _, st_ours = Ops.Topk.run dev x ~k:256 in
  let _, st_base = Ops.Baseline.topk dev x ~k:256 in
  check_bool "baseline wins for small k" true
    (st_base.Stats.seconds < st_ours.Stats.seconds)

let test_validation () =
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" [| 1.0; 2.0 |] in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_bool "k too big" true (raises (fun () -> ignore (Ops.Topk.run dev x ~k:3)));
  check_bool "k zero" true (raises (fun () -> ignore (Ops.Topk.run dev x ~k:0)));
  check_bool "baseline k cap" true
    (raises (fun () -> ignore (Ops.Baseline.topk dev x ~k:5000)));
  (* Cost_only: the data-dependent rounds follow their expected counts
     (past the 8192-element finish, so the rounds run). *)
  let dco = Device.create ~mode:Device.Cost_only () in
  let xc = Device.alloc dco Dtype.F16 20000 ~name:"xc" in
  List.iter
    (fun (what, run) ->
      let out, st = run dco xc ~k:100 in
      check_bool (what ^ " cost-only k outputs") true
        (Global_tensor.length out = 100);
      check_bool (what ^ " cost-only charges time") true
        (st.Stats.seconds > 0.0))
    [
      ("quickselect", fun d x ~k -> Ops.Topk.run d x ~k);
      ("radix select", fun d x ~k -> Ops.Radix_select.run d x ~k);
    ]

let () =
  Alcotest.run "topk"
    [
      ( "topk",
        [
          Alcotest.test_case "small" `Quick (case ~seed:1 ~n:2000 ~k:10);
          Alcotest.test_case "medium" `Quick (case ~seed:2 ~n:50000 ~k:100);
          Alcotest.test_case "k=1" `Quick (case ~seed:3 ~n:20000 ~k:1);
          Alcotest.test_case "k=1024" `Quick (case ~seed:6 ~n:60000 ~k:1024);
          Alcotest.test_case "duplicates" `Quick test_duplicates;
          Alcotest.test_case "radix select negatives/ties" `Quick
            test_radix_select_negatives_and_ties;
          Alcotest.test_case "radix select k-scaling" `Quick
            test_radix_select_scales_in_k;
          Alcotest.test_case "k=n small" `Quick test_k_equals_n_small;
          Alcotest.test_case "negative result" `Slow
            test_negative_result_shape;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
