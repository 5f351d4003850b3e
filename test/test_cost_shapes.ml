(* Performance-model shape tests: the qualitative claims of the paper
   must hold in the simulator (who wins, orderings, saturation). These
   run in cost-only mode so they can use paper-scale inputs cheaply. *)

open Ascend

let check_bool = Alcotest.(check bool)

let dev () = Device.create ~mode:Device.Cost_only ()

let seconds (_, (st : Stats.t)) = st.Stats.seconds

let test_fig3_single_core_ordering () =
  (* For large inputs: vec_only slower than ScanU slower than ScanUL1,
     with ratios in the bands the paper reports (5x and 9.6x +- 35%). *)
  let d = dev () in
  let x = Device.alloc d Dtype.F16 (1 lsl 22) ~name:"x" in
  let t_vec = seconds (Scan.Scan_vec_only.run d x) in
  let t_u = seconds (Scan.Scan_u.run d x) in
  let t_ul1 = seconds (Scan.Scan_ul1.run d x) in
  let r_u = t_vec /. t_u and r_ul1 = t_vec /. t_ul1 in
  check_bool "ordering" true (t_vec > t_u && t_u > t_ul1);
  check_bool (Printf.sprintf "scanu speedup ~5x (got %.2f)" r_u) true
    (r_u > 3.2 && r_u < 6.8);
  check_bool (Printf.sprintf "scanul1 speedup ~9.6x (got %.2f)" r_ul1) true
    (r_ul1 > 6.2 && r_ul1 < 13.0);
  check_bool "ul1 about 2x of u" true
    (t_u /. t_ul1 > 1.5 && t_u /. t_ul1 < 2.6)

let test_fig8_mcscan_saturation () =
  (* Large MCScan reaches roughly 37.5% of the 800 GB/s peak and the
     tile size ordering is s=128 > s=64 > s=32. *)
  let d = dev () in
  let n = 1 lsl 27 in
  let x = Device.alloc d Dtype.F16 n ~name:"x" in
  let bw s =
    let _, st = Scan.Mcscan.run ~s d x in
    Workload.Metrics.scan_bandwidth st ~n ~esize:2
  in
  let b32 = bw 32 and b64 = bw 64 and b128 = bw 128 in
  check_bool "s ordering" true (b128 > b64 && b64 > b32);
  let pct = Workload.Metrics.percent_of_peak b128 in
  check_bool (Printf.sprintf "saturation ~37.5%% (got %.1f%%)" pct) true
    (pct > 30.0 && pct < 45.0)

let test_fig8_clone_near_peak () =
  (* The copy yardstick approaches the memory bandwidth. *)
  let d = dev () in
  let n = 1 lsl 27 in
  let x = Device.alloc d Dtype.F16 n ~name:"x" in
  let _, st = Ops.Baseline.clone d x in
  let bw = Workload.Metrics.scan_bandwidth st ~n ~esize:2 in
  check_bool
    (Printf.sprintf "clone near peak (got %.0f GB/s)" (bw /. 1e9))
    true
    (Workload.Metrics.percent_of_peak bw > 80.0)

let test_headline_mcscan_vs_scanu () =
  (* The multi-core speedup over single-cube ScanU saturates around
     15.2x on 20 cores (accept 11-19x). *)
  let d = dev () in
  let x = Device.alloc d Dtype.F16 (1 lsl 27) ~name:"x" in
  let t_u = seconds (Scan.Scan_u.run d x) in
  let t_mc = seconds (Scan.Mcscan.run d x) in
  let sp = t_u /. t_mc in
  check_bool (Printf.sprintf "speedup ~15.2x (got %.1f)" sp) true
    (sp > 11.0 && sp < 20.0)

let test_fig9_int8_throughput () =
  (* int8 inputs process more elements per second than fp16 (~10%). *)
  let d = dev () in
  let n = 1 lsl 27 in
  let xf = Device.alloc d Dtype.F16 n ~name:"xf" in
  let xi = Device.alloc d Dtype.I8 n ~name:"xi" in
  let tf = seconds (Scan.Mcscan.run d xf) in
  let ti = seconds (Scan.Mcscan.run d xi) in
  let gain = tf /. ti in
  check_bool (Printf.sprintf "int8 gain ~1.1x (got %.2f)" gain) true
    (gain > 1.02 && gain < 1.25)

let test_fig10_compress_vs_masked_select () =
  let d = dev () in
  let n = 1 lsl 22 in
  let x = Device.alloc d Dtype.F16 n ~name:"x" in
  let mask = Device.alloc d Dtype.I8 n ~name:"m" in
  let r = Ops.Compress.run d ~x ~mask () in
  let bw = Workload.Metrics.scan_bandwidth r.Ops.Compress.stats ~n ~esize:2 in
  check_bool
    (Printf.sprintf "compress ~160 GB/s (got %.0f)" (bw /. 1e9))
    true
    (bw > 100.0e9 && bw < 260.0e9);
  let _, _, st_base = Ops.Baseline.masked_select d ~x ~mask in
  check_bool "baseline much slower" true
    (st_base.Stats.seconds > 10.0 *. r.Ops.Compress.stats.Stats.seconds)

let test_fig11_radix_crossover () =
  (* torch.sort wins below ~0.5M elements, radix wins above, with the
     large-N advantage in the 1.3x-3.3x band. *)
  let d = dev () in
  let time_pair n =
    let x = Device.alloc d Dtype.F16 n ~name:"x" in
    let r = Ops.Radix_sort.run d x in
    let _, st = Ops.Baseline.sort d x in
    (r.Ops.Radix_sort.stats.Stats.seconds, st.Stats.seconds)
  in
  let r_small, b_small = time_pair (1 lsl 16) in
  check_bool "baseline wins at 64K" true (b_small < r_small);
  let r_big, b_big = time_pair (1 lsl 23) in
  let adv = b_big /. r_big in
  check_bool (Printf.sprintf "radix wins at 8M (%.2fx)" adv) true
    (adv > 1.2 && adv < 4.5)

let test_fig12_batched_bandwidth () =
  (* Batch 40 rows of 65K: s=128 reaches ~400 GB/s, s=16 is poor. *)
  let d = dev () in
  let batch = 40 and len = 65536 in
  let x = Device.alloc d Dtype.F16 (batch * len) ~name:"xb" in
  let bw s =
    let _, st = Scan.Batched_scan.run_u ~s d ~batch ~len x in
    Workload.Metrics.scan_bandwidth st ~n:(batch * len) ~esize:2
  in
  let b128 = bw 128 and b16 = bw 16 in
  check_bool
    (Printf.sprintf "s=128 ~400 GB/s (got %.0f)" (b128 /. 1e9))
    true
    (b128 > 300.0e9 && b128 < 480.0e9);
  check_bool "s=16 poor" true (b16 < 0.4 *. b128)

let test_fig5_crossover_regions () =
  (* ScanU-based batched wins for large batch & short rows; ScanUL1
     wins for small batch & long rows. *)
  let d = dev () in
  let ratio ~batch ~len =
    let x = Device.alloc d Dtype.F16 (batch * len) ~name:"xb" in
    let _, su = Scan.Batched_scan.run_u d ~batch ~len x in
    let _, sl = Scan.Batched_scan.run_ul1 d ~batch ~len x in
    sl.Stats.seconds /. su.Stats.seconds
  in
  check_bool "batch 40, len 2K: ScanU wins" true (ratio ~batch:40 ~len:2048 > 1.0);
  check_bool "batch 4, len 64K: ScanUL1 wins" true
    (ratio ~batch:4 ~len:65536 < 1.0)

let test_fig13_topp_scaling () =
  (* The baseline top-p pipeline scales much worse with vocab size. *)
  let d = dev () in
  let time f vocab =
    let probs = Device.alloc d Dtype.F16 vocab ~name:"p" in
    (f ~probs).Ops.Topp.stats.Stats.seconds
  in
  let ours v = time (fun ~probs -> Ops.Topp.sample d ~probs ~p:0.9 ~theta:0.4) v in
  let base v =
    time (fun ~probs -> Ops.Topp.sample_baseline d ~probs ~p:0.9 ~theta:0.4) v
  in
  let v = 1 lsl 20 in
  check_bool "ours faster at 1M vocab" true (ours v < base v);
  (* Baseline degrades faster as the vocabulary grows. *)
  let g_ours = ours (4 * v) /. ours v in
  let g_base = base (4 * v) /. base v in
  check_bool "baseline scales worse" true (g_base > g_ours)

let test_tcu_competitive_at_scale () =
  (* The log-depth extension loses at small N (launch overhead per
     level) but is within 2x of MCScan at large N. *)
  let d = dev () in
  let small = Device.alloc d Dtype.F16 (1 lsl 16) ~name:"s" in
  let big = Device.alloc d Dtype.F16 (1 lsl 26) ~name:"b" in
  let t_tcu_small = seconds (Scan.Tcu_scan.run d small) in
  let t_mc_small = seconds (Scan.Mcscan.run d small) in
  check_bool "mcscan wins small" true (t_mc_small < t_tcu_small);
  let t_tcu_big = seconds (Scan.Tcu_scan.run d big) in
  let t_mc_big = seconds (Scan.Mcscan.run d big) in
  check_bool "tcu within 2x at scale" true (t_tcu_big < 2.0 *. t_mc_big)

let test_cost_only_runs_everything () =
  (* The cost-only path of each operator must execute without data. *)
  let d = dev () in
  let n = 1 lsl 18 in
  let x = Device.alloc d Dtype.F16 n ~name:"x" in
  let mask = Device.alloc d Dtype.I8 n ~name:"m" in
  ignore (Scan.Scan_api.run ~algo:(Scan.Scan_api.get "mcscan") d x);
  ignore (Ops.Split.run d ~x ~flags:mask ());
  ignore (Ops.Compress.run d ~x ~mask ());
  ignore (Ops.Radix_sort.run ~with_indices:true d x);
  ignore (Ops.Weighted_sampling.sample d ~weights:x ~theta:0.3);
  ignore (Ops.Topp.sample d ~probs:x ~p:0.9 ~theta:0.3);
  ignore (Ops.Baseline.clone d x);
  ignore (Ops.Baseline.sort d x);
  check_bool "all ran" true true

(* Registry entries whose charging does not depend on the data: a
   Cost_only run charges exactly what a functional run does — the same
   [seconds] bit for bit, engine busy cycles and op counts in order —
   so the paper-scale Cost_only sweeps cost what golden_timing pins on
   functional devices. At n = 99,996 over two blocks the vector
   sub-blocks span several UB tiles, the last one ragged. *)
let data_independent =
  [ "vec_only"; "scanu"; "scanul1"; "mcscan"; "tcu"; "max_scan";
    "segmented_scan"; "batched_u"; "batched_ul1"; "dist_scan"; "cube_reduce" ]

let test_cost_only_equals_functional () =
  let n = 99_996 and batch = 4 in
  let cfg =
    { Scan.Op_registry.default_config with
      blocks = Some 2; batch = Some batch; len = Some (n / batch) }
  in
  List.iter
    (fun name ->
      let e = Option.get (Scan.Op_registry.find name) in
      let stats mode =
        let d = Device.create ~mode () in
        let tensor dt f =
          if mode = Device.Functional then
            Device.of_array d dt ~name:"x" (Array.init n f)
          else Device.alloc d dt n ~name:"x"
        in
        let x = tensor Dtype.F16 (fun i -> if i mod 37 = 0 then 1.0 else 0.0) in
        let input =
          if e.Scan.Op_registry.caps.masked then
            Scan.Op_registry.Masked
              {
                x;
                mask =
                  tensor Dtype.I8 (fun i -> if i mod 97 = 5 then 1.0 else 0.0);
              }
          else Scan.Op_registry.Tensor x
        in
        match Scan.Op_registry.run e cfg d input with
        | Ok (_, st) -> st
        | Error msg -> Alcotest.failf "%s: %s" name msg
      in
      let f = stats Device.Functional and c = stats Device.Cost_only in
      let bits = Int64.bits_of_float in
      check_bool (name ^ " seconds") true
        (bits f.Stats.seconds = bits c.Stats.seconds);
      check_bool (name ^ " engine busy") true
        (List.map (fun (k, v) -> (k, bits v)) f.Stats.engine_busy
        = List.map (fun (k, v) -> (k, bits v)) c.Stats.engine_busy);
      Alcotest.(check (list (pair string int)))
        (name ^ " op counts") f.Stats.op_counts c.Stats.op_counts)
    data_independent

let () =
  Alcotest.run "cost_shapes"
    [
      ( "paper shapes",
        [
          Alcotest.test_case "fig3 single-core" `Quick
            test_fig3_single_core_ordering;
          Alcotest.test_case "fig8 saturation" `Quick
            test_fig8_mcscan_saturation;
          Alcotest.test_case "fig8 clone" `Quick test_fig8_clone_near_peak;
          Alcotest.test_case "headline speedup" `Quick
            test_headline_mcscan_vs_scanu;
          Alcotest.test_case "fig9 int8" `Quick test_fig9_int8_throughput;
          Alcotest.test_case "fig10 compress" `Quick
            test_fig10_compress_vs_masked_select;
          Alcotest.test_case "fig11 radix crossover" `Slow
            test_fig11_radix_crossover;
          Alcotest.test_case "fig12 batched" `Quick
            test_fig12_batched_bandwidth;
          Alcotest.test_case "fig5 regions" `Quick test_fig5_crossover_regions;
          Alcotest.test_case "fig13 topp" `Quick test_fig13_topp_scaling;
          Alcotest.test_case "tcu extension" `Quick
            test_tcu_competitive_at_scale;
          Alcotest.test_case "cost-only coverage" `Quick
            test_cost_only_runs_everything;
          Alcotest.test_case "cost-only = functional stats" `Quick
            test_cost_only_equals_functional;
        ] );
    ]
