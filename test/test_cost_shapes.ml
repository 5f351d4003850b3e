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

(* The paper-sweep entries at 2^24 on Cost_only devices, as the
   paper-scale figures run them: [Stats] pinned so a change to the
   charging fast path (Block, Mte, Vec) cannot move a cycle, a count
   or a byte of traffic at paper scale. [busy] is the MD5 of the
   engine and core busy cycles' float bits (see [busy_rendering]).
   Batched entries run 16 rows of 2^20; weighted_sampling draws at
   theta = 0.3. *)
type sweep_pin = {
  entry : string;
  seconds : int64;  (** Bits of [Stats.seconds]. *)
  gm : int * int;  (** GM read and write bytes. *)
  busy : string;
  ops : (string * int) list;  (** [Stats.op_counts], in order. *)
}

let sweep_pins =
  [
    { entry = "vec_only";
      seconds = 0x3f93fb7f24efa834L;
      gm = (33554432, 33554432);
      busy = "e8baa37a20957eef182fc024bd0daea8";
      ops =
        [ ("datacopy_out", 1024); ("cumsum_api", 1024); ("adds", 1024);
          ("datacopy_in", 1024); ("scalar_get", 1024) ] };
    { entry = "scanu";
      seconds = 0x3f7235e7dc130ea4L;
      gm = (67141632, 67108864);
      busy = "55304999039b9db18735160f7c8c6681";
      ops =
        [ ("adds", 131072); ("scalar_get", 131072); ("datacopy_out", 2048);
          ("datacopy_in", 2048); ("mmad", 1024) ] };
    { entry = "scanul1";
      seconds = 0x3f606b512a94a75dL;
      gm = (67207168, 67108864);
      busy = "a5bdb893369212d160a308dc965eaa02";
      ops =
        [ ("datacopy_local", 5120); ("mmad", 3072); ("datacopy_out", 2048);
          ("datacopy_in", 2048); ("adds", 1024); ("scalar_get", 1024) ] };
    { entry = "mcscan";
      seconds = 0x3f2ee98b00c9de3fL;
      gm = (101325056, 67109024);
      busy = "eb9aa97d8741fee930be639447dbf2d7";
      ops =
        [ ("adds", 131072); ("scalar_get", 131072); ("datacopy_in", 3112);
          ("datacopy_out", 2088); ("reduce_sum", 1063); ("mmad", 1024);
          ("scalar_set", 40) ] };
    { entry = "tcu";
      seconds = 0x3f2b29600fbc4c40L;
      gm = (69148670, 67082240);
      busy = "3277b149ffffa068dd4ea4d968554d89";
      ops =
        [ ("datacopy_local", 5125); ("datacopy_in", 4096); ("mmad", 3075);
          ("datacopy_out", 3073); ("adds", 1024); ("scalar_get", 1024) ] };
    { entry = "max_scan";
      seconds = 0x3f20f6fe1babbb67L;
      gm = (67112064, 33554512);
      busy = "e86d86894829dd50ce86f2faeab71377";
      ops =
        [ ("vmax", 26624); ("copy", 26624); ("datacopy_in", 4136);
          ("datacopy_out", 2088); ("reduce_max", 2087); ("maxs", 2048);
          ("scalar_get", 2048); ("scalar_set", 40) ] };
    { entry = "segmented_scan";
      seconds = 0x3f2f9122c441d582L;
      gm = (100671296, 33554632);
      busy = "c423f9efe0b5412ebc6c6a07bf89d6a9";
      ops =
        [ ("vselect", 57344); ("copy", 53248); ("vadd", 53248);
          ("vbitop", 53248); ("scalar_get", 9752); ("datacopy_in", 8272);
          ("adds", 4096); ("datacopy_out", 2128); ("duplicate", 80);
          ("scalar_set", 80) ] };
    { entry = "batched_u";
      seconds = 0x3f32cb01f32995c9L;
      gm = (67371008, 67108864);
      busy = "f35e5d6656b4e5f1db309ddba021f41d";
      ops =
        [ ("adds", 131072); ("scalar_get", 131072); ("datacopy_out", 2048);
          ("datacopy_in", 2048); ("mmad", 1024) ] };
    { entry = "batched_ul1";
      seconds = 0x3f25fce0c663aadcL;
      gm = (68681728, 67108864);
      busy = "222a5405c2a095816547e3c098c7fb3e";
      ops =
        [ ("datacopy_local", 5120); ("mmad", 3072); ("datacopy_out", 2048);
          ("datacopy_in", 2048); ("adds", 1024); ("scalar_get", 1024) ] };
    { entry = "dist_scan";
      seconds = 0x3f3d15f3a84112f4L;
      gm = (118764032, 83886400);
      busy = "6bf6188c2463a84a01577bdda48d0a3e";
      ops =
        [ ("adds", 131584); ("scalar_get", 131072); ("datacopy_in", 3664);
          ("datacopy_out", 2640); ("reduce_sum", 1102); ("mmad", 1024);
          ("scalar_set", 80) ] };
    { entry = "compress";
      seconds = 0x3f388e02945ac2fcL;
      gm = (184883456, 117440632);
      busy = "edf909181d35ff73fb253108b1394f95";
      ops =
        [ ("scalar_get", 133152); ("adds", 131072); ("datacopy_in", 9352);
          ("datacopy_out", 4169); ("gather_mask", 2080); ("reduce_sum", 1063);
          ("mmad", 1024); ("scalar_set", 41) ] };
    { entry = "split";
      seconds = 0x3f39d928695c502aL;
      gm = (184883456, 134217886);
      busy = "e8e5fe71fab12c8278be4116ad6c3041";
      ops =
        [ ("scalar_get", 133152); ("adds", 131072); ("datacopy_in", 9352);
          ("datacopy_out", 6249); ("gather_mask", 4160);
          ("compare_scalar", 2080); ("reduce_sum", 1063); ("mmad", 1024);
          ("scalar_set", 41) ] };
    { entry = "weighted_sampling";
      seconds = 0x3f49f79dd89a814eL;
      gm = (319762944, 285212986);
      busy = "c09225bec23956512ca8eb92be30cbfe";
      ops =
        [ ("scalar_get", 264224); ("adds", 262144); ("datacopy_out", 14577);
          ("datacopy_in", 14544); ("gather_mask", 8320);
          ("compare_scalar", 4160); ("reduce_sum", 2126); ("arange", 2080);
          ("mmad", 2048); ("scalar_set", 81) ] };
  ]

let sweep_stats name =
  let n = 1 lsl 24 and batch = 16 in
  let e = Option.get (Scan.Op_registry.find name) in
  let caps = e.Scan.Op_registry.caps in
  let cfg =
    if caps.batched then
      { Scan.Op_registry.default_config with
        batch = Some batch; len = Some (n / batch) }
    else { Scan.Op_registry.default_config with theta = Some 0.3 }
  in
  let d = dev () in
  let x = Device.alloc d (List.hd caps.dtypes) n ~name:"x" in
  let input =
    if caps.masked then
      Scan.Op_registry.Masked
        { x; mask = Device.alloc d Dtype.I8 n ~name:"mask" }
    else Scan.Op_registry.Tensor x
  in
  match Scan.Op_registry.run e cfg d input with
  | Ok (_, st) -> st
  | Error msg -> Alcotest.failf "%s: %s" name msg

let float_bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let busy_rendering (st : Stats.t) =
  String.concat ";"
    (List.map (fun (k, v) -> k ^ "=" ^ float_bits v) st.Stats.engine_busy
    @ Array.to_list (Array.map float_bits st.Stats.core_busy))

let test_paper_sweep_pinned () =
  Ops.Ops_registry.install ();
  List.iter
    (fun p ->
      let st = sweep_stats p.entry in
      Alcotest.(check string) (p.entry ^ " seconds bits")
        (Printf.sprintf "%Lx" p.seconds) (float_bits st.Stats.seconds);
      Alcotest.(check (pair int int)) (p.entry ^ " gm bytes") p.gm
        (st.Stats.gm_read_bytes, st.Stats.gm_write_bytes);
      Alcotest.(check string)
        (p.entry ^ " busy digest of " ^ busy_rendering st)
        p.busy
        (Digest.to_hex (Digest.string (busy_rendering st)));
      Alcotest.(check (list (pair string int))) (p.entry ^ " op counts") p.ops
        st.Stats.op_counts)
    sweep_pins

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
          Alcotest.test_case "paper sweep 2^24 stats pinned" `Quick
            test_paper_sweep_pinned;
        ] );
    ]
