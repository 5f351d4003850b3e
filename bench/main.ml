(* Benchmark harness: regenerates every figure of the paper's
   evaluation section (Figures 3, 5, 8, 9, 10, 11, 12, 13), the two
   headline speedup claims, and the ablations of DESIGN.md. The
   simulator's own host time is measured by the ledger (bench/ledger),
   not here.

   Simulated timings come from the cost model (DESIGN.md section 4);
   EXPERIMENTS.md records the paper-vs-measured comparison. Every
   kernel is first validated functionally against the reference oracle
   at a moderate size before its cost-only sweep is printed. *)

open Workload

let pow2 k = 1 lsl k
let dev_cost () = Ascend.Device.create ~mode:Ascend.Device.Cost_only ()
let dev_fn () = Ascend.Device.create ()
let us s = Table.fmt_time_us s
let gbs b = Table.fmt_gbs b

let alloc_f16 d n = Ascend.Device.alloc d Ascend.Dtype.F16 n ~name:"x"
let alloc_i8 d n = Ascend.Device.alloc d Ascend.Dtype.I8 n ~name:"m"

let results_dir = "results"

(* Print a table and persist it as CSV under results/. *)
let emit t =
  Table.print t;
  Table.save_csv t ~dir:results_dir

let verified = ref []
let note_verified name = verified := name :: !verified

let fail_verify name msg =
  Printf.eprintf "VERIFICATION FAILED (%s): %s\n%!" name msg;
  exit 1

module R = Scan.Op_registry

(* The [ops] entries join the registry only once this is forced. *)
let () = Ops.Ops_registry.install ()

(* Run an entry once on a functional device and check the output with
   the entry's own oracle; any failure ends the harness. *)
let verify ~name (e : R.entry) cfg d input host =
  match R.run e cfg d input with
  | Error msg -> fail_verify name msg
  | Ok (out, _) -> (
      match e.R.check cfg host out with
      | Ok () -> ()
      | Error msg -> fail_verify name msg)

(* Every registry entry on the driver's inputs at a moderate size, plus
   MCScan on int8 flags (the widening path of Figure 9), before any
   figure is printed. *)
let verify_entries () =
  let n = 30000 in
  List.iter
    (fun (e : R.entry) ->
      let d = dev_fn () in
      verify ~name:e.R.name e
        (Op_driver.config_for e ~n ~s:None)
        d (Op_driver.input e d ~n) (Op_driver.host e ~n);
      note_verified e.R.name)
    (R.all ());
  let n = 50000 in
  let data = Array.init n (fun i -> if (i * 7) mod 11 < 5 then 1.0 else 0.0) in
  let d = dev_fn () in
  verify ~name:"mcscan_i8"
    (Option.get (R.find "mcscan"))
    R.default_config d
    (R.Tensor (Ascend.Device.of_array d Ascend.Dtype.I8 ~name:"m" data))
    { R.x = data; mask = None };
  note_verified "mcscan_i8"

(* ------------------------------------------------------------------ *)
(* Figure 3: single-cube scans versus the vector-only CumSum API.     *)

let fig3 () =
  let t =
    Table.create
      ~title:
        "Figure 3: execution time, CumSum (vec_only) vs ScanU vs ScanUL1 \
         (s = 128, fp16)"
      ~columns:
        [ "n"; "vec_only us"; "scanu us"; "scanul1 us"; "speedup U";
          "speedup UL1" ]
  in
  List.iter
    (fun k ->
      let n = pow2 k in
      let d = dev_cost () in
      let x = alloc_f16 d n in
      let _, sv = Scan.Scan_vec_only.run d x in
      let _, su = Scan.Scan_u.run d x in
      let _, sl = Scan.Scan_ul1.run d x in
      Table.add_row t
        [ string_of_int n; us sv.Ascend.Stats.seconds;
          us su.Ascend.Stats.seconds; us sl.Ascend.Stats.seconds;
          Table.fmt_float (Metrics.speedup ~baseline:sv su);
          Table.fmt_float (Metrics.speedup ~baseline:sv sl) ])
    [ 10; 12; 14; 16; 18; 20; 22 ];
  emit t

(* ------------------------------------------------------------------ *)
(* Figure 5: batched ScanUL1 / ScanU time ratio heatmap.              *)

let fig5 () =
  let lens = [ 256; 1024; 4096; 16384; 65536 ] in
  let batches = [ 1; 2; 4; 8; 16; 18; 24; 32; 48; 64 ] in
  let t =
    Table.create
      ~title:
        "Figure 5: time ratio ScanUL1/ScanU batched (<1 means ScanUL1 wins; \
         rows = batch, cols = length)"
      ~columns:("batch\\len" :: List.map string_of_int lens)
  in
  List.iter
    (fun batch ->
      let row =
        List.map
          (fun len ->
            let d = dev_cost () in
            let x = alloc_f16 d (batch * len) in
            let _, su = Scan.Batched_scan.run_u d ~batch ~len x in
            let _, sl = Scan.Batched_scan.run_ul1 d ~batch ~len x in
            Table.fmt_float (sl.Ascend.Stats.seconds /. su.Ascend.Stats.seconds))
          lens
      in
      Table.add_row t (string_of_int batch :: row))
    batches;
  emit t

(* ------------------------------------------------------------------ *)
(* Figure 8: MCScan bandwidth for s = 32/64/128 versus torch.clone.   *)

let fig8 () =
  let t =
    Table.create
      ~title:
        "Figure 8: MCScan bandwidth (2 x n x 2B / time, GB/s; peak 800) vs \
         torch.clone"
      ~columns:[ "n"; "s=32"; "s=64"; "s=128"; "clone"; "s=128 %peak" ]
  in
  List.iter
    (fun k ->
      let n = pow2 k in
      let d = dev_cost () in
      let x = alloc_f16 d n in
      let bw s =
        let _, st = Scan.Mcscan.run ~s d x in
        Metrics.scan_bandwidth st ~n ~esize:2
      in
      let b32 = bw 32 and b64 = bw 64 and b128 = bw 128 in
      let _, stc = Ops.Baseline.clone d x in
      let bc = Metrics.scan_bandwidth stc ~n ~esize:2 in
      Table.add_row t
        [ string_of_int n; gbs b32; gbs b64; gbs b128; gbs bc;
          Table.fmt_float (Metrics.percent_of_peak b128) ^ "%" ])
    [ 16; 18; 20; 22; 24; 26; 27; 28 ];
  emit t

(* ------------------------------------------------------------------ *)
(* Figure 9: MCScan giga-elements per second, fp16 vs int8.           *)

let fig9 () =
  let t =
    Table.create
      ~title:"Figure 9: MCScan GElems/s, fp16 vs int8 input (s = 128)"
      ~columns:[ "n"; "fp16 GE/s"; "int8 GE/s"; "int8 gain" ]
  in
  List.iter
    (fun k ->
      let n = pow2 k in
      let d = dev_cost () in
      let xf = alloc_f16 d n in
      let xi = alloc_i8 d n in
      let _, sf = Scan.Mcscan.run d xf in
      let _, si = Scan.Mcscan.run d xi in
      Table.add_row t
        [ string_of_int n;
          Table.fmt_float (Metrics.giga_elements_per_second sf ~n);
          Table.fmt_float (Metrics.giga_elements_per_second si ~n);
          Table.fmt_float (sf.Ascend.Stats.seconds /. si.Ascend.Stats.seconds)
          ^ "x" ])
    [ 18; 20; 22; 24; 26; 28 ];
  emit t

(* ------------------------------------------------------------------ *)
(* Figure 10: compress bandwidth versus torch.masked_select.          *)

let fig10 () =
  let t =
    Table.create
      ~title:
        "Figure 10: compress bandwidth vs torch.masked_select (uniform 50% \
         mask)"
      ~columns:
        [ "n"; "s=32 GB/s"; "s=64 GB/s"; "s=128 GB/s"; "masked_select GB/s" ]
  in
  List.iter
    (fun k ->
      let n = pow2 k in
      let d = dev_cost () in
      let x = alloc_f16 d n in
      let m = alloc_i8 d n in
      let bw s =
        let r = Ops.Compress.run ~s d ~x ~mask:m () in
        Metrics.scan_bandwidth r.Ops.Compress.stats ~n ~esize:2
      in
      let b32 = bw 32 and b64 = bw 64 and b128 = bw 128 in
      let _, _, stb = Ops.Baseline.masked_select d ~x ~mask:m in
      let bb = Metrics.scan_bandwidth stb ~n ~esize:2 in
      Table.add_row t
        [ string_of_int n; gbs b32; gbs b64; gbs b128; gbs bb ])
    [ 14; 16; 18; 20; 22 ];
  emit t

(* ------------------------------------------------------------------ *)
(* Figure 11: radix sort versus torch.sort (fp16 keys).               *)

(* The torch.sort baseline is not a registry entry: check it against
   the sort reference directly. *)
let verify_torch_sort () =
  let b = pow2 14 in
  let data = Generators.uniform_f16 ~seed:8 b in
  let d = dev_fn () in
  let x = Ascend.Device.of_array d Ascend.Dtype.F16 ~name:"x2" data in
  let y, _ = Ops.Baseline.sort d x in
  let expect, _ = Scan.Reference.stable_sort_with_indices data in
  for i = 0 to b - 1 do
    if Ascend.Global_tensor.get y i <> expect.(i) then
      fail_verify "torch_sort" (Printf.sprintf "mismatch at %d" i)
  done;
  note_verified "torch_sort"

let fig11 () =
  verify_torch_sort ();
  let t =
    Table.create
      ~title:"Figure 11: radix sort vs torch.sort, fp16 keys (time in us)"
      ~columns:[ "n"; "radix us"; "torch.sort us"; "radix speedup" ]
  in
  List.iter
    (fun k ->
      let n = pow2 k in
      let d = dev_cost () in
      let x = alloc_f16 d n in
      let r = Ops.Radix_sort.run d x in
      let _, sb = Ops.Baseline.sort d x in
      Table.add_row t
        [ string_of_int n; us r.Ops.Radix_sort.stats.Ascend.Stats.seconds;
          us sb.Ascend.Stats.seconds;
          Table.fmt_float
            (sb.Ascend.Stats.seconds
            /. r.Ops.Radix_sort.stats.Ascend.Stats.seconds)
          ^ "x" ])
    [ 16; 18; 19; 20; 21; 22; 23; 24; 25 ];
  emit t

(* ------------------------------------------------------------------ *)
(* Figure 12: batched scan bandwidth vs batch size (len = 65K).       *)

let fig12 () =
  let len = 65536 in
  let t =
    Table.create
      ~title:
        "Figure 12: batched ScanU bandwidth (GB/s) for increasing batch, len \
         = 65536"
      ~columns:[ "batch"; "s=16"; "s=32"; "s=64"; "s=128" ]
  in
  List.iter
    (fun batch ->
      let d = dev_cost () in
      let x = alloc_f16 d (batch * len) in
      let bw s =
        let _, st = Scan.Batched_scan.run_u ~s d ~batch ~len x in
        Metrics.scan_bandwidth st ~n:(batch * len) ~esize:2
      in
      Table.add_row t
        (string_of_int batch
        :: List.map (fun s -> gbs (bw s)) [ 16; 32; 64; 128 ]))
    [ 1; 2; 4; 8; 16; 24; 32; 40 ];
  emit t

(* ------------------------------------------------------------------ *)
(* Figure 13: top-p (nucleus) sampling, ours vs the stock pipeline.   *)

let fig13 () =
  let t =
    Table.create
      ~title:
        "Figure 13: top-p sampling time (us), single batch; PyTorch = stock \
         sort + cumsum"
      ~columns:[ "vocab"; "s=32"; "s=64"; "s=128"; "PyTorch" ]
  in
  List.iter
    (fun k ->
      let vocab = pow2 k in
      let ours s =
        let d = dev_cost () in
        let probs = alloc_f16 d vocab in
        (Ops.Topp.sample ~s d ~probs ~p:0.9 ~theta:0.4).Ops.Topp.stats
          .Ascend.Stats.seconds
      in
      let base =
        let d = dev_cost () in
        let probs = alloc_f16 d vocab in
        (Ops.Topp.sample_baseline d ~probs ~p:0.9 ~theta:0.4).Ops.Topp.stats
          .Ascend.Stats.seconds
      in
      Table.add_row t
        [ string_of_int vocab; us (ours 32); us (ours 64); us (ours 128);
          us base ])
    [ 12; 14; 16; 18; 20; 22 ];
  emit t

(* ------------------------------------------------------------------ *)
(* Headline numbers (abstract / sections 4.1 and 6.1).                *)

let headline () =
  let t =
    Table.create ~title:"Headline speedups (paper: 5x, 9.6x, 15.2x, 37.5%)"
      ~columns:[ "claim"; "paper"; "measured" ]
  in
  let d = dev_cost () in
  let x = alloc_f16 d (pow2 22) in
  let _, sv = Scan.Scan_vec_only.run d x in
  let _, su = Scan.Scan_u.run d x in
  let _, sl = Scan.Scan_ul1.run d x in
  Table.add_row t
    [ "ScanU vs vec-only"; "5x"; Table.fmt_float (Metrics.speedup ~baseline:sv su) ^ "x" ];
  Table.add_row t
    [ "ScanUL1 vs vec-only"; "9.6x";
      Table.fmt_float (Metrics.speedup ~baseline:sv sl) ^ "x" ];
  let big = alloc_f16 d (pow2 27) in
  let _, su_big = Scan.Scan_u.run d big in
  let _, smc = Scan.Mcscan.run d big in
  Table.add_row t
    [ "MCScan vs ScanU (20 cores)"; "15.2x";
      Table.fmt_float (Metrics.speedup ~baseline:su_big smc) ^ "x" ];
  let bw = Metrics.scan_bandwidth smc ~n:(pow2 27) ~esize:2 in
  Table.add_row t
    [ "MCScan % of peak bandwidth"; "37.5%";
      Table.fmt_float (Metrics.percent_of_peak bw) ^ "%" ];
  let best_radix =
    List.fold_left
      (fun acc k ->
        let r = Ops.Radix_sort.run d (alloc_f16 d (pow2 k)) in
        let _, sb = Ops.Baseline.sort d (alloc_f16 d (pow2 k)) in
        Float.max acc
          (sb.Ascend.Stats.seconds
          /. r.Ops.Radix_sort.stats.Ascend.Stats.seconds))
      0.0 [ 23; 25; 26 ]
  in
  Table.add_row t
    [ "radix sort vs torch.sort (max over n)"; "up to 3.3x";
      Table.fmt_float best_radix ^ "x" ];
  emit t

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 3).                                   *)

let ablation_traffic () =
  (* A1: global-memory traffic per input element of each strategy. The
     recomputation-based MCScan moves ~5 element-equivalents, the
     SSA-style TCU scan ~4 but pays extra launches and barriers. *)
  let t =
    Table.create
      ~title:
        "Ablation A1: GM traffic (bytes per input element) and time, MCScan \
         vs SSA-style TCU scan"
      ~columns:
        [ "n"; "mcscan B/elem"; "mcscan us"; "tcu B/elem"; "tcu us" ]
  in
  List.iter
    (fun k ->
      let n = pow2 k in
      let d = dev_cost () in
      let x = alloc_f16 d n in
      let _, smc = Scan.Mcscan.run d x in
      let _, stc = Scan.Tcu_scan.run d x in
      let per st = float_of_int (Ascend.Stats.gm_bytes st) /. float_of_int n in
      Table.add_row t
        [ string_of_int n; Table.fmt_float (per smc);
          us smc.Ascend.Stats.seconds; Table.fmt_float (per stc);
          us stc.Ascend.Stats.seconds ])
    [ 16; 20; 24; 27 ];
  emit t

let ablation_pipeline () =
  (* A2: double buffering on/off for ScanU. *)
  let t =
    Table.create
      ~title:"Ablation A2: ScanU with and without software pipelining"
      ~columns:[ "n"; "pipelined us"; "serial us"; "gain" ]
  in
  List.iter
    (fun k ->
      let n = pow2 k in
      let d = dev_cost () in
      let x = alloc_f16 d n in
      let _, sp = Scan.Scan_u.run d x in
      let _, ss =
        Scan.Scan_core.with_schedule Scan.Scan_core.Serial (fun () ->
            Scan.Scan_u.run d x)
      in
      Table.add_row t
        [ string_of_int n; us sp.Ascend.Stats.seconds;
          us ss.Ascend.Stats.seconds;
          Table.fmt_float
            (ss.Ascend.Stats.seconds /. sp.Ascend.Stats.seconds)
          ^ "x" ])
    [ 14; 18; 22 ];
  emit t

let ablation_low_bits () =
  (* Section 6.3's expectation: sorting low-bit-width keys costs
     proportionally fewer radix passes (2x gain for 8-bit keys). *)
  let t =
    Table.create
      ~title:"Ablation A4: radix passes vs key width (u16 keys, n = 4M)"
      ~columns:[ "bits"; "time us"; "vs 16-bit" ]
  in
  let n = pow2 22 in
  let d = dev_cost () in
  let x = Ascend.Device.alloc d Ascend.Dtype.U16 n ~name:"keys" in
  let t16 =
    (Ops.Radix_sort.run ~bits:16 d x).Ops.Radix_sort.stats.Ascend.Stats.seconds
  in
  List.iter
    (fun bits ->
      let tb =
        (Ops.Radix_sort.run ~bits d x).Ops.Radix_sort.stats.Ascend.Stats
          .seconds
      in
      Table.add_row t
        [ string_of_int bits; us tb; Table.fmt_float (t16 /. tb) ^ "x" ])
    [ 16; 8; 4 ];
  emit t

let ablation_extensions () =
  (* A5: the extension kernels — segmented scan vs plain scan overhead,
     and the two reduction engine profiles. *)
  let t =
    Table.create
      ~title:
        "Ablation A5: extensions — segmented scan vs MCScan, cube vs vector          reduction"
      ~columns:
        [ "n"; "mcscan us"; "segscan us"; "cube-red us"; "vec-red us" ]
  in
  List.iter
    (fun k ->
      let n = pow2 k in
      let d = dev_cost () in
      let x = alloc_f16 d n in
      let flags = alloc_i8 d n in
      let _, smc = Scan.Mcscan.run d x in
      let _, sseg = Scan.Segmented_scan.run d ~x ~flags () in
      let _, _, scr = Scan.Cube_reduce.run_cube d x in
      let _, _, svr = Scan.Cube_reduce.run_vec d x in
      Table.add_row t
        [ string_of_int n; us smc.Ascend.Stats.seconds;
          us sseg.Ascend.Stats.seconds; us scr.Ascend.Stats.seconds;
          us svr.Ascend.Stats.seconds ])
    [ 16; 20; 24; 26 ];
  emit t;
  (* Multi-draw sampling amortisation. *)
  let t2 =
    Table.create
      ~title:
        "Ablation A6: weighted sampling, k draws via sample_many vs k single          draws (n = 4M)"
      ~columns:[ "k"; "sample_many us"; "k x single us"; "amortisation" ]
  in
  let n = pow2 22 in
  let d = dev_cost () in
  let w = alloc_f16 d n in
  let _, st_one = Ops.Weighted_sampling.sample d ~weights:w ~theta:0.5 in
  List.iter
    (fun k ->
      let thetas = Array.init k (fun j -> float_of_int j /. float_of_int (k + 1)) in
      let _, st = Ops.Weighted_sampling.sample_many d ~weights:w ~thetas in
      let singles = float_of_int k *. st_one.Ascend.Stats.seconds in
      Table.add_row t2
        [ string_of_int k; us st.Ascend.Stats.seconds; us singles;
          Table.fmt_float (singles /. st.Ascend.Stats.seconds) ^ "x" ])
    [ 1; 8; 32; 128 ];
  emit t2

let ablation_topk () =
  (* A7: three top-k strategies. Functional mode (the selects are
     data-dependent); moderate n. The streaming baseline wins at small
     k (the paper's negative result); the radix select is k-insensitive. *)
  let t =
    Table.create
      ~title:"Ablation A7: top-k strategies (n = 262144, functional run)"
      ~columns:[ "k"; "stock topk us"; "quickselect us"; "radix-select us" ]
  in
  let n = pow2 18 in
  let data = Generators.uniform_f16 ~seed:99 n in
  let d = dev_fn () in
  let x = Ascend.Device.of_array d Ascend.Dtype.F16 ~name:"x" data in
  List.iter
    (fun k ->
      let _, sb = Ops.Baseline.topk d x ~k in
      let _, sq = Ops.Topk.run d x ~k in
      let _, sr = Ops.Radix_select.run d x ~k in
      Table.add_row t
        [ string_of_int k; us sb.Ascend.Stats.seconds;
          us sq.Ascend.Stats.seconds; us sr.Ascend.Stats.seconds ])
    [ 16; 256; 4096 ];
  emit t

let ablation_cumsum_config () =
  (* A8: CumSumInfo tile-shape sensitivity of the vector-only baseline
     (the paper configures it as (128, 128)). Wider rows amortise the
     per-row instruction overhead. *)
  let t =
    Table.create
      ~title:"Ablation A8: CumSum API tile shape (vec-only baseline, n = 1M)"
      ~columns:[ "rows x cols"; "time us" ]
  in
  let n = pow2 20 in
  List.iter
    (fun (rows, cols) ->
      let d = dev_cost () in
      let x = alloc_f16 d n in
      let _, st = Scan.Scan_vec_only.run ~rows ~cols d x in
      Table.add_row t
        [ Printf.sprintf "%dx%d" rows cols; us st.Ascend.Stats.seconds ])
    [ (32, 32); (64, 64); (128, 128); (64, 256) ];
  emit t

(* ------------------------------------------------------------------ *)
(* Robustness: fault-detection coverage and resilient-run overhead.   *)

let robustness () =
  let n = pow2 14 in
  let input = Array.init n (fun i -> if i mod 37 = 0 then 1.0 else 0.0) in
  (* Every sum-monoid unary scan in the registry: the coverage table
     grows with new entries, and the reference oracle below stays
     valid (it checks a running sum). *)
  let algos = List.filter R.is_sum (R.unary_scans ()) in
  let host = { R.x = input; mask = None } in
  let run_scan (algo : R.entry) d =
    let x = Ascend.Device.of_array d Ascend.Dtype.F16 ~name:"x" input in
    match R.run algo R.default_config d (R.Tensor x) with
    | Ok (out, st) -> (out, st)
    | Error msg -> fail_verify algo.R.name msg
  in
  let trials = 24 in
  let rate = 0.02 in
  (* Coverage: fraction of fault-injected runs whose corruption the
     reference oracle catches. Only trials where a data-corrupting
     fault actually fired count (stalls cost time, not bits; and a
     flip can land on padding the kernel never reads back). *)
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Robustness R1: fault-detection coverage (%d seeds, rate %.0f%%, \
            n = %d) and resilient overhead at rate 0"
           trials (100.0 *. rate) n)
      ~columns:
        [ "algo"; "corrupted runs"; "detected"; "coverage"; "plain us";
          "resilient us"; "overhead" ]
  in
  List.iter
    (fun (algo : R.entry) ->
      let corrupted = ref 0 and detected = ref 0 in
      for seed = 1 to trials do
        let d =
          Ascend.Device.create
            ~fault:(Ascend.Fault.config ~seed ~rate ())
            ()
        in
        let out, st = run_scan algo d in
        let corrupting =
          List.exists
            (fun (e : Ascend.Fault.event) -> Ascend.Fault.corrupts_data e.kind)
            st.Ascend.Stats.faults
        in
        if corrupting then begin
          incr corrupted;
          match algo.R.check R.default_config host out with
          | Error _ -> incr detected
          | Ok () -> ()
        end
      done;
      (* Overhead: at fault rate 0 the resilient launcher runs exactly
         one attempt; its simulated time should match a plain run. *)
      let _, plain = run_scan algo (dev_fn ()) in
      let r = Runtime.Resilient.scan ~algo (dev_fn ()) ~input in
      let overhead =
        100.0
        *. (r.Runtime.Resilient.stats.Ascend.Stats.seconds
            -. plain.Ascend.Stats.seconds)
        /. plain.Ascend.Stats.seconds
      in
      Table.add_row t
        [ algo.R.name; string_of_int !corrupted; string_of_int !detected;
          (if !corrupted = 0 then "n/a"
           else
             Table.fmt_float
               (100.0 *. float_of_int !detected /. float_of_int !corrupted)
             ^ "%");
          us plain.Ascend.Stats.seconds;
          us r.Runtime.Resilient.stats.Ascend.Stats.seconds;
          Table.fmt_float overhead ^ "%" ])
    algos;
  emit t

(* ------------------------------------------------------------------ *)
(* Robustness R2: degraded-mode throughput and recovery overhead.     *)

let robustness_degraded () =
  let dead_counts = [ 0; 1; 2; 4; 8; 12; 16; 19 ] in
  let pre_kills k = List.init k (fun c -> (c, 0.0)) in
  (* Bit-identity first: MCScan re-sharded over any surviving-core
     count must match the reference exactly. *)
  let vn = 30000 in
  let input = Array.init vn (fun i -> if i mod 37 = 0 then 1.0 else 0.0) in
  let mcscan = Option.get (R.find "mcscan") in
  List.iter
    (fun k ->
      let d =
        Ascend.Device.create
          ~fault:(Ascend.Fault.config ~seed:0 ~rate:0.0 ~kills:(pre_kills k) ())
          ()
      in
      let x = Ascend.Device.of_array d Ascend.Dtype.F16 ~name:"x" input in
      verify
        ~name:(Printf.sprintf "mcscan_degraded(%d dead)" k)
        mcscan R.default_config d (R.Tensor x)
        { R.x = input; mask = None })
    dead_counts;
  note_verified "mcscan_degraded(0..19 dead)";
  let n = pow2 20 in
  let cm = Ascend.Cost_model.default in
  let t =
    Table.create
      ~title:
        "Robustness R2: MCScan with dead cores (n = 1M, s = 128): degraded \
         throughput and mid-run kill recovery overhead"
      ~columns:
        [ "dead"; "alive"; "pre-dead us"; "GB/s"; "slowdown"; "mid-kill us";
          "recovery ovh"; "live eng-busy %" ]
  in
  let t_healthy = ref 0.0 in
  List.iter
    (fun k ->
      (* Pre-dead: the cores never existed as far as the scheduler is
         concerned — pure degraded-sharding throughput. *)
      let d =
        Ascend.Device.create ~mode:Ascend.Device.Cost_only
          ~fault:(Ascend.Fault.config ~seed:0 ~rate:0.0 ~kills:(pre_kills k) ())
          ()
      in
      let x = alloc_f16 d n in
      let _, st = Scan.Mcscan.run d x in
      if k = 0 then t_healthy := st.Ascend.Stats.seconds;
      (* Mid-run kill: the same cores die 1000 busy cycles in, so their
         partial blocks are thrown away and replayed on the survivors.
         Recovery overhead is the extra time over the pre-dead run. *)
      let mid_kills = List.init k (fun c -> (c, 1000.0)) in
      let d2 =
        Ascend.Device.create ~mode:Ascend.Device.Cost_only
          ~fault:(Ascend.Fault.config ~seed:0 ~rate:0.0 ~kills:mid_kills ())
          ()
      in
      let x2 = alloc_f16 d2 n in
      let _, st2 = Scan.Mcscan.run d2 x2 in
      (* Per-core utilization from Stats.core_busy: summed engine-busy
         cycles of each surviving core over the kernel makespan. A
         core's engines (cube, vectors, MTEs) overlap, so a loaded
         core can exceed 100%. *)
      let util = Ascend.Stats.core_utilization st in
      let alive = 20 - k in
      let live_util =
        if Array.length util = 0 then 0.0
        else begin
          let acc = ref 0.0 in
          for c = k to 19 do
            acc := !acc +. (util.(c) /. cm.Ascend.Cost_model.clock_hz)
          done;
          100.0 *. !acc /. float_of_int alive
        end
      in
      Table.add_row t
        [ string_of_int k; string_of_int alive; us st.Ascend.Stats.seconds;
          gbs (Metrics.scan_bandwidth st ~n ~esize:2);
          Table.fmt_float (st.Ascend.Stats.seconds /. !t_healthy) ^ "x";
          us st2.Ascend.Stats.seconds;
          Table.fmt_float
            (100.0
            *. (st2.Ascend.Stats.seconds -. st.Ascend.Stats.seconds)
            /. st.Ascend.Stats.seconds)
          ^ "%";
          Table.fmt_float live_util ^ "%" ])
    dead_counts;
  emit t;
  (* Checkpointed batched scan under the two recovery layers: a core
     death is absorbed by the block-level launch replay (rows never
     reach the checkpoint retry path), while detected corruption fails
     the group oracle and replays only the unfinished rows. *)
  let batch = 32 and len = 4096 in
  let binput =
    Array.init (batch * len) (fun i -> if i mod 41 = 0 then 1.0 else 0.0)
  in
  let t2 =
    Table.create
      ~title:
        "Robustness R2b: checkpointed batched scan (batch = 32, len = 4096): \
         recovery overhead by failure mode"
      ~columns:
        [ "scenario"; "time us"; "group attempts"; "rows replayed";
          "overhead" ]
  in
  let base = ref 0.0 in
  List.iter
    (fun (name, fault) ->
      let d = Ascend.Device.create ?fault () in
      let r =
        Runtime.Resilient.batched_scan ~granularity:4
          ~ctl:Runtime.Degrade_ctl.(create ~policy:(fixed ~max_attempts:5 ()) ())
          d ~batch ~len ~input:binput
      in
      if not r.Runtime.Resilient.bok then
        fail_verify "batched_checkpoint" (name ^ ": incomplete checkpoint");
      let secs = r.Runtime.Resilient.bstats.Ascend.Stats.seconds in
      if fault = None then base := secs;
      Table.add_row t2
        [ name; us secs;
          string_of_int r.Runtime.Resilient.group_attempts;
          string_of_int r.Runtime.Resilient.replayed_rows;
          Table.fmt_float (100.0 *. (secs -. !base) /. !base) ^ "%" ])
    [ ("healthy", None);
      ( "kill core 0 @ 2k cycles",
        Some (Ascend.Fault.config ~seed:0 ~rate:0.0 ~kills:[ (0, 2000.0) ] ())
      );
      ( "faults 2% (seed 9)",
        Some (Ascend.Fault.config ~seed:9 ~rate:0.02 ()) );
      ( "faults 2% + kill core 1",
        Some
          (Ascend.Fault.config ~seed:9 ~rate:0.02 ~kills:[ (1, 2000.0) ] ())
      ) ];
  note_verified "batched_checkpoint(kill+faults mid-batch)";
  emit t2

let () =
  let t0 = Sys.time () in
  Format.printf "Ascend parallel-scan reproduction benchmark harness@.";
  Format.printf "%a@." Ascend.Cost_model.pp Ascend.Cost_model.default;
  verify_entries ();
  fig3 ();
  fig5 ();
  fig8 ();
  fig9 ();
  fig10 ();
  fig11 ();
  fig12 ();
  fig13 ();
  headline ();
  ablation_traffic ();
  ablation_pipeline ();
  ablation_low_bits ();
  ablation_extensions ();
  ablation_topk ();
  ablation_cumsum_config ();
  robustness ();
  robustness_degraded ();
  Printf.printf "\nFunctionally verified against reference oracles: %s\n"
    (String.concat ", " (List.rev !verified));
  Printf.printf "\nTotal harness time: %.1f s (cpu)\n" (Sys.time () -. t0)
