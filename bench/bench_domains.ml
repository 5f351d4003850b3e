(* Host-engine benchmark (BENCH_8): Bechamel wall-clock of the
   functional-mode MCScan at domain counts 1/2/4, plus before/after
   micro-benchmarks for the bulk host paths this engine replaced — the
   scalar get/set shim loop vs the dtype-specialized bulk kernel, and
   the branchy reference fp16 encoder vs the bias-add bit trick — and
   the fp16 decode table vs the historical [Float.pow] decoder.

   Emits BENCH_8.json (path overridable as the first non-flag
   argument). `--smoke` runs only the perf-gate subset (domains = 1,
   shorter quota) so CI can sample the hot path in a few seconds.

   The simulated time is invariant under the domain count by
   construction — only the host wall-clock changes, and only when the
   machine actually has spare hardware threads: [host_cpus] is
   recorded, and on a single-CPU host (where domain parallelism can
   only add GC-synchronisation overhead) the host-speedup assertion is
   skipped and flagged as "skipped_speedup_assertion" in the JSON.

   [calibration_ns] times a fixed pure-OCaml arithmetic loop; the
   perf gate normalises ns_per_run by it so a slower or faster CI
   machine does not register as a regression or mask one. *)

let scan_n = 1 lsl 18

(* The PR-7 baseline: BENCH_3.json's single-domain MCScan ns_per_run,
   measured before Bigarray storage / bulk kernels / batched charging.
   Kept verbatim so speedup_vs_bench3 is comparable across hosts only
   via the calibration loop, and meaningful directly on this one. *)
let baseline_bench3_ns_per_run = 24_879_493.0

let ols =
  Bechamel.Analyze.ols ~bootstrap:0 ~r_square:false
    ~predictors:[| Bechamel.Measure.run |]

(* ns/run of one thunk via Bechamel's monotonic clock. *)
let time_ns ~quota name f =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Bechamel.Time.second quota) () in
  let test = Test.make ~name (Staged.stage f) in
  let instance = Toolkit.Instance.monotonic_clock in
  let results = Benchmark.all cfg [ instance ] test in
  let analysis = Analyze.all ols instance results in
  let est = ref nan in
  Hashtbl.iter
    (fun _ result ->
      match Analyze.OLS.estimates result with
      | Some [ e ] -> est := e
      | _ -> ())
    analysis;
  !est

(* Fixed pure-OCaml host-speed probe: integer/float arithmetic only,
   no allocation, no library calls. The perf gate divides ns_per_run
   by this to compare measurements taken on different machines. *)
let calibration () =
  let acc = ref 0.0 in
  for i = 0 to (1 lsl 16) - 1 do
    acc := !acc +. (float_of_int (i land 1023) *. 0.5) -. float_of_int (i lsr 7)
  done;
  ignore (Sys.opaque_identity !acc)

(* The pre-table fp16 decoder, inlined as the baseline for the LUT. *)
let reference_to_float h =
  let sign = if Ascend.Fp16.bits_sign h = 1 then -1.0 else 1.0 in
  let e = Ascend.Fp16.bits_exponent h in
  let m = Ascend.Fp16.bits_mantissa h in
  if e = 31 then if m = 0 then sign *. infinity else Float.nan
  else if e = 0 then sign *. float_of_int m *. 0x1p-24
  else sign *. float_of_int (m lor 0x400) *. Float.pow 2.0 (float_of_int (e - 25))

(* The pre-bit-trick fp16 encoder: branch on the f32 exponent class
   and round via float arithmetic, as [Fp16.of_float] did before the
   bias-add rewrite. Kept here as the before/after baseline. *)
let reference_of_float f =
  let g = Int32.float_of_bits (Int32.bits_of_float f) in
  let sign = if Float.sign_bit g then 0x8000 else 0 in
  if Float.is_nan g then sign lor 0x7E00
  else
    let a = Float.abs g in
    if a >= 65520.0 then sign lor 0x7C00
    else if a = 0.0 then sign
    else
      let m, e = Float.frexp a in
      ignore m;
      let rne scaled =
        let fl = Float.floor scaled in
        let rest = scaled -. fl in
        let k = int_of_float fl in
        if rest > 0.5 || (rest = 0.5 && k land 1 = 1) then k + 1 else k
      in
      if e - 1 >= -14 then begin
        (* Normal half range: scale so the integer part is the 11-bit
           significand, round to nearest even, re-normalise on
           overflow. *)
        let q = rne (Float.ldexp a (11 - e)) in
        let q, e = if q = 2048 then (1024, e + 1) else (q, e) in
        if e - 1 > 15 then sign lor 0x7C00
        else sign lor (((e - 1 + 15) lsl 10) lor (q land 0x3FF))
      end
      else begin
        let q = rne (Float.ldexp a 24) in
        if q >= 1024 then sign lor 0x400 else sign lor q
      end

let bench_fp16 ~quota () =
  let sweep decode () =
    let acc = ref 0.0 in
    for bits = 0 to 0xFFFF do
      let v = decode bits in
      if not (Float.is_nan v) then acc := !acc +. v
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let table_ns = time_ns ~quota "fp16_table_64k" (sweep Ascend.Fp16.to_float) in
  let reference_ns =
    time_ns ~quota "fp16_reference_64k" (sweep reference_to_float)
  in
  (table_ns, reference_ns)

(* Before/after for the encode path: one pass over every finite half
   value (as doubles), encoded back to bits. *)
let bench_fp16_encode ~quota () =
  let values =
    Array.init 0x10000 (fun bits ->
        let v = Ascend.Fp16.to_float bits in
        if Float.is_nan v then 0.0 else v)
  in
  let sweep encode () =
    let acc = ref 0 in
    for i = 0 to Array.length values - 1 do
      acc := !acc lxor encode (Array.unsafe_get values i)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let bit_trick_ns =
    time_ns ~quota "fp16_encode_bit_trick_64k" (sweep Ascend.Fp16.of_float)
  in
  let reference_ns =
    time_ns ~quota "fp16_encode_reference_64k" (sweep reference_of_float)
  in
  (bit_trick_ns, reference_ns)

(* Before/after for the element-wise path: the scalar get/set shim
   loop (exactly what Vec.binop compiled to before the bulk engine)
   vs Host_buffer.map2_binop, both on one UB-sized fp16 tile. *)
let bench_bulk_map2 ~quota () =
  let len = 16384 in
  let mk () =
    let b = Ascend.Host_buffer.create Ascend.Dtype.F16 len in
    for i = 0 to len - 1 do
      Ascend.Host_buffer.set b i (float_of_int (i mod 97) *. 0.25)
    done;
    b
  in
  let a = mk () and b = mk () and d = Ascend.Host_buffer.create Ascend.Dtype.F16 len in
  let shim () =
    for i = 0 to len - 1 do
      Ascend.Host_buffer.set d i
        (Ascend.Host_buffer.get a i +. Ascend.Host_buffer.get b i)
    done
  in
  let bulk () =
    Ascend.Host_buffer.map2_binop Ascend.Host_buffer.Add ~src0:a ~src0_off:0
      ~src1:b ~src1_off:0 ~dst:d ~dst_off:0 ~len
  in
  let shim_ns = time_ns ~quota "map2_shim_16k" shim in
  let bulk_ns = time_ns ~quota "map2_bulk_16k" bulk in
  (len, shim_ns, bulk_ns)

let bench_mcscan ~quota domains =
  let d = Ascend.Device.create ~domains () in
  let data = Array.init scan_n (fun i -> if i mod 53 = 0 then 1.0 else 0.0) in
  let x = Ascend.Device.of_array d Ascend.Dtype.F16 ~name:"x" data in
  let y0, st = Scan.Mcscan.run d x in
  Ascend.Global_tensor.retire y0;
  (* Retiring [y] inside the thunk measures the steady state a real
     caller sees: output storage cycles through the buffer pool
     instead of accumulating fresh Bigarrays for the GC. *)
  let ns =
    time_ns ~quota
      (Printf.sprintf "mcscan_d%d" domains)
      (fun () ->
        let y, _ = Scan.Mcscan.run d x in
        Ascend.Global_tensor.retire y)
  in
  (ns, st)

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let out_path =
    let args =
      Array.to_list Sys.argv |> List.tl |> List.filter (( <> ) "--smoke")
    in
    match args with p :: _ -> p | [] -> "BENCH_8.json"
  in
  let quota = if smoke then 0.2 else 0.5 in
  let domain_counts = if smoke then [ 1 ] else [ 1; 2; 4 ] in
  let host_cpus = Domain.recommended_domain_count () in
  Printf.printf "BENCH_8%s: MCScan host wall-clock, n = %d, host CPUs = %d\n%!"
    (if smoke then " (smoke)" else "")
    scan_n host_cpus;
  let calibration_ns = time_ns ~quota "calibration_64k" calibration in
  Printf.printf "  calibration loop: %.0f ns\n%!" calibration_ns;
  let runs = List.map (fun dm -> (dm, bench_mcscan ~quota dm)) domain_counts in
  let base_ns =
    match runs with (_, (ns, _)) :: _ -> ns | [] -> assert false
  in
  let base_sim =
    match runs with (_, (_, st)) :: _ -> st.Ascend.Stats.seconds | [] -> 0.0
  in
  List.iter
    (fun (dm, (ns, (st : Ascend.Stats.t))) ->
      (* The simulated schedule must not depend on host parallelism. *)
      if st.Ascend.Stats.seconds <> base_sim then (
        Printf.eprintf
          "BENCH_8: simulated seconds changed with domains=%d (%.9g vs %.9g)\n"
          dm st.Ascend.Stats.seconds base_sim;
        exit 1);
      Printf.printf
        "  domains=%d  %12.0f ns/run  speedup vs 1: %5.2fx  (sim %.3f us, \
         stats invariant)\n%!"
        dm ns (base_ns /. ns)
        (st.Ascend.Stats.seconds *. 1e6))
    runs;
  let speedup_vs_bench3 = baseline_bench3_ns_per_run /. base_ns in
  Printf.printf "  vs BENCH_3 single-domain baseline (%.0f ns): %.2fx\n%!"
    baseline_bench3_ns_per_run speedup_vs_bench3;
  let skipped_speedup_assertion = host_cpus <= 1 in
  (if (not skipped_speedup_assertion) && not smoke then
     (* On a genuinely multicore host, at least one multi-domain row
        must beat the sequential engine. Single-CPU hosts skip this:
        there domain dispatch can only add overhead. *)
     let best =
       List.fold_left
         (fun acc (dm, (ns, _)) -> if dm > 1 then Float.min acc ns else acc)
         infinity runs
     in
     if best > base_ns then (
       Printf.eprintf
         "BENCH_8: no multi-domain speedup on a %d-CPU host (best %.0f ns vs \
          %.0f ns sequential)\n"
         host_cpus best base_ns;
       exit 1));
  let table_ns, dec_reference_ns = bench_fp16 ~quota () in
  Printf.printf
    "  fp16 decode 64k patterns: table %.0f ns, Float.pow reference %.0f ns \
     (%.2fx)\n%!"
    table_ns dec_reference_ns
    (dec_reference_ns /. table_ns);
  let enc_trick_ns, enc_reference_ns = bench_fp16_encode ~quota () in
  Printf.printf
    "  fp16 encode 64k values: bit trick %.0f ns, frexp reference %.0f ns \
     (%.2fx)\n%!"
    enc_trick_ns enc_reference_ns
    (enc_reference_ns /. enc_trick_ns);
  let map2_len, shim_ns, bulk_ns = bench_bulk_map2 ~quota () in
  Printf.printf
    "  map2 add fp16 x%d: scalar shim %.0f ns, bulk kernel %.0f ns (%.2fx)\n%!"
    map2_len shim_ns bulk_ns (shim_ns /. bulk_ns);
  (* Rounded to the precision the numbers carry: whole nanoseconds,
     3-digit speedups vs 1, 2-digit other ratios. *)
  let ns x = Obs.Jsonw.Int (int_of_float (Float.round x)) in
  let digits d x =
    let k = 10.0 ** float_of_int d in
    Obs.Jsonw.Float (Float.round (x *. k) /. k)
  in
  let doc =
    Obs.Jsonw.Obj
      [
        ("bench", Obs.Jsonw.String "BENCH_8");
        ("generated_by", Obs.Jsonw.String "bench/bench_domains.ml");
        ("smoke", Obs.Jsonw.Bool smoke);
        ("host_cpus", Obs.Jsonw.Int host_cpus);
        ("skipped_speedup_assertion", Obs.Jsonw.Bool skipped_speedup_assertion);
        ("calibration_ns", ns calibration_ns);
        ( "note",
          Obs.Jsonw.String
            "Host wall-clock of the functional MCScan simulation by domain \
             count, with before/after micros for the bulk host engine. \
             Outputs and simulated stats are bit-identical across rows; \
             host_speedup_vs_1 > 1 requires host_cpus > 1 (on a single-CPU \
             host domain dispatch can only add overhead). ns_per_run values \
             are comparable across machines only after dividing by \
             calibration_ns." );
        ("mcscan_n", Obs.Jsonw.Int scan_n);
        ("mcscan_sim_us", digits 3 (base_sim *. 1e6));
        ("baseline_bench3_ns_per_run", ns baseline_bench3_ns_per_run);
        ("speedup_vs_bench3", digits 2 speedup_vs_bench3);
        ( "mcscan",
          Obs.Jsonw.List
            (List.map
               (fun (dm, (run_ns, _)) ->
                 Obs.Jsonw.Obj
                   [
                     ("domains", Obs.Jsonw.Int dm);
                     ("ns_per_run", ns run_ns);
                     ("host_speedup_vs_1", digits 3 (base_ns /. run_ns));
                   ])
               runs) );
        ( "bulk_map2",
          Obs.Jsonw.Obj
            [
              ("len", Obs.Jsonw.Int map2_len);
              ("scalar_shim_ns", ns shim_ns);
              ("bulk_kernel_ns", ns bulk_ns);
              ("bulk_speedup", digits 2 (shim_ns /. bulk_ns));
            ] );
        ( "fp16_encode",
          Obs.Jsonw.Obj
            [
              ("bit_trick_ns_per_64k", ns enc_trick_ns);
              ("frexp_reference_ns_per_64k", ns enc_reference_ns);
              ("bit_trick_speedup", digits 2 (enc_reference_ns /. enc_trick_ns));
            ] );
        ( "fp16_decode",
          Obs.Jsonw.Obj
            [
              ("table_ns_per_64k", ns table_ns);
              ("float_pow_reference_ns_per_64k", ns dec_reference_ns);
              ("lut_speedup", digits 2 (dec_reference_ns /. table_ns));
            ] );
      ]
  in
  let oc = open_out out_path in
  output_string oc (Obs.Jsonw.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" out_path
