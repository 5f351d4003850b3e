(* Host-engine benchmark (BENCH_8): Bechamel wall-clock of the
   functional-mode MCScan at domain counts 1/2/4, and the calibration
   loop that lets perf_gate compare it across machines.

   Emits BENCH_8.json (path overridable as the first non-flag
   argument). `--smoke` runs only the perf-gate subset (domains = 1,
   shorter quota) so CI can sample the hot path in a few seconds.

   The simulated time is invariant under the domain count by
   construction (exit 1 if it is not) — only the host wall-clock
   changes, and only when the machine actually has spare hardware
   threads: [host_cpus] is recorded, and on a single-CPU host (where
   domain parallelism can only add GC-synchronisation overhead) the
   host-speedup assertion is skipped and flagged as
   "skipped_speedup_assertion" in the JSON.

   [calibration_ns] times a fixed pure-OCaml arithmetic loop; the
   perf gate normalises ns_per_run by it so a slower or faster CI
   machine does not register as a regression or mask one. *)

let scan_n = 1 lsl 18

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
  (* Rounded to the precision the numbers carry: whole nanoseconds,
     3-digit speedups and simulated microseconds. *)
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
             count. Outputs and simulated stats are bit-identical across rows; \
             host_speedup_vs_1 > 1 requires host_cpus > 1 (on a single-CPU \
             host domain dispatch can only add overhead). ns_per_run values \
             are comparable across machines only after dividing by \
             calibration_ns." );
        ("mcscan_n", Obs.Jsonw.Int scan_n);
        ("mcscan_sim_us", digits 3 (base_sim *. 1e6));
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
      ]
  in
  let oc = open_out out_path in
  output_string oc (Obs.Jsonw.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" out_path
