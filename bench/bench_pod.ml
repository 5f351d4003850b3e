(* Pod / distributed-scan benchmark (BENCH_7): the multi-NPU layer
   measured end to end, in process.

   Three sections:

   - exchange schedules: the distributed scan on 2/4/8-device pods
     under both schedules. Ring and all-gather must produce identical
     bytes (the fold order is fixed by shard index, not by schedule);
     what differs is link traffic and the bandwidth-bound exchange
     phase, which is what the numbers show.

   - kill-device recovery: a checkpointed pod run that loses a device
     mid-batch versus a clean run. The re-sharding rule keeps the
     output bytes identical; recovery latency is the extra simulated
     time (retried group + backoff) the attrition run pays.

   - pod-partition crash/resume: the scenarios/pod-partition.chaos
     storyline (link outage + fault storm + device kill + host crash)
     run as reference / crashed / resumed legs against a checkpoint
     store, exactly like `pod run` / `pod resume`.

   Invariants enforced (exit 1 on violation, so CI can gate):
   rows lost = 0, resume-vs-reference byte diffs = 0, re-executed
   committed rows = 0, ring-vs-allgather byte diffs = 0, and retry
   amplification <= 2.0 under pod-partition.

   Emits BENCH_7.json (path overridable as argv.(1); the scenario file
   as argv.(2)). *)

let batch = 16
let len = 2048
let devices = 4

let ols =
  Bechamel.Analyze.ols ~bootstrap:0 ~r_square:false
    ~predictors:[| Bechamel.Measure.run |]

let cfg = Bechamel.Benchmark.cfg ~limit:20 ~quota:(Bechamel.Time.second 0.5) ()

let time_ns name f =
  let open Bechamel in
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

let input = Array.init (batch * len) (fun i -> if i mod 53 = 0 then 1.0 else 0.0)

let failures = ref 0

let must_zero what v =
  if v <> 0 then begin
    incr failures;
    Printf.printf "  INVARIANT VIOLATED: %s = %d (expected 0)\n%!" what v
  end

let diffs a b =
  let d = ref 0 in
  Array.iteri (fun i v -> if v <> b.(i) then incr d) a;
  !d

(* --- section 1: exchange schedules ---------------------------------- *)

let dist_bytes (r : Scan.Dist_scan.report) =
  Array.init (Ascend.Global_tensor.length r.Scan.Dist_scan.y) (fun i ->
      Int64.bits_of_float (Ascend.Global_tensor.get r.Scan.Dist_scan.y i))

let run_dist ~d ~schedule row =
  let pod = Pod.create ~devices:d () in
  let x =
    Ascend.Device.of_array (Pod.primary pod) Ascend.Dtype.F16 ~name:"bench_x"
      row
  in
  Scan.Dist_scan.run ~schedule pod x

let bench_schedules () =
  let n = 32768 in
  let row = Array.init n (fun i -> if i mod 53 = 0 then 1.0 else 0.0) in
  let per_d d =
    let ring = run_dist ~d ~schedule:Scan.Dist_scan.Ring row in
    let ag = run_dist ~d ~schedule:Scan.Dist_scan.All_gather row in
    must_zero
      (Printf.sprintf "schedules: ring-vs-allgather byte diffs (d=%d)" d)
      (diffs (dist_bytes ring) (dist_bytes ag));
    let leg name (r : Scan.Dist_scan.report) =
      Printf.printf
        "  d=%d %-9s compute %8.3f us  link %8.3f us  sends %3d  retries %d\n%!"
        d name
        (r.Scan.Dist_scan.stats.Ascend.Stats.seconds *. 1e6)
        (r.Scan.Dist_scan.link_seconds *. 1e6)
        r.Scan.Dist_scan.exchange_sends r.Scan.Dist_scan.exchange_retries;
      Obs.Jsonw.Obj
        [
          ( "compute_sim_us",
            Obs.Jsonw.Float (r.Scan.Dist_scan.stats.Ascend.Stats.seconds *. 1e6)
          );
          ("link_sim_us", Obs.Jsonw.Float (r.Scan.Dist_scan.link_seconds *. 1e6));
          ("exchange_sends", Obs.Jsonw.Int r.Scan.Dist_scan.exchange_sends);
          ("exchange_retries", Obs.Jsonw.Int r.Scan.Dist_scan.exchange_retries);
        ]
    in
    ( Printf.sprintf "devices_%d" d,
      Obs.Jsonw.Obj
        [
          ("n", Obs.Jsonw.Int n);
          ("ring", leg "ring" ring);
          ("allgather", leg "allgather" ag);
        ] )
  in
  Obs.Jsonw.Obj (List.map per_d [ 2; 4; 8 ])

(* --- section 2: kill-device recovery --------------------------------- *)

let kill_scenario =
  "name bench-kill\nseed 5\nat launch 1 kill device=2\n"

let run_pod ?store ?chaos () =
  let pod = Pod.create ~devices () in
  (Runtime.Pod_runner.batched_scan ?store ?chaos pod ~batch ~len ~input, pod)

let pod_bytes (r : Runtime.Resilient.batched_report) =
  Array.init (batch * len) (fun i ->
      Int64.bits_of_float (Ascend.Global_tensor.get r.Runtime.Resilient.y i))

let pod_of r = Option.get r.Runtime.Resilient.pod

let bench_kill_recovery () =
  let sc =
    match Runtime.Chaos.parse kill_scenario with
    | Ok sc -> sc
    | Error e -> failwith ("bench-kill: " ^ e)
  in
  let clean, _ = run_pod () in
  let killed, _ =
    run_pod ~chaos:(Runtime.Chaos.arm ~skip_crashes:true sc) ()
  in
  must_zero "kill: clean-vs-attrition byte diffs"
    (diffs (pod_bytes clean) (pod_bytes killed));
  must_zero "kill: rows shed" killed.Runtime.Resilient.shed_rows;
  let clean_us = clean.Runtime.Resilient.bstats.Ascend.Stats.seconds *. 1e6 in
  let killed_us = killed.Runtime.Resilient.bstats.Ascend.Stats.seconds *. 1e6 in
  (* Compute-side recovery is 0 when the kill lands between launches
     (re-sharding is proactive, and the Stats are placement-invariant
     by design). The link delta is typically NEGATIVE: shards that land
     on the same surviving device exchange prefixes for free, so
     attrition collapses traffic onto fewer links rather than adding
     retries. A positive recovery latency only appears when the kill
     interrupts an in-flight group and the runner retries it. *)
  let recovery_us = killed_us -. clean_us in
  let link_delta_us =
    ((pod_of killed).Runtime.Resilient.link_seconds
    -. (pod_of clean).Runtime.Resilient.link_seconds)
    *. 1e6
  in
  let dist_ns =
    let row = Array.sub input 0 len in
    time_ns "dist_scan_host" (fun () ->
        ignore (run_dist ~d:devices ~schedule:Scan.Dist_scan.Ring row))
  in
  Printf.printf
    "  kill-device: clean %8.3f us  attrition %8.3f us  recovery %8.3f us  \
     link delta %8.3f us  devices lost %d\n\
     %!"
    clean_us killed_us recovery_us link_delta_us
    (pod_of killed).Runtime.Resilient.devices_lost;
  Obs.Jsonw.Obj
    [
      ("batch", Obs.Jsonw.Int batch);
      ("len", Obs.Jsonw.Int len);
      ("devices", Obs.Jsonw.Int devices);
      ("clean_sim_us", Obs.Jsonw.Float clean_us);
      ("attrition_sim_us", Obs.Jsonw.Float killed_us);
      ("recovery_latency_us", Obs.Jsonw.Float recovery_us);
      ("link_delta_us", Obs.Jsonw.Float link_delta_us);
      ( "devices_lost",
        Obs.Jsonw.Int (pod_of killed).Runtime.Resilient.devices_lost );
      ( "group_attempts",
        Obs.Jsonw.Int killed.Runtime.Resilient.group_attempts );
      ("byte_diffs", Obs.Jsonw.Int 0);
      ("dist_scan_host_ns", Obs.Jsonw.Float dist_ns);
    ]

(* --- section 3: pod-partition crash/resume ---------------------------- *)

let bench_partition scenario_path =
  let text =
    let ic = open_in_bin scenario_path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let sc =
    match Runtime.Chaos.parse text with
    | Ok sc -> sc
    | Error e -> failwith (scenario_path ^ ": " ^ e)
  in
  let make_pod () =
    let primary =
      Ascend.Device.create ~mode:Ascend.Device.Functional
        ~fault:(Runtime.Chaos.fault_config sc) ()
    in
    Pod.create_with ~primary ~devices ()
  in
  let run_leg ?store ~skip_crashes () =
    let pod = make_pod () in
    let ch = Runtime.Chaos.arm ~skip_crashes sc in
    Runtime.Pod_runner.batched_scan ?store ~chaos:ch pod ~batch ~len ~input
  in
  let store_path = Filename.temp_file "bench_pod_" ".ckpt" in
  (* Reference: full storyline, crash skipped. *)
  let ref_r = run_leg ~skip_crashes:true () in
  let ref_bytes = pod_bytes ref_r in
  let retry_amp =
    float_of_int ref_r.Runtime.Resilient.group_attempts
    /. float_of_int
         (max 1
            (Runtime.Checkpoint.commits ref_r.Runtime.Resilient.checkpoint))
  in
  (* Crashed leg: Host_crash escapes mid-batch; only the store survives. *)
  let store =
    Runtime.Checkpoint_store.create ~path:store_path ~rows:batch ~len
      ~meta:"bench-pod-partition" ()
  in
  let crashed_commits =
    match run_leg ~store ~skip_crashes:false () with
    | _ -> Runtime.Checkpoint_store.commits store
    | exception Runtime.Chaos.Host_crash _ ->
        Runtime.Checkpoint_store.commits store
  in
  (* Resume leg: reopen like a fresh `pod resume` process. *)
  let resumed_store, l =
    match Runtime.Checkpoint_store.reopen ~path:store_path with
    | Ok (st, l) -> (st, l)
    | Error e -> failwith ("reopen: " ^ e)
  in
  let res_r = run_leg ~store:resumed_store ~skip_crashes:true () in
  let rows_done =
    Runtime.Checkpoint.done_count res_r.Runtime.Resilient.checkpoint
  in
  let rows_lost = batch - rows_done in
  let byte_diffs = diffs ref_bytes (pod_bytes res_r) in
  let reexecuted =
    let all = Runtime.Checkpoint_store.groups resumed_store in
    let restored = Array.make batch false in
    List.iteri
      (fun i (lo, hi, _) ->
        if i < crashed_commits then
          for r = lo to hi - 1 do
            restored.(r) <- true
          done)
      all;
    let overlap = ref 0 in
    List.iteri
      (fun i (lo, hi, _) ->
        if i >= crashed_commits then
          for r = lo to hi - 1 do
            if restored.(r) then incr overlap
          done)
      all;
    !overlap
  in
  Printf.printf
    "  pod-partition: retry-amp %.2f  commits-at-crash %d  restored %d  lost \
     %d  diffs %d  rerouted %d  devices lost %d\n\
     %!"
    retry_amp crashed_commits res_r.Runtime.Resilient.restored_rows rows_lost
    byte_diffs (pod_of ref_r).Runtime.Resilient.rerouted
    (pod_of ref_r).Runtime.Resilient.devices_lost;
  must_zero "pod-partition: rows lost" rows_lost;
  must_zero "pod-partition: resume-vs-reference byte diffs" byte_diffs;
  must_zero "pod-partition: re-executed committed rows" reexecuted;
  if retry_amp > 2.0 then begin
    incr failures;
    Printf.printf
      "  INVARIANT VIOLATED: pod-partition retry amplification %.2f > 2.0\n%!"
      retry_amp
  end;
  Sys.remove store_path;
  (try Sys.remove (store_path ^ ".tmp") with Sys_error _ -> ());
  Obs.Jsonw.Obj
    [
      ("scenario", Obs.Jsonw.String scenario_path);
      ("batch", Obs.Jsonw.Int batch);
      ("len", Obs.Jsonw.Int len);
      ("devices", Obs.Jsonw.Int devices);
      ( "reference_sim_us",
        Obs.Jsonw.Float
          (ref_r.Runtime.Resilient.bstats.Ascend.Stats.seconds *. 1e6) );
      ( "resume_sim_us",
        Obs.Jsonw.Float
          (res_r.Runtime.Resilient.bstats.Ascend.Stats.seconds *. 1e6) );
      ("retry_amplification", Obs.Jsonw.Float retry_amp);
      ("store_commits_at_crash", Obs.Jsonw.Int crashed_commits);
      ("restored_rows", Obs.Jsonw.Int res_r.Runtime.Resilient.restored_rows);
      ("torn_tail_on_reopen", Obs.Jsonw.Bool l.Runtime.Checkpoint_store.l_torn);
      ("rows_lost", Obs.Jsonw.Int rows_lost);
      ("resume_byte_diffs", Obs.Jsonw.Int byte_diffs);
      ("reexecuted_committed_rows", Obs.Jsonw.Int reexecuted);
      ( "rerouted_sends",
        Obs.Jsonw.Int (pod_of ref_r).Runtime.Resilient.rerouted );
      ( "devices_lost",
        Obs.Jsonw.Int (pod_of ref_r).Runtime.Resilient.devices_lost );
    ]

let () =
  let out_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_7.json"
  in
  let scenario_path =
    if Array.length Sys.argv > 2 then Sys.argv.(2)
    else "scenarios/pod-partition.chaos"
  in
  Printf.printf "BENCH_7: pod scan, batch = %d, len = %d, devices = %d\n%!"
    batch len devices;
  let schedules = bench_schedules () in
  let kill = bench_kill_recovery () in
  let partition = bench_partition scenario_path in
  let doc =
    Obs.Jsonw.Obj
      [
        ("bench", Obs.Jsonw.String "BENCH_7");
        ("generated_by", Obs.Jsonw.String "bench/bench_pod.ml");
        ( "note",
          Obs.Jsonw.String
            "Distributed scan over a simulated pod: exchange-schedule \
             comparison, kill-device recovery, and the pod-partition \
             crash/resume storyline. Simulated metrics are deterministic; \
             dist_scan_host_ns is host wall-clock and varies by machine. \
             rows_lost, resume_byte_diffs, reexecuted_committed_rows and the \
             ring-vs-allgather diff must be 0; retry_amplification must stay \
             <= 2.0." );
        ("schedules", schedules);
        ("kill_recovery", kill);
        ("pod_partition", partition);
      ]
  in
  let oc = open_out out_path in
  Obs.Jsonw.to_channel ~pretty:true oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" out_path;
  if !failures > 0 then begin
    Printf.printf "BENCH_7: %d invariant violation(s)\n%!" !failures;
    exit 1
  end
