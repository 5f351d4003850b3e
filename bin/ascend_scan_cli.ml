(* Command-line driver for the simulated Ascend scan library.

   Subcommands:
     run      run any registered operator (--list-ops) on a synthetic workload
     chaos    scenario-driven failure storylines with crash-consistent resume
     pod      the distributed runner on a simulated multi-NPU pod
     trace    inspect recorded trace files
     profile  critical-path analysis of a recorded trace
     info     print the device / cost-model description

   Examples:
     ascend_scan_cli run --op mcscan -n 65536 --check
     ascend_scan_cli run --op mcscan -n 1048576 --kill-core 3@5000
     ascend_scan_cli run --op scanul1 -n 65536 -s 64 --cost-only
     ascend_scan_cli run --op batched_u -n 1048576 --batch 64 --resilient
     ascend_scan_cli run --op topp -n 32768 -p 0.9 --theta 0.3 *)

open Cmdliner

(* Pull in the [ops] registry entries: without this forcing call the
   linker would drop the registration module and --list-ops would only
   show the scan kernels. *)
let () = Ops.Ops_registry.install ()

(* Argument-validation failures beyond what cmdliner can express; they
   exit 2 with a usage pointer, unlike runtime kernel errors (exit 1). *)
exception Usage_error of string

let is_sum_monoid (algo : Scan.Scan_api.algo) =
  match algo.Scan.Op_registry.monoid with
  | Some (module Op : Scan.Scan_op.S) -> String.equal Op.name "sum"
  | None -> false

let check_n n =
  if n < 1 then
    raise (Usage_error (Printf.sprintf "N must be >= 1 (got %d)" n))

let make_device ?faults ?(kills = []) ?quarantine ?deadline ?(sanitize = false)
    ?domains cost_only =
  (match domains with
  | Some d when d < 1 ->
      raise
        (Usage_error
           (Printf.sprintf "--domains: domain count must be >= 1 (got %d)" d))
  | _ -> ());
  let num_cores = Ascend.Cost_model.default.Ascend.Cost_model.num_ai_cores in
  List.iter
    (fun (core, _) ->
      if core >= num_cores then
        raise
          (Usage_error
             (Printf.sprintf "--kill-core: core %d out of range [0,%d)" core
                num_cores)))
    kills;
  (match deadline with
  | Some d when d <= 0.0 ->
      raise (Usage_error "--deadline: budget must be a positive cycle count")
  | _ -> ());
  (match quarantine with
  | Some q when q < 1 ->
      raise (Usage_error "--quarantine: fault budget must be >= 1")
  | _ -> ());
  let fault =
    match (faults, kills, quarantine) with
    | None, [], None -> None
    | _ ->
        (* Kills and quarantine ride on the fault config; without
           --inject-faults the injector runs at rate 0 (no transient
           faults, persistent modes only). *)
        let seed, rate = Option.value ~default:(0, 0.0) faults in
        Some
          (Ascend.Fault.config ~seed ~rate ~kills ?quarantine_after:quarantine
             ())
  in
  Ascend.Device.create
    ~mode:(if cost_only then Ascend.Device.Cost_only else Ascend.Device.Functional)
    ?fault ~sanitize ?deadline_cycles:deadline ?domains ()

let print_stats st = Format.printf "%a@." Ascend.Stats.pp st

(* Post-run robustness reports: the fault log and the sanitizer
   diagnostics, whenever the corresponding flag armed them. *)
let print_robustness device =
  (match Ascend.Device.fault device with
  | Some f -> Format.printf "%a@." Ascend.Fault.pp_summary f
  | None -> ());
  (match Ascend.Device.sanitizer device with
  | Some san -> Format.printf "%a@." Ascend.Sanitizer.pp_report san
  | None -> ());
  let health = Ascend.Device.health device in
  if
    Ascend.Health.deaths health <> []
    || Ascend.Health.num_alive health < Ascend.Device.num_cores device
  then Format.printf "%a@." Ascend.Health.pp health

(* Observability options (tracing, stats export, metrics), shared by
   the kernel-running subcommands. Arming happens before the run (the
   recorder hooks the launch engine), emission after. *)

type obs_opts = {
  trace_file : string option;
  stats_json_file : string option;
  metrics : bool;
  profile_file : string option;
}

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let obs_term =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record every simulated instruction and write a Chrome \
             trace-event JSON file (load it in Perfetto or \
             chrome://tracing, or inspect it with $(b,trace summary)).")
  in
  let stats_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:"Write the run statistics as a JSON document.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print Prometheus text-format counters and histograms for the \
             run on stdout.")
  in
  let profile_arg =
    Arg.(
      value
      & opt ~vopt:(Some "profile.json") (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Record the run, reconstruct the launch DAG from the trace, and \
             print the critical-path profile (per-engine blame, what-if \
             analysis, roofline); also writes the profile document to \
             $(docv) (default $(b,profile.json)).")
  in
  Term.(
    const (fun trace_file stats_json_file metrics profile_file ->
        { trace_file; stats_json_file; metrics; profile_file })
    $ trace_arg $ stats_json_arg $ metrics_arg $ profile_arg)

let arm_obs device obs =
  if obs.trace_file <> None || obs.metrics || obs.profile_file <> None then
    ignore (Ascend.Device.arm_trace device)

(* Critical-path profile of a parsed trace document: print the
   human-readable report and write the combined profile.json
   (blame + what-if + roofline). Shared by the --profile run flag and
   the offline [profile] subcommand. [on_error] takes a document the
   profiler rejects: by default a simulator bug (exit 1), since the
   run flags profile the trace they just recorded. *)
let emit_profile
    ?(on_error = fun e -> Format.eprintf "profile: %s@." e; exit 1) ?out doc =
  match Obs.Critical_path.of_json doc with
  | Error e -> on_error e
  | Ok p ->
      Format.printf "%a" Obs.Critical_path.pp p;
      Format.printf "%a" (fun ppf -> Obs.Whatif.pp ppf) p;
      (match out with
      | Some file ->
          let merged =
            match (Obs.Critical_path.report p, Obs.Whatif.report p) with
            | Obs.Jsonw.Obj a, Obs.Jsonw.Obj b ->
                Obs.Jsonw.Obj
                  (a
                  @ List.filter (fun (k, _) -> k <> "baseline_cycles") b)
            | a, _ -> a
          in
          write_file file (Obs.Jsonw.to_string merged);
          Format.printf "profile json -> %s@." file
      | None -> ())

let emit_obs ?extra device obs st =
  let trace = Ascend.Device.trace device in
  (match (obs.trace_file, trace) with
  | Some file, Some tr ->
      (match Ascend.Trace.check tr with
      | Ok () -> ()
      | Error e ->
          (* A consistency failure is a simulator bug, not a user error:
             still write the file (it is the evidence), but say so. *)
          Format.eprintf "trace: internal consistency check FAILED: %s@." e);
      write_file file (Obs.Chrome_trace.to_string tr);
      Format.printf "trace: %d events -> %s@."
        (Ascend.Trace.event_count tr)
        file
  | _ -> ());
  (match (obs.profile_file, trace) with
  | Some out, Some tr -> emit_profile ~out (Obs.Chrome_trace.json tr)
  | _ -> ());
  (match obs.stats_json_file with
  | Some file ->
      write_file file (Obs.Stats_json.to_string st);
      Format.printf "stats json -> %s@." file
  | None -> ());
  if obs.metrics then begin
    let m = Obs.Metrics.create () in
    Obs.Metrics.observe_stats m st;
    Option.iter (Obs.Metrics.observe_trace m) trace;
    (* Critical-path gauges (per-phase overlap ratio, makespan blame)
       ride along whenever a recording exists — --metrics arms one. *)
    Option.iter
      (fun tr ->
        match Obs.Critical_path.of_json (Obs.Chrome_trace.json tr) with
        | Ok p -> Obs.Metrics.observe_profile m p
        | Error e -> Format.eprintf "metrics: profile skipped: %s@." e)
      trace;
    (* Subcommand-specific series (resilient reports, controller
       decisions) ride on the same registry and exposition. *)
    (match extra with Some f -> f m | None -> ());
    Format.printf "%a" Obs.Metrics.pp_prometheus m
  end

(* Common options. *)

let n_arg =
  Arg.(value & opt int 65536 & info [ "n"; "length" ] ~docv:"N" ~doc:"Input length.")

let s_arg =
  Arg.(
    value
    & opt int 128
    & info [ "s"; "tile" ] ~docv:"S" ~doc:"Matrix tile size (16..128).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let cost_only_arg =
  Arg.(
    value & flag
    & info [ "cost-only" ]
        ~doc:"Skip functional computation; model timing only (allows huge N).")

let faults_conv =
  let parse s =
    match Ascend.Fault.parse_spec s with
    | Ok v -> Ok v
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"SEED:RATE"
    (parse, fun fmt (seed, rate) -> Format.fprintf fmt "%d:%g" seed rate)

let faults_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "inject-faults" ] ~docv:"SEED:RATE"
        ~doc:
          "Arm the deterministic fault injector: each MTE transfer faults \
           with probability RATE, drawn from a splitmix64 stream seeded with \
           SEED.")

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Arm the hardware sanitizer: record out-of-bounds tensor accesses \
           and cross-block global-memory hazards, and print the report.")

let kill_conv =
  let parse s =
    match Ascend.Health.parse_kill_spec s with
    | Ok v -> Ok v
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"CORE[@CYCLE]"
    (parse, fun fmt (core, cycle) -> Format.fprintf fmt "%d@%g" core cycle)

let kill_arg =
  Arg.(
    value
    & opt_all kill_conv []
    & info [ "kill-core" ] ~docv:"CORE[@CYCLE]"
        ~doc:
          "Kill AI core CORE once it has executed CYCLE busy cycles (0, the \
           default, kills it before the first launch). Repeatable. The \
           scheduler re-shards all kernels over the surviving cores; results \
           stay bit-identical.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"CYCLES"
        ~doc:
          "Arm the launch watchdog: abort any launch whose compute critical \
           path exceeds CYCLES cycles (exit 1 with a structured error \
           instead of silently inflated stats).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Dispatch the independent blocks of each launch phase across N \
           host domains (OCaml 5 runtime threads). Outputs and simulated \
           statistics are bit-identical to the sequential schedule; only \
           host wall-clock time changes. Defaults to \
           $(b,ASCEND_SIM_DOMAINS), or 1.")

let quarantine_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "quarantine" ] ~docv:"N"
        ~doc:
          "Permanently quarantine a core after N injected faults land on it \
           (persistent-health scoring on top of --inject-faults).")

(* run subcommand: any registry entry, one set of flags. Inputs and
   parameters come from [Op_driver], overlaid with the per-op flags the
   entry declares; any other per-op flag is a usage error. *)

let op_conv =
  Arg.conv ~docv:"OP"
    ( (fun s ->
        match Scan.Op_registry.find s with
        | Some e -> Ok e
        | None -> Error (`Msg ("unknown operator: " ^ s))),
      fun fmt (e : Scan.Op_registry.entry) ->
        Format.pp_print_string fmt e.Scan.Op_registry.name )

(* Per-op parameter flags, named after [Op_registry.param_name]. Each
   yields the config update it makes when given. *)
let params_term =
  let module R = Scan.Op_registry in
  let opt c p ~docv ~doc =
    Arg.(value & opt (some c) None & info [ R.param_name p ] ~docv ~doc)
  in
  let set p f = Option.map (fun v -> (p, fun cfg -> f cfg v)) in
  Term.(
    const (fun s exclusive bits k p theta devices batch ->
        List.filter_map Fun.id
          [
            set R.S (fun c v -> { c with R.s = Some v }) s;
            (if exclusive then
               Some (R.Exclusive, fun c -> { c with R.exclusive = true })
             else None);
            set R.Bits (fun c v -> { c with R.bits = Some v }) bits;
            set R.K (fun c v -> { c with R.k = Some v }) k;
            set R.P (fun c v -> { c with R.p = Some v }) p;
            set R.Theta (fun c v -> { c with R.theta = Some v }) theta;
            set R.Devices (fun c v -> { c with R.devices = Some v }) devices;
            set R.Batch (fun c v -> { c with R.batch = Some v }) batch;
          ])
    $ opt Arg.int R.S ~docv:"S" ~doc:"Matrix tile size (16..128)."
    $ Arg.(
        value & flag
        & info [ R.param_name R.Exclusive ] ~doc:"Exclusive scan.")
    $ opt Arg.int R.Bits ~docv:"BITS" ~doc:"Radix key width, in [1, 16]."
    $ opt Arg.int R.K ~docv:"K" ~doc:"Number of largest values selected."
    $ opt Arg.float R.P ~docv:"P" ~doc:"Nucleus mass, in (0, 1]."
    $ opt Arg.float R.Theta ~docv:"T" ~doc:"Uniform draw, in [0, 1)."
    $ opt Arg.int R.Devices ~docv:"D"
        ~doc:"Pod size: the shards of a pod-backed entry run on D devices."
    $ opt Arg.int R.Batch ~docv:"B"
        ~doc:"Independent rows of a batched entry; each row is N / B long.")

let run_cmd =
  let module R = Scan.Op_registry in
  let op_arg =
    Arg.(
      value
      & opt op_conv (Option.get (R.find "mcscan"))
      & info [ "op" ] ~docv:"OP"
          ~doc:"Registry entry to run, by name or alias (see $(b,--list-ops)).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Validate a unary scan against the reference oracle.")
  in
  let resilient_arg =
    Arg.(
      value & flag
      & info [ "resilient" ]
          ~doc:
            "Run a unary scan through the self-checking resilient launcher \
             (checksum oracle, retries, vector-only fallback), or a batched \
             scan through the checkpointed row-group runner under the fixed \
             retry policy. Requires functional mode.")
  in
  let granularity_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "granularity" ] ~docv:"ROWS"
          ~doc:
            "Rows per checkpoint group of $(b,--resilient) batched runs \
             (default: quarter batches).")
  in
  let run (entry : R.entry) n seed params check resilient granularity
      cost_only faults kills quarantine deadline sanitize domains obs =
    check_n n;
    let usage fmt = Printf.ksprintf (fun m -> raise (Usage_error m)) fmt in
    let flag p =
      let name = R.param_name p in
      (if String.length name = 1 then "-" else "--") ^ name
    in
    List.iter
      (fun (p, _) ->
        if not (List.mem p entry.R.params) then
          usage "%s takes no %s (its parameters: %s)" entry.R.name (flag p)
            (match entry.R.params with
            | [] -> "none"
            | ps -> String.concat ", " (List.map flag ps)))
      params;
    let cfg =
      List.fold_left
        (fun cfg (_, set) -> set cfg)
        (Workload.Op_driver.config_for entry ~n ~s:None)
        params
    in
    let cfg =
      match cfg.R.batch with
      | Some b when b < 1 -> usage "--batch must be >= 1"
      | Some b when entry.R.caps.R.batched -> { cfg with R.len = Some (n / b) }
      | _ -> cfg
    in
    let unary = Scan.Scan_api.algo_of_string entry.R.name <> None in
    if check && not unary then
      usage "--check: %s has no reference oracle (unary scans only)" entry.R.name;
    if resilient && not (unary || entry.R.caps.R.batched) then
      usage "--resilient: %s is not a unary or batched scan" entry.R.name;
    if resilient && cost_only then
      usage "--resilient requires functional mode (drop --cost-only)";
    (match granularity with
    | Some g when g < 1 -> usage "--granularity must be >= 1"
    | Some _ when not (resilient && entry.R.caps.R.batched) ->
        usage "--granularity applies to --resilient batched runs only"
    | _ -> ());
    let device =
      make_device ?faults ~kills ?quarantine ?deadline ~sanitize ?domains
        cost_only
    in
    arm_obs device obs;
    let dtype = Workload.Op_driver.dtype entry in
    let data () = Workload.Op_driver.data ~seed entry ~n in
    if resilient && unary then begin
      let oracle =
        if check then Runtime.Resilient.Reference else Runtime.Resilient.Checksum
      in
      (* The vector-only kernel is a valid degradation target only for
         entries computing the same (sum) monoid. *)
      let fallback =
        if is_sum_monoid entry then Some (Scan.Scan_api.get "vec_only") else None
      in
      let r =
        Runtime.Resilient.scan ?s:cfg.R.s ~exclusive:cfg.R.exclusive ~oracle
          ?fallback ~algo:entry device ~input:(data ())
      in
      Format.printf "%a@."
        (Runtime.Resilient.pp_report (fun fmt y ->
             Format.fprintf fmt "y[n-1] = %g"
               (Ascend.Global_tensor.get y (n - 1))))
        r;
      print_stats r.Runtime.Resilient.stats;
      print_robustness device;
      emit_obs device obs r.Runtime.Resilient.stats
        ~extra:(fun m -> Obs.Metrics.observe_report m r);
      if not r.Runtime.Resilient.ok then exit 1
    end
    else if resilient then begin
      let schedule =
        match entry.R.name with
        | "batched_ul1" -> Runtime.Resilient.Ul1
        | _ -> Runtime.Resilient.U
      in
      let r =
        Runtime.Resilient.batched_scan ?s:cfg.R.s ?granularity
          ~ctl:
            Runtime.Degrade_ctl.(create ~config:(fixed ~backoff_s:1e-6 ()) ())
          ~schedule device ~batch:(Option.get cfg.R.batch)
          ~len:(Option.get cfg.R.len) ~input:(data ())
      in
      Format.printf "%a@." Runtime.Resilient.pp_batched_report r;
      print_stats r.Runtime.Resilient.bstats;
      print_robustness device;
      emit_obs device obs r.Runtime.Resilient.bstats
        ~extra:(fun m -> Obs.Metrics.observe_batched_report m r);
      if not r.Runtime.Resilient.bok then exit 1
    end
    else begin
      let input = Workload.Op_driver.input ~seed entry device ~n in
      let out, st =
        match R.run entry cfg device input with
        | Ok r -> r
        | Error e -> (
            (* Parameter and capability errors are raised before the
               first launch; an error once injected faults have landed
               is a kernel aborting on corrupted data. *)
            match Ascend.Device.fault device with
            | Some f when Ascend.Fault.count f > 0 -> failwith e
            | _ -> raise (Usage_error e))
      in
      print_stats st;
      if entry.R.kind = `Scan then
        Format.printf "effective scan bandwidth: %.1f GB/s@."
          (Workload.Metrics.scan_bandwidth st ~n
             ~esize:(Ascend.Dtype.size_bytes dtype)
          /. 1e9);
      if not cost_only then
        List.iter (fun (k, v) -> Format.printf "%s: %g@." k v) out.R.aux;
      print_robustness device;
      emit_obs device obs st;
      if check && not cost_only then
        match
          Scan.Scan_api.check_scan
            ~round:(Ascend.Dtype.round dtype) ~exclusive:cfg.R.exclusive
            ~algo:entry ~dtype ~input:(data ())
            ~output:(Option.get out.R.y) ()
        with
        | Ok () -> Format.printf "check: ok@."
        | Error e ->
            Format.printf "check: FAILED (%s)@." e;
            exit 1
    end
  in
  let term =
    Term.(
      const run $ op_arg $ n_arg $ seed_arg $ params_term $ check_arg
      $ resilient_arg $ granularity_arg $ cost_only_arg $ faults_arg
      $ kill_arg $ quarantine_arg $ deadline_arg $ sanitize_arg $ domains_arg
      $ obs_term)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run any registered operator (see $(b,--list-ops)) on the \
          synthetic workload, with the device, fault and observability \
          flags every operator shares plus the parameters it declares.")
    term

(* Argument checks of the chaos and pod run/resume commands. *)
let check_geometry ~batch ~len ?devices granularity =
  if batch < 1 then raise (Usage_error "--batch must be >= 1");
  if len < 1 then raise (Usage_error "--len must be >= 1");
  (match devices with
  | Some d when d < 1 ->
      raise
        (Usage_error
           (Printf.sprintf "--devices: device count must be >= 1 (got %d)" d))
  | _ -> ());
  match granularity with
  | Some g when g < 1 -> raise (Usage_error "--granularity must be >= 1")
  | _ -> ()

let load_scenario file =
  match Runtime.Chaos.load file with
  | Ok sc -> sc
  | Error msg -> raise (Usage_error msg)

(* The run/resume storyline shared by the chaos and pod groups: open a
   fresh store or reopen one (refusing a store whose meta pins a
   different run), arm the degradation controller and the crash
   handler, run, then print the report. [group] names the subcommand
   group in usage errors, [narrator] prefixes the chaos narrative
   lines. The caller prints its extra state through [after_ctl] (after
   the controller log) and [after_store] (after the store line);
   [profile] replaces the device trace as the critical-path profile
   source. *)
let checkpointed_run ~group ~narrator ~resume ~store_path ~meta ~batch ~len
    ~seed ~crash_mode ~obs ?(after_ctl = ignore) ?(after_store = ignore)
    ?profile ~device sc run =
  let store =
    match (store_path, resume) with
    | None, true ->
        raise (Usage_error (group ^ " resume requires --store FILE"))
    | None, false -> None
    | Some path, false ->
        Some (Runtime.Checkpoint_store.create ~path ~rows:batch ~len ~meta ())
    | Some path, true -> (
        match Runtime.Checkpoint_store.reopen ~path with
        | Error e -> raise (Usage_error ("--store: " ^ e))
        | Ok (st, l) ->
            if Runtime.Checkpoint_store.meta st <> meta then
              raise
                (Usage_error
                   (Printf.sprintf
                      "--store: meta mismatch: store was written by %S, this \
                       invocation is %S"
                      (Runtime.Checkpoint_store.meta st)
                      meta));
            Format.printf "%a@." Runtime.Checkpoint_store.pp_loaded l;
            Some st)
  in
  let ctl =
    Runtime.Degrade_ctl.create
      ~on_decision:(fun d ->
        match Ascend.Device.trace device with
        | Some tr ->
            Ascend.Trace.note tr Ascend.Trace.Degrade
              ~name:(Format.asprintf "%a" Runtime.Degrade_ctl.pp_decision d)
        | None -> ())
      ()
  in
  let on_crash msg =
    match crash_mode with
    | `Raise -> raise (Runtime.Chaos.Host_crash msg)
    | `Sigkill ->
        (* The committed store is the only thing meant to survive;
           flush the narrative first so the harness log is honest. *)
        Format.printf "%s: %s -- dying with SIGKILL@." narrator msg;
        Format.pp_print_flush Format.std_formatter ();
        flush stdout;
        flush stderr;
        Unix.kill (Unix.getpid ()) Sys.sigkill
  in
  let chaos =
    Option.map (Runtime.Chaos.arm ~skip_crashes:resume ~on_crash) sc
  in
  let r =
    run ~ctl ?chaos ?store (Workload.Generators.sparse_ones ~seed (batch * len))
  in
  Format.printf "%a@." Runtime.Resilient.pp_batched_report r;
  Option.iter
    (fun ch ->
      match Runtime.Chaos.fired ch with
      | [] -> Format.printf "%s: no events fired@." narrator
      | evs ->
          List.iter
            (fun (i, d) -> Format.printf "%s launch %d: %s@." narrator i d)
            evs)
    chaos;
  Format.printf "%a@." Runtime.Degrade_ctl.pp ctl;
  after_ctl ();
  Option.iter
    (fun st ->
      Format.printf "store: %d commits durable at %s@."
        (Runtime.Checkpoint_store.commits st)
        (Runtime.Checkpoint_store.path st))
    store;
  after_store ();
  print_stats r.Runtime.Resilient.bstats;
  print_robustness device;
  let obs =
    match (profile, obs.profile_file) with
    | Some doc, Some out ->
        emit_profile ~out (doc ());
        { obs with profile_file = None }
    | _ -> obs
  in
  emit_obs device obs r.Runtime.Resilient.bstats ~extra:(fun m ->
      Obs.Metrics.observe_batched_report m r;
      Obs.Metrics.observe_ctl m ctl);
  if not r.Runtime.Resilient.bok then exit 1

(* chaos subcommand group: scenario-driven failure storylines over the
   checkpointed batched runner, with crash-consistent resume.

   chaos run    --scenario FILE [--store FILE]   fresh run; a [crash]
                event self-SIGKILLs (default) so the store is the only
                survivor — exactly the failure being rehearsed.
   chaos resume --scenario FILE --store FILE     continue a killed run
                from the store (crash events are skipped: one
                storyline, one host crash).
   chaos report --scenario FILE [--store FILE]   validate and print a
                scenario, and the durable state of a store. *)

let chaos_cmd =
  let scenario_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "scenario" ] ~docv:"FILE"
          ~doc:
            "Chaos scenario file (see $(b,chaos report) and DESIGN.md §4e \
             for the DSL). Malformed files exit 2.")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "Crash-consistent checkpoint store path: validated row groups \
             are durably committed there, and $(b,chaos resume) continues \
             from them.")
  in
  let batch_arg =
    Arg.(
      value & opt int 32
      & info [ "batch"; "b" ] ~docv:"B" ~doc:"Number of independent rows.")
  in
  let len_arg =
    Arg.(
      value & opt int 4096
      & info [ "len"; "l" ] ~docv:"L" ~doc:"Length of each row.")
  in
  let granularity_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "granularity" ] ~docv:"ROWS"
          ~doc:
            "Base rows per checkpoint group (default: quarter batches); the \
             degradation controller shrinks it under brownout.")
  in
  let crash_mode_arg =
    Arg.(
      value
      & opt (enum [ ("sigkill", `Sigkill); ("raise", `Raise) ]) `Sigkill
      & info [ "crash-mode" ] ~docv:"MODE"
          ~doc:
            "What a $(b,crash) event does: $(b,sigkill) (default) kills this \
             process with SIGKILL — the e2e harness's real mid-batch death — \
             while $(b,raise) aborts with a clean error (exit 1) for \
             in-process testing.")
  in
  (* The store's meta pins everything that shapes the bytes being
     resumed: scenario identity plus run geometry. A resume with a
     different scenario, size or workload would silently splice
     incompatible rows together — refuse it up front. *)
  let meta_of sc ~batch ~len ~s ~seed =
    Printf.sprintf "%s|seed=%d|batch=%d|len=%d|s=%d|wseed=%d"
      sc.Runtime.Chaos.sc_name sc.Runtime.Chaos.sc_seed batch len s seed
  in
  let run_or_resume ~resume scenario_file store_path batch len s granularity
      crash_mode seed obs =
    check_geometry ~batch ~len granularity;
    let sc = load_scenario scenario_file in
    let device =
      Ascend.Device.create ~mode:Ascend.Device.Functional
        ~fault:(Runtime.Chaos.fault_config sc) ()
    in
    arm_obs device obs;
    checkpointed_run ~group:"chaos" ~narrator:"chaos" ~resume ~store_path
      ~meta:(meta_of sc ~batch ~len ~s ~seed)
      ~batch ~len ~seed ~crash_mode ~obs ~device (Some sc)
      (fun ~ctl ?chaos ?store input ->
        Runtime.Resilient.batched_scan ~s ?granularity ?store ~ctl ?chaos
          device ~batch ~len ~input)
  in
  let run_term ~resume =
    Term.(
      const (run_or_resume ~resume)
      $ scenario_arg $ store_arg $ batch_arg $ len_arg $ s_arg
      $ granularity_arg $ crash_mode_arg $ seed_arg $ obs_term)
  in
  let run_cmd =
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run a checkpointed batched scan under a chaos scenario: the \
            scenario's kills, storms and stalls fire deterministically at \
            group-launch boundaries, the adaptive degradation controller \
            absorbs them, and a $(b,crash) event kills the process \
            mid-batch (resume with $(b,chaos resume)).")
      (run_term ~resume:false)
  in
  let resume_cmd =
    Cmd.v
      (Cmd.info "resume"
         ~doc:
           "Resume a chaos run killed mid-batch: restore every durably \
            committed row group from $(b,--store) (never re-executing \
            them), then finish the remaining rows. The final output is \
            bit-identical to an uninterrupted run.")
      (run_term ~resume:true)
  in
  let report_cmd =
    let run scenario_file store_path =
      let sc = load_scenario scenario_file in
      Format.printf "%a@." Runtime.Chaos.pp_scenario sc;
      match store_path with
      | None -> ()
      | Some path -> (
          match Runtime.Checkpoint_store.load ~path with
          | Ok l -> Format.printf "%a@." Runtime.Checkpoint_store.pp_loaded l
          | Error e ->
              Format.eprintf "chaos report: %s@." e;
              exit 1)
    in
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Validate and pretty-print a chaos scenario (malformed files \
            exit 2), and the durable contents of a checkpoint store when \
            $(b,--store) is given.")
      Term.(const run $ scenario_arg $ store_arg)
  in
  Cmd.group
    (Cmd.info "chaos"
       ~doc:
         "Deterministic chaos engineering: scripted failure storylines, \
          crash-consistent checkpointing and adaptive degradation.")
    [ run_cmd; resume_cmd; report_cmd ]

(* pod subcommand group: the distributed runner under chaos, with the
   same run/resume/report shape as [chaos] but a multi-device pod
   behind the launches. The store's meta additionally pins the pod
   geometry (devices, topology): resuming a 4-device run on a 2-device
   pod would re-shard the remaining rows differently than the bytes
   already committed claim, so it is refused up front. *)

let pod_cmd =
  let scenario_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"FILE"
          ~doc:
            "Chaos scenario file; pod scenarios may add $(b,kill device=D) \
             and $(b,link src=A dst=B for=N) events. Malformed files exit 2.")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "Crash-consistent checkpoint store path; $(b,pod resume) \
             continues from it and refuses a store whose pinned pod \
             geometry differs.")
  in
  let batch_arg =
    Arg.(
      value & opt int 32
      & info [ "batch"; "b" ] ~docv:"B" ~doc:"Number of independent rows.")
  in
  let len_arg =
    Arg.(
      value & opt int 4096
      & info [ "len"; "l" ] ~docv:"L" ~doc:"Length of each row.")
  in
  let granularity_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "granularity" ] ~docv:"ROWS"
          ~doc:"Base rows per checkpoint group (default: quarter batches).")
  in
  let devices_arg =
    Arg.(
      value & opt int 4
      & info [ "devices" ] ~docv:"D" ~doc:"Pod size (simulated NPUs).")
  in
  let topology_arg =
    Arg.(
      value
      & opt (enum [ ("ring", Pod.Ring); ("full", Pod.Fully_connected) ]) Pod.Ring
      & info [ "topology" ] ~docv:"TOPO"
          ~doc:"Pod topology: $(b,ring) or $(b,full) (fully connected).")
  in
  let schedule_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("ring", Scan.Dist_scan.Ring);
                  ("allgather", Scan.Dist_scan.All_gather);
                ]))
          None
      & info [ "schedule" ] ~docv:"SCHED"
          ~doc:
            "Prefix-exchange schedule: $(b,ring) or $(b,allgather) \
             (default: the topology's native schedule).")
  in
  let pod_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pod-trace" ] ~docv:"FILE"
          ~doc:
            "Write the pod-level Chrome trace (one Perfetto process per \
             device, link-transfer spans, phase timeline).")
  in
  let crash_mode_arg =
    Arg.(
      value
      & opt (enum [ ("sigkill", `Sigkill); ("raise", `Raise) ]) `Sigkill
      & info [ "crash-mode" ] ~docv:"MODE"
          ~doc:
            "What a $(b,crash) event does: $(b,sigkill) (default) or \
             $(b,raise) (clean exit 1).")
  in
  let meta_of sc ~batch ~len ~s ~seed ~devices ~topology =
    Printf.sprintf "pod|%s|seed=%d|batch=%d|len=%d|s=%d|wseed=%d|devices=%d|topology=%s"
      (match sc with
      | Some sc -> sc.Runtime.Chaos.sc_name
      | None -> "-")
      (match sc with Some sc -> sc.Runtime.Chaos.sc_seed | None -> 0)
      batch len s seed devices
      (Pod.topology_to_string topology)
  in
  let run_or_resume ~resume scenario_file store_path batch len s granularity
      devices topology schedule pod_trace crash_mode seed obs =
    check_geometry ~batch ~len ~devices granularity;
    let sc = Option.map load_scenario scenario_file in
    let primary =
      Ascend.Device.create ~mode:Ascend.Device.Functional
        ?fault:(Option.map Runtime.Chaos.fault_config sc)
        ()
    in
    arm_obs primary obs;
    let pod = Pod.create_with ~topology ~primary ~devices () in
    checkpointed_run ~group:"pod" ~narrator:"pod chaos" ~resume ~store_path
      ~meta:(meta_of sc ~batch ~len ~s ~seed ~devices ~topology)
      ~batch ~len ~seed ~crash_mode ~obs
      ~after_ctl:(fun () -> Format.printf "%a@." Pod.pp pod)
      ~after_store:(fun () ->
        Option.iter
          (fun file ->
            write_file file (Obs.Pod_trace.to_string pod);
            Format.printf "pod trace: %d events -> %s@."
              (List.length (Pod.events pod))
              file)
          pod_trace)
        (* Pod runs profile the pod-level trace: the critical path
           crosses link-transfer spans between devices, which the
           per-device trace cannot see. *)
      ~profile:(fun () -> Obs.Pod_trace.json pod)
      ~device:primary sc
      (fun ~ctl ?chaos ?store input ->
        Runtime.Pod_runner.batched_scan ~s ?granularity ?schedule ?store ~ctl
          ?chaos pod ~batch ~len ~input)
  in
  let run_term ~resume =
    Term.(
      const (run_or_resume ~resume)
      $ scenario_arg $ store_arg $ batch_arg $ len_arg $ s_arg
      $ granularity_arg $ devices_arg $ topology_arg $ schedule_arg
      $ pod_trace_arg $ crash_mode_arg $ seed_arg $ obs_term)
  in
  let run_cmd =
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run a checkpointed batched scan distributed across a simulated \
            multi-NPU pod, optionally under a chaos scenario with link \
            faults and whole-device kills. Device deaths re-shard the scan \
            over the survivors with bit-identical output.")
      (run_term ~resume:false)
  in
  let resume_cmd =
    Cmd.v
      (Cmd.info "resume"
         ~doc:
           "Resume a pod run killed mid-batch from its checkpoint store \
            (committed row groups are never re-executed); the store's \
            pinned pod geometry must match this invocation.")
      (run_term ~resume:true)
  in
  let report_cmd =
    let run scenario_file store_path =
      (match scenario_file with
      | Some file ->
          Format.printf "%a@." Runtime.Chaos.pp_scenario (load_scenario file)
      | None -> ());
      match store_path with
      | None -> ()
      | Some path -> (
          match Runtime.Checkpoint_store.load ~path with
          | Ok l -> Format.printf "%a@." Runtime.Checkpoint_store.pp_loaded l
          | Error e ->
              Format.eprintf "pod report: %s@." e;
              exit 1)
    in
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Validate and pretty-print a pod chaos scenario and/or the \
            durable contents of a checkpoint store.")
      Term.(const run $ scenario_arg $ store_arg)
  in
  Cmd.group
    (Cmd.info "pod"
       ~doc:
         "Distributed scans on a simulated multi-NPU pod: link/device \
          fault injection, failover re-sharding and crash-consistent \
          resume.")
    [ run_cmd; resume_cmd; report_cmd ]

(* trace subcommand group: offline inspection of recorded trace
   files. Both tools run from the JSON alone, so traces produced on
   another machine (or checked into CI artifacts) work too. *)

let trace_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Chrome trace-event JSON file (from --trace).")

let parse_trace_file file =
  let contents =
    try read_file file with Sys_error msg -> raise (Usage_error msg)
  in
  match Obs.Jsonw.parse contents with
  | Ok doc -> doc
  | Error e ->
      raise (Usage_error (Printf.sprintf "%s: invalid JSON: %s" file e))

let trace_cmd =
  let file_arg = trace_file_arg in
  let parse_file = parse_trace_file in
  let summary_cmd =
    let run file =
      match Obs.Trace_summary.of_json (parse_file file) with
      | Ok summaries -> Format.printf "%a" Obs.Trace_summary.pp summaries
      | Error e ->
          Format.eprintf "trace summary: %s@." e;
          exit 1
    in
    Cmd.v
      (Cmd.info "summary"
         ~doc:
           "Print per-phase engine occupancy and the bounding resource \
            (busiest engine, or HBM/L2 bandwidth) for each launch in a \
            recorded trace.")
      Term.(const run $ file_arg)
  in
  let validate_cmd =
    let run file =
      match Obs.Chrome_trace.validate (parse_file file) with
      | Ok c ->
          Format.printf
            "valid: %d events (%d spans, %d instants, %d flows) across %d \
             processes@."
            c.Obs.Chrome_trace.events c.Obs.Chrome_trace.spans
            c.Obs.Chrome_trace.instants c.Obs.Chrome_trace.flows
            c.Obs.Chrome_trace.processes
      | Error e ->
          Format.eprintf "trace validate: INVALID: %s@." e;
          exit 1
    in
    Cmd.v
      (Cmd.info "validate"
         ~doc:
           "Check a trace file against the Chrome trace-event schema \
            (required fields, non-negative durations, monotone tracks); \
            exit 1 when invalid.")
      Term.(const run $ file_arg)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Inspect recorded trace files.")
    [ summary_cmd; validate_cmd ]

(* profile subcommand: offline critical-path analysis of a recorded
   trace file (device or pod schema). *)

let profile_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) (Some "profile.json")
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Where to write the profile document (default \
             $(b,profile.json)); $(b,-o none) prints the report only.")
  in
  let run file out =
    let out = match out with Some "none" -> None | o -> o in
    (* A file is untrusted input: schema-check it first (a corrupted
       span can otherwise profile as an empty DAG) and treat any
       rejection as a usage error, exit 2. *)
    let bad e =
      raise
        (Usage_error (Printf.sprintf "%s: not a profilable trace: %s" file e))
    in
    let doc = parse_trace_file file in
    (match Obs.Chrome_trace.validate doc with Ok _ -> () | Error e -> bad e);
    emit_profile ~on_error:bad ?out doc
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Reconstruct the launch DAG from a recorded trace (flow events + \
          exact cycle endpoints), print critical-path blame, what-if \
          analysis and roofline utilization, and write the profile \
          document. Works on device traces ($(b,--trace)) and pod traces \
          ($(b,--pod-trace)).")
    Term.(const run $ trace_file_arg $ out_arg)

(* Every-registered-op tracing smoke check (rides next to --list-ops so
   "what ops exist" and "do they all trace cleanly" live in one place). *)

let trace_smoke () =
  let failures = ref 0 in
  let fail (e : Scan.Op_registry.entry) msg =
    incr failures;
    Format.printf "%-18s FAILED: %s@." e.Scan.Op_registry.name msg
  in
  List.iter
    (fun ((e : Scan.Op_registry.entry), result) ->
      match result with
      | Error msg -> fail e msg
      | Ok (_, None) -> fail e "no trace recorded"
      | Ok (_, Some tr) -> (
          match Ascend.Trace.check tr with
          | Error msg -> fail e msg
          | Ok () ->
              if Ascend.Trace.dropped tr > 0 then
                fail e
                  (Printf.sprintf "%d dropped events" (Ascend.Trace.dropped tr))
              else
                Format.printf "%-18s ok: %d events@." e.Scan.Op_registry.name
                  (Ascend.Trace.event_count tr)))
    (Workload.Op_driver.run_all ());
  if !failures > 0 then begin
    Format.printf "trace smoke: %d operator(s) FAILED@." !failures;
    exit 1
  end
  else Format.printf "trace smoke: all registered operators traced cleanly@."

(* info subcommand. *)

let info_cmd =
  let run () =
    Format.printf "%a@." Ascend.Cost_model.pp Ascend.Cost_model.default
  in
  Cmd.v (Cmd.info "info" ~doc:"Print the simulated device description.")
    Term.(const run $ const ())

let () =
  let doc = "Parallel scans and scan-based operators on a simulated Ascend accelerator." in
  (* Top-level --list-ops: print the operator table straight from the
     registry (the README embeds this output; CI diffs the two). *)
  let default =
    let list_ops_arg =
      Arg.(
        value & flag
        & info [ "list-ops" ]
            ~doc:
              "Print every registered operator (name, aliases, kind, dtypes, \
               capabilities, parameters) as a markdown table and exit.")
    in
    let trace_smoke_arg =
      Arg.(
        value & flag
        & info [ "trace-smoke" ]
            ~doc:
              "Run every registered operator once under tracing and check \
               that the recorder captured a consistent event stream (zero \
               dropped events, monotone per-engine tracks); exit 1 on any \
               violation.")
    in
    Term.(
      ret
        (const (fun list_ops smoke ->
             if list_ops then begin
               Format.printf "%a" Scan.Op_registry.pp_markdown_table ();
               `Ok ()
             end
             else if smoke then begin
               trace_smoke ();
               `Ok ()
             end
             else `Help (`Pager, None))
        $ list_ops_arg $ trace_smoke_arg))
  in
  let main = Cmd.group ~default (Cmd.info "ascend_scan_cli" ~doc) [ run_cmd; info_cmd; trace_cmd; profile_cmd; chaos_cmd; pod_cmd ] in
  (* Unknown flags and malformed arguments exit 2 with a usage pointer
     rather than cmdliner's 124; runtime kernel errors (e.g. a kernel
     aborted by injected fault corruption) exit 1 with a clean message
     instead of an uncaught exception backtrace. *)
  let code =
    try
      let c = Cmd.eval ~catch:false main in
      if c = Cmd.Exit.cli_error then 2 else c
    with
    | Usage_error msg ->
        Format.eprintf "ascend_scan_cli: error: %s@." msg;
        Format.eprintf "usage: ascend_scan_cli COMMAND [OPTION]... (see --help)@.";
        2
    | Ascend.Launch.Deadline_exceeded { name; budget_cycles; spent_cycles } ->
        Format.eprintf
          "ascend_scan_cli: deadline exceeded in %s: %.0f cycles spent of a \
           %.0f-cycle budget@."
          name spent_cycles budget_cycles;
        1
    | Ascend.Health.All_cores_dead ->
        Format.eprintf
          "ascend_scan_cli: all AI cores dead: no surviving core to schedule \
           on@.";
        1
    | Runtime.Chaos.Host_crash msg ->
        Format.eprintf "ascend_scan_cli: simulated host crash: %s@." msg;
        1
    | Invalid_argument msg | Failure msg ->
        Format.eprintf "ascend_scan_cli: runtime error: %s@." msg;
        1
  in
  exit code
