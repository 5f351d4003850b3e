(* The two-clock ledger: end-to-end and per-layer cost of four workloads
   on the simulator, on the simulated device clock and on the host
   wall-clock that simulating it takes.

     ledger.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
     ledger.exe --all [--seed N] [--seconds S]
     ledger.exe --smoke

   --trace 0 is the end-to-end pass and --trace 1 (or --layers) the
   layer pass; each prints one line per metric and, as its last line,
   one JSON object holding the metrics BENCHMARK.json lists for that
   pass. The full result, with the machine label, digests and (layer
   pass) the bench-side spans, is written to --out (default .ledger).
   --all runs both passes of every workload, each in its own child
   process. --smoke runs everything at 1/16 size for three rounds and
   asserts the ledger's invariants; it is the runtest rule. See
   README.md for the metrics and how to compare two commits. *)

open Ascend
module Reg = Scan.Op_registry
module W = Workloads
module J = Obs.Jsonw
module CP = Obs.Critical_path

let ( let* ) = Result.bind
let clock_hz = Cost_model.default.Cost_model.clock_hz
let ms = Spans.ms_of_ns
let cycles (s : Stats.t) = s.Stats.seconds *. clock_hz
let safe_div a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* One call: stage, exec, readback (and, when traced, the lib/obs       *)
(* pipeline). Every device runs on one domain: ASCEND_SIM_DOMAINS is    *)
(* deliberately overridden so the load is one thread.                   *)

let stage ~mode ~traced ~n (c : W.call) =
  let dev = Device.create ~mode ~domains:1 () in
  let trace = if traced then Some (Device.arm_trace dev) else None in
  let tensor name dt data =
    if mode = Device.Functional then Device.of_array dev dt ~name data
    else Device.alloc dev dt n ~name
  in
  let x = tensor "x" (W.dtype c) c.W.x in
  let input =
    if c.W.entry.Reg.caps.Reg.masked then
      Reg.Masked { x; mask = tensor "mask" Dtype.I8 c.W.mask }
    else Reg.Tensor x
  in
  (dev, trace, input)

let exec (c : W.call) ~n dev input = Reg.run c.W.entry (W.cfg_at c n) dev input

(* Any exception inside a call is that call's failure. *)
let guard f = try f () with e -> Error (Printexc.to_string e)

let readback (out : Reg.output) =
  let y =
    Option.bind out.Reg.y (fun t ->
        if Global_tensor.is_backed t then Some (Global_tensor.to_array t)
        else None)
  in
  { W.y; aux = out.Reg.aux }

type observed = {
  profile : CP.t;
  trace_spans : int;
  trace_edges : int;
  chrome_bytes : int;
  steps : (string * int64) list;  (** lib/obs call -> host ns. *)
}

(* Export, parse, validate and profile a trace: lib/obs in both
   directions. *)
let observe sp trace =
  let steps = ref [] in
  let step name f =
    let v, ns = Spans.timed sp name f in
    steps := (name, ns) :: !steps;
    v
  in
  let* () = step "trace.check" (fun () -> Trace.check trace) in
  let text = step "chrome_trace.export" (fun () -> Obs.Chrome_trace.to_string trace) in
  let* doc = step "jsonw.parse" (fun () -> J.parse text) in
  let* _counts = step "chrome_trace.validate" (fun () -> Obs.Chrome_trace.validate doc) in
  let* profile = step "critical_path.profile" (fun () -> CP.of_json doc) in
  ignore (step "critical_path.report" (fun () -> CP.report profile));
  Ok
    {
      profile;
      trace_spans = Trace.span_count trace;
      trace_edges = Trace.edge_count trace;
      chrome_bytes = String.length text;
      steps = List.rev !steps;
    }

type primary = {
  stage_ns : int64;
  exec_ns : int64;
  readback_ns : int64;
  stats : Stats.t;
  view : W.view;
  obs : observed option;
}

(* The timed call. The window is the returned ns; the oracle is not in
   it. *)
let run_primary sp (c : W.call) =
  Spans.timed sp "call" @@ fun () ->
  guard (fun () ->
      let (dev, trace, input), stage_ns =
        Spans.timed sp "device.stage" (fun () ->
            stage ~mode:c.W.mode ~traced:c.W.traced ~n:c.W.n c)
      in
      let res, exec_ns =
        Spans.timed sp "op_registry.exec" (fun () -> exec c ~n:c.W.n dev input)
      in
      let* out, stats = res in
      let view, readback_ns =
        Spans.timed sp "global_tensor.readback" (fun () -> readback out)
      in
      let* obs =
        match trace with
        | None -> Ok None
        | Some tr -> Result.map Option.some (observe sp tr)
      in
      Ok { stage_ns; exec_ns; readback_ns; stats; view; obs })

(* ------------------------------------------------------------------ *)
(* Set-up and checking                                                  *)

type state = {
  w : W.t;
  calls : W.call array;
  cycles : float array;  (** Simulated cycles of each call, from the warm-up. *)
  elements : int;  (** Input elements per round. *)
  mutable attempted : int;
  mutable failures : string list;
  mutable output_digest : string;
}

let fail st msg = st.failures <- msg :: st.failures
let close_to a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)
let blame_sum (p : CP.t) = List.fold_left (fun a (_, c) -> a +. c) 0.0 p.CP.blame

(* The profiler's blame must cover its critical path exactly, and the
   critical path must equal the simulated time the stats report.
   dist_scan is exempt from the second rule: its stats add the link
   exchange between devices, which no device trace records. *)
let check_profile (c : W.call) ~stats o =
  let total = o.profile.CP.total_cycles in
  if not (close_to (blame_sum o.profile) total) then
    Error (Printf.sprintf "blame sums to %.17g, critical path is %.17g" (blame_sum o.profile) total)
  else if c.W.entry.Reg.name <> "dist_scan" && not (close_to total (cycles stats)) then
    Error (Printf.sprintf "critical path %.17g cycles, stats %.17g" total (cycles stats))
  else Ok ()

(* Check a call's outcome after its timer stopped. [expect] is the
   call's index when its simulated cycles must repeat the warm-up's. *)
let verify st ?expect (c : W.call) r =
  st.attempted <- st.attempted + 1;
  let outcome =
    let* p = r in
    let* () = guard (fun () -> c.W.check p.view) in
    let* () =
      match p.obs with None -> Ok () | Some o -> check_profile c ~stats:p.stats o
    in
    match expect with
    | Some i when cycles p.stats <> st.cycles.(i) ->
        Error
          (Printf.sprintf "simulated cycles %.17g, warm-up had %.17g"
             (cycles p.stats) st.cycles.(i))
    | _ -> Ok p
  in
  match outcome with
  | Ok p -> Some p
  | Error e ->
      fail st (c.W.entry.Reg.name ^ ": " ^ e);
      None

let setup ~name ~seed ~div =
  Ops.Ops_registry.install ();
  let w = Option.get (W.make name ~seed ~div) in
  let calls = Array.of_list w.W.calls in
  let st =
    {
      w;
      calls;
      cycles = Array.make (Array.length calls) 0.0;
      elements = Array.fold_left (fun a c -> a + c.W.n) 0 calls;
      attempted = 0;
      failures = [];
      output_digest = "";
    }
  in
  List.iter (fun c -> ignore (verify st c (fst (run_primary None c)))) w.W.prechecks;
  (* The untimed warm-up round fixes each call's simulated cycles and
     the output digest. *)
  let views =
    Array.mapi
      (fun i c ->
        match verify st c (fst (run_primary None c)) with
        | Some p ->
            st.cycles.(i) <- cycles p.stats;
            Some p.view
        | None -> None)
      calls
  in
  st.output_digest <- W.digest (views, st.cycles);
  st

(* ------------------------------------------------------------------ *)
(* End-to-end rounds                                                    *)

(* A fixed walk through a random cycle over 4 MB, timed beside every
   round, so machine drift shows in the results. It is bound by memory
   latency because that is what slows on a shared host: in slow periods
   rounds grew 20-55% while a pure arithmetic loop grew 6%, and this
   walk grew about half as much as the rounds. *)
let chase =
  lazy
    (let n = 1 lsl 20 in
     (* Off the OCaml heap, so the probe does not grow the heap that
        peak_rss_mb and the GC metrics measure. *)
     let next = Bigarray.(Array1.create int32 c_layout n) in
     for i = 0 to n - 1 do
       next.{i} <- Int32.of_int i
     done;
     (* Sattolo's shuffle: one cycle through all n slots. *)
     let rng = Random.State.make [| 1 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int rng i in
       let t = next.{i} in
       next.{i} <- next.{j};
       next.{j} <- t
     done;
     next)

let calib_ms () =
  let next = Lazy.force chase in
  let walk () =
    let p = ref 0 in
    for _ = 1 to 50_000 do
      p := Int32.to_int next.{!p}
    done;
    ignore (Sys.opaque_identity !p)
  in
  ms (snd (Spans.timed None "calib" walk))

type sample = {
  round_ms : float;  (** Sum of the call windows. *)
  calib : float;
  minor_mwords : float;
  majors : float;
}

let e2e_round st _ =
  let calib = calib_ms () in
  let g0 = Gc.quick_stat () in
  let total = ref 0L in
  Array.iteri
    (fun i c ->
      let r, ns = run_primary None c in
      total := Int64.add !total ns;
      ignore (verify st ~expect:i c r))
    st.calls;
  let g1 = Gc.quick_stat () in
  {
    round_ms = ms !total;
    calib;
    minor_mwords = (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6;
    majors = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
  }

(* [f] round after round until [seconds] have passed, at least
   [min_rounds] and at most [max_rounds] times. *)
let rounds ~seconds ~min_rounds ~max_rounds f =
  let deadline = Int64.add (Spans.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let rec go k acc =
    if k >= max_rounds || (k >= min_rounds && Spans.now_ns () >= deadline) then
      List.rev acc
    else go (k + 1) (f k :: acc)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Layer rounds: the primary call inside spans, plus twins that split   *)
(* its exec time.                                                       *)

type layer = {
  call : W.call;
  p : primary;
  call_ns : int64;
  charge_ns : int64;  (** Exec of a Cost_only twin. *)
  off_ns : int64;  (** Untraced twin at the traced size. *)
  on_ns : int64;  (** Traced twin. *)
  seen : observed;  (** The primary's own trace, else the traced twin's. *)
}

let twin sp (c : W.call) ~mode ~traced ~n name =
  guard (fun () ->
      let (dev, trace, input), _ =
        Spans.timed sp "twin.stage" (fun () -> stage ~mode ~traced ~n c)
      in
      let r, ns = Spans.timed sp name (fun () -> exec c ~n dev input) in
      Result.map (fun (_, stats) -> (ns, stats, trace)) r)
  |> Result.map_error (fun e -> name ^ " twin: " ^ e)

(* The primary call, then its twins; the first twin that fails is the
   call's one failure. *)
let layer_call st sp i (c : W.call) =
  let r, call_ns = run_primary sp c in
  let* p = Option.to_result ~none:() (verify st ~expect:i c r) in
  let n = c.W.n / c.W.trace_div in
  let twins =
    let* charge_ns, _, _ =
      twin sp c ~mode:Device.Cost_only ~traced:false ~n:c.W.n "block.charge"
    in
    let* off_ns, _, _ = twin sp c ~mode:c.W.mode ~traced:false ~n "trace.off" in
    let* on_ns, on_stats, on_trace = twin sp c ~mode:c.W.mode ~traced:true ~n "trace.on" in
    let* seen =
      match p.obs with
      | Some o -> Ok o
      | None ->
          Result.map_error
            (fun e -> "traced twin: " ^ e)
            (let* o = guard (fun () -> observe sp (Option.get on_trace)) in
             let* () = check_profile c ~stats:on_stats o in
             Ok o)
    in
    Ok { call = c; p; call_ns; charge_ns; off_ns; on_ns; seen }
  in
  Result.map_error (fun e -> fail st (c.W.entry.Reg.name ^ " " ^ e)) twins

let layer_round st sp k =
  Spans.set_round sp k;
  let calib = calib_ms () in
  let recs =
    Spans.timed (Some sp) "round" (fun () ->
        List.filter_map Result.to_option
          (Array.to_list (Array.mapi (layer_call st (Some sp)) st.calls)))
    |> fst
  in
  (calib, recs)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

type metric = { name : string; value : float; unit_ : string; exact : bool }

let host name unit_ value = { name; value; unit_; exact = false }
let exact name unit_ value = { name; value; unit_; exact = true }
let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l

let read_status key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let prefix = key ^ ":" in
          let rec go () =
            match input_line ic with
            | exception End_of_file -> None
            | l when String.starts_with ~prefix l ->
                let n = String.length prefix in
                Some (String.trim (String.sub l n (String.length l - n)))
            | _ -> go ()
          in
          go ())

let peak_rss_mb () =
  match read_status "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith "ledger: no VmHWM in /proc/self/status"

(* CPUs this process may run on, from its affinity list ("0-1,4"). *)
let nproc () =
  match read_status "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some l ->
      List.fold_left
        (fun acc r ->
          match String.split_on_char '-' r with
          | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
          | _ -> acc + 1)
        0
        (String.split_on_char ',' l)

(* Round-time quantiles and the sample count. On a shared host other
   tenants' bursts only ever add time to a round, so the fast tail (p10)
   is where the program's own cost shows: over 60-round windows its
   spread was 7%, against 22% for the median. Throughput is taken over
   the whole window, so every burst counts against it. *)
let round_metrics_of st samples =
  let rounds = List.map (fun s -> s.round_ms) samples in
  let elements = float_of_int (st.elements * List.length rounds) in
  [
    host "round_ms.p10" "ms" (Stat.percentile 10.0 rounds);
    host "round_ms.p50" "ms" (Stat.median rounds);
    host "round_ms.p90" "ms" (Stat.percentile 90.0 rounds);
    host "rounds" "count" (float_of_int (List.length rounds));
    host "sim_melem_per_host_s" "Melem/s" (elements /. (sum Fun.id rounds /. 1e3) /. 1e6);
  ]

let e2e_metrics st ~setup_s ~peak_rss_mb ~fidelity samples =
  round_metrics_of st samples
  @ [
    host "setup_s" "s" setup_s;
    host "peak_rss_mb" "MB" peak_rss_mb;
    exact "sim_cycles_per_round" "cycles" (Array.fold_left ( +. ) 0.0 st.cycles);
    exact "fidelity_max_err_pct" "%" (Fidelity.max_err_pct fidelity);
    exact "failed_ratio" "ratio"
      (safe_div (float_of_int (List.length st.failures)) (float_of_int st.attempted));
    host "host.calib_ms" "ms" (Stat.median (List.map (fun s -> s.calib) samples));
  ]

let blame_group = function
  | "launch latency" -> "launch_latency"
  | "sync_all" -> "sync_all"
  | "HBM/L2 bandwidth" -> "hbm_l2_bw"
  | "phase overhead" | "launch overhead" -> "overhead"
  | _ -> "engine"

let engine_class e =
  if String.ends_with ~suffix:".mte_in" e then "mte2"
  else if String.ends_with ~suffix:".mte_out" e then "mte3"
  else if e = "cube" || e = "scalar" then e
  else "vec"

(* One layer round's metrics; the pass reports each one's median over
   rounds. *)
let round_metrics recs =
  let s64 f = sum (fun r -> ms (f r)) recs in
  let stats f = sum (fun r -> f r.p.stats) recs in
  let step name =
    sum (fun r -> ms (Option.value ~default:0L (List.assoc_opt name r.seen.steps))) recs
  in
  let exec = s64 (fun r -> r.p.exec_ns) in
  let launch_ms = stats (fun s -> s.Stats.host_seconds *. 1e3) in
  let launches = stats (fun s -> float_of_int s.Stats.launches) in
  let instrs =
    stats (fun s -> float_of_int (List.fold_left (fun a (_, k) -> a + k) 0 s.Stats.op_counts))
  in
  (* Payload = untraced exec minus the Cost_only twin's. *)
  let untraced = sum (fun r -> ms (if r.call.W.traced then r.off_ns else r.p.exec_ns)) recs in
  let charge = s64 (fun r -> r.charge_ns) in
  let payload = untraced -. charge in
  let profile f = sum (fun r -> f r.seen.profile) recs in
  let blame g =
    profile (fun p ->
        List.fold_left
          (fun a (k, c) -> if blame_group k = g then a +. c else a)
          0.0 p.CP.blame)
  in
  let busy cls =
    stats (fun s ->
        List.fold_left
          (fun a (e, c) -> if engine_class e = cls then a +. c else a)
          0.0 s.Stats.engine_busy)
  in
  let phases f = stats (fun s -> sum f s.Stats.phases) in
  [
    host "device.stage_ms" "ms" (s64 (fun r -> r.p.stage_ns));
    host "global_tensor.readback_ms" "ms" (s64 (fun r -> r.p.readback_ns));
    host "op_registry.exec_ms" "ms" exec;
    host "op_registry.glue_ms" "ms" (exec -. launch_ms);
    host "block.charge_ms" "ms" charge;
    host "host_buffer.payload_ms" "ms" payload;
    host "host_buffer.payload_frac" "frac" (safe_div payload untraced);
    host "launch.host_ms" "ms" launch_ms;
    host "launch.ms_per_launch" "ms" (safe_div launch_ms launches);
    host "launch.host_ns_per_sim_instr" "ns/instr" (safe_div (launch_ms *. 1e6) instrs);
    host "trace.record_ms" "ms" (s64 (fun r -> Int64.sub r.on_ns r.off_ns));
    host "trace.check_ms" "ms" (step "trace.check");
    host "chrome_trace.export_ms" "ms" (step "chrome_trace.export");
    host "jsonw.parse_ms" "ms" (step "jsonw.parse");
    host "chrome_trace.validate_ms" "ms" (step "chrome_trace.validate");
    host "critical_path.profile_ms" "ms" (step "critical_path.profile");
    host "critical_path.report_ms" "ms" (step "critical_path.report");
    exact "sim.cycles_per_round" "cycles" (stats cycles);
    exact "sim.cp_total_cycles" "cycles" (profile (fun p -> p.CP.total_cycles));
    exact "sim.blame.launch_latency_cycles" "cycles" (blame "launch_latency");
    exact "sim.blame.sync_all_cycles" "cycles" (blame "sync_all");
    exact "sim.blame.hbm_l2_bw_cycles" "cycles" (blame "hbm_l2_bw");
    exact "sim.blame.engine_cycles" "cycles" (blame "engine");
    exact "sim.blame.overhead_cycles" "cycles" (blame "overhead");
    exact "sim.busy.mte2_cycles" "cycles" (busy "mte2");
    exact "sim.busy.mte3_cycles" "cycles" (busy "mte3");
    exact "sim.busy.cube_cycles" "cycles" (busy "cube");
    exact "sim.busy.vec_cycles" "cycles" (busy "vec");
    exact "sim.busy.scalar_cycles" "cycles" (busy "scalar");
    exact "sim.bw_bound_phase_frac" "frac"
      (safe_div
         (phases (fun ph -> if ph.Stats.bandwidth_bound then ph.Stats.seconds else 0.0))
         (phases (fun ph -> ph.Stats.seconds)));
    exact "stats.launches" "count" launches;
    exact "stats.phases" "count" (stats (fun s -> float_of_int (List.length s.Stats.phases)));
    exact "stats.blocks" "count" (stats (fun s -> float_of_int s.Stats.blocks));
    exact "stats.sim_instrs" "count" instrs;
    exact "stats.gm_read_mb" "MB" (stats (fun s -> float_of_int s.Stats.gm_read_bytes /. 1e6));
    exact "stats.gm_write_mb" "MB" (stats (fun s -> float_of_int s.Stats.gm_write_bytes /. 1e6));
    exact "trace.spans" "count" (sum (fun r -> float_of_int r.seen.trace_spans) recs);
    exact "trace.edges" "count" (sum (fun r -> float_of_int r.seen.trace_edges) recs);
    exact "chrome_trace.mb" "MB" (sum (fun r -> float_of_int r.seen.chrome_bytes /. 1e6) recs);
  ]
  @ List.concat_map
      (fun r ->
        let op = "op." ^ r.call.W.entry.Reg.name in
        [
          host (op ^ ".exec_ms") "ms" (ms r.p.exec_ns);
          exact (op ^ ".sim_us") "sim_us" (r.p.stats.Stats.seconds *. 1e6);
        ])
      recs

(* Per-name medians over rounds. A call that failed in some round
   leaves its per-op metrics out of that round only. *)
let medians per_round =
  match per_round with
  | [] -> []
  | first :: _ ->
      List.map
        (fun m ->
          let vs =
            List.filter_map
              (fun ms -> Option.map (fun x -> x.value) (List.find_opt (fun x -> x.name = m.name) ms))
              per_round
          in
          { m with value = Stat.median vs })
        first

let layer_metrics st ~samples ~layers ~spans ~fidelity ~top_heap_mb =
  let e2e_round = Stat.median (List.map (fun s -> s.round_ms) samples) in
  let layer_round =
    Stat.median (List.map (fun (_, recs) -> sum (fun r -> ms r.call_ns) recs) layers)
  in
  let self = Spans.self_ns spans in
  let calls = List.filter (fun s -> s.Spans.name = "call") (Spans.spans spans) in
  let call_total = sum (fun s -> ms (Spans.duration s)) calls in
  let unattributed = sum (fun s -> ms (self s)) calls in
  medians (List.map (fun (_, recs) -> round_metrics recs) layers)
  @ round_metrics_of st samples
  @ [
      host "gc.minor_mwords" "Mwords" (Stat.median (List.map (fun s -> s.minor_mwords) samples));
      host "gc.major_collections" "count" (Stat.median (List.map (fun s -> s.majors) samples));
      host "gc.top_heap_mb" "MB" top_heap_mb;
      host "host.calib_ms" "ms"
        (Stat.median (List.map (fun s -> s.calib) samples @ List.map fst layers));
      host "ledger.overhead_pct" "%" (100.0 *. ((layer_round /. e2e_round) -. 1.0));
      host "ledger.unattributed_pct" "%" (100.0 *. safe_div unattributed call_total);
      host "layer_rounds" "count" (float_of_int (List.length layers));
    ]
  @ List.map
      (fun (c : Fidelity.claim) -> exact ("fidelity." ^ c.Fidelity.name) c.Fidelity.unit_ c.Fidelity.measured)
      fidelity

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)

type pass = E2e | Layers

let pass_name = function E2e -> "e2e" | Layers -> "layers"

type outcome = {
  st : state;
  pass : pass;
  metrics : metric list;
  extra : (string * J.t) list;
}

(* Set-up time: spawn this executable with --setup-only, which
   initialises the libraries, generates the inputs and runs the warm-up
   round, then exits; the seconds each of [probes] spawns took. *)
let setup_probes ~name ~seed ~div probes =
  let once () =
    let args =
      [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
         "--div"; string_of_int div; "--setup-only" |]
    in
    let t0 = Spans.now_ns () in
    let pid =
      Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Int64.to_float (Int64.sub (Spans.now_ns ()) t0) /. 1e9
    | _ -> failwith "ledger: set-up probe failed"
  in
  List.init probes (fun _ -> once ())

(* Plain rounds run for [seconds] (half of it in the layer pass), at
   least [min_rounds] and at most [max_rounds] times; then between one
   and [layer_rounds] layer rounds fill the other half. *)
type budget = {
  seconds : float;
  min_rounds : int;
  max_rounds : int;
  layer_rounds : int;
  probes : int;
}

let run_pass ~pass ~name ~seed ~div ~budget ~fidelity =
  let st = setup ~name ~seed ~div in
  match pass with
  | E2e ->
      (* Half the set-up probes run before the rounds and half after:
         slow spells on a shared host last several seconds, and one
         spell took all of the probes when they ran back to back. *)
      let probes k = setup_probes ~name ~seed ~div k in
      let early = probes ((budget.probes + 1) / 2) in
      let samples =
        rounds ~seconds:budget.seconds ~min_rounds:budget.min_rounds
          ~max_rounds:budget.max_rounds (e2e_round st)
      in
      let setup_s = Stat.median (early @ probes (budget.probes / 2)) in
      (* Before the claims: a run that computes them peaks 6 MB higher. *)
      let peak_rss_mb = peak_rss_mb () in
      let fidelity = Lazy.force fidelity in
      {
        st;
        pass;
        metrics = e2e_metrics st ~setup_s ~peak_rss_mb ~fidelity samples;
        extra = [];
      }
  | Layers ->
      (* Half the window of plain rounds for the GC counts, p90 and the
         overhead baseline, then up to five layer rounds. *)
      let samples =
        rounds ~seconds:(budget.seconds /. 2.0) ~min_rounds:budget.min_rounds
          ~max_rounds:budget.max_rounds (e2e_round st)
      in
      let top_heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6 in
      let sp = Spans.create () in
      let layers =
        rounds ~seconds:(budget.seconds /. 2.0) ~min_rounds:1
          ~max_rounds:budget.layer_rounds (layer_round st sp)
      in
      let fidelity = Lazy.force fidelity in
      {
        st;
        pass;
        metrics = layer_metrics st ~samples ~layers ~spans:sp ~fidelity ~top_heap_mb;
        extra = [ ("spans", Spans.to_json sp) ];
      }

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let metrics_json ms =
  J.Obj
    (List.map
       (fun m -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit_) ]))
       ms)

let correct o = o.st.failures = []

(* The metrics BENCHMARK.json lists for this pass, each with the unit
   declared there. *)
let select (spec : Spec.t) o =
  let wanted = match o.pass with E2e -> spec.Spec.end_to_end | Layers -> spec.Spec.per_layer in
  List.fold_right
    (fun (want : Spec.metric) acc ->
      let* rest = acc in
      match List.find_opt (fun m -> m.name = want.Spec.name) o.metrics with
      | None -> Error ("metric not produced: " ^ want.Spec.name)
      | Some m when m.unit_ <> want.Spec.unit_ ->
          Error (Printf.sprintf "metric %s: unit %s, BENCHMARK.json says %s" m.name m.unit_ want.Spec.unit_)
      | Some m -> Ok (m :: rest))
    wanted (Ok [])

let machine o =
  let calib = (List.find (fun m -> m.name = "host.calib_ms") o.metrics).value in
  let cpus = Domain.recommended_domain_count () in
  J.Obj
    [
      ("host", J.String (Unix.gethostname ()));
      ("host_cpus", J.Int cpus);
      ("nproc", J.Int (nproc ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("calib_ms", J.Float calib);
      ( "note",
        J.String
          (Printf.sprintf
             "%d-CPU host, one domain; host-clock numbers hold for this machine \
              only and are not extrapolated"
             cpus) );
    ]

let result_json ~seed o =
  J.Obj
    ([
       ("schema", J.String "ledger-result-1");
       ("workload", J.String o.st.w.W.name);
       ("seed", J.Int seed);
       ("pass", J.String (pass_name o.pass));
       ("machine", machine o);
       ("correct", J.Bool (correct o));
       ("attempted", J.Int o.st.attempted);
       ("failed", J.Int (List.length o.st.failures));
       ("failures", J.List (List.rev_map (fun s -> J.String s) o.st.failures));
       ("exact", J.List (List.filter_map (fun m -> if m.exact then Some (J.String m.name) else None) o.metrics));
       (* The same value in every workload: compare gates it once. *)
       ( "shared",
         J.List
           (List.filter_map
              (fun m ->
                if String.starts_with ~prefix:"fidelity" m.name then Some (J.String m.name)
                else None)
              o.metrics) );
       ("metrics", metrics_json o.metrics);
       ( "digests",
         J.Obj
           [
             ("inputs", J.String (W.input_digest o.st.w));
             ("outputs", J.String o.st.output_digest);
             ("ops", J.List (List.map (fun s -> J.String s) (W.op_list o.st.w)));
           ] );
     ]
    @ o.extra)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* The headline claims depend on the simulator, not on the workload, and
   take about 4 s. They are computed by the first run of a build and kept
   under [out], keyed by this executable's digest, for the runs after. *)
let fidelity_claims ~out =
  let path =
    Filename.concat out
      ("fidelity-" ^ Digest.to_hex (Digest.file Sys.executable_name) ^ ".claims")
  in
  let claim v =
    let num k = Option.bind (J.member k v) J.number_opt in
    let str k = Option.bind (J.member k v) J.string_opt in
    match (str "name", num "measured", num "paper", str "unit") with
    | Some name, Some measured, Some paper, Some unit_ ->
        Some { Fidelity.name; measured; paper; unit_ }
    | _ -> None
  in
  let cached =
    match J.parse (Spec.read_file path) with
    | exception Sys_error _ -> None
    | Error _ -> None
    | Ok v ->
        let claims = List.filter_map claim (Option.value ~default:[] (J.to_list_opt v)) in
        if claims = [] then None else Some claims
  in
  match cached with
  | Some claims -> claims
  | None ->
      let claims = Fidelity.claims ~div:1 in
      mkdir_p out;
      let tmp = Filename.temp_file ~temp_dir:out "fidelity" ".tmp" in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          J.to_channel oc
            (J.List
               (List.map
                  (fun { Fidelity.name; measured; paper; unit_ } ->
                    J.Obj
                      [ ("name", J.String name); ("measured", J.Float measured);
                        ("paper", J.Float paper); ("unit", J.String unit_) ])
                  claims)));
      Sys.rename tmp path;
      claims

let write_result ~out ~seed o =
  mkdir_p out;
  let path =
    Filename.concat out
      (Printf.sprintf "%s.%s.s%d.json" o.st.w.W.name (pass_name o.pass) seed)
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> J.to_channel ~pretty:true oc (result_json ~seed o))

let print_metrics ms =
  List.iter (fun m -> Printf.printf "  %-36s %16s %s\n" m.name (J.float_to_string m.value) m.unit_) ms

(* The last line, for whatever runs the benchmark: the verdict, the call
   counts and the metrics BENCHMARK.json lists for this pass. *)
let summary_line o selected =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (correct o));
         ("attempted", J.Int o.st.attempted);
         ("failed", J.Int (List.length o.st.failures));
         ("metrics", metrics_json selected);
       ])

(* ------------------------------------------------------------------ *)
(* --all: every workload, both passes, one child process each          *)

let run_all ~spec ~seed ~seconds ~out =
  let ok = ref true in
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let args =
            [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
               "--seconds"; Printf.sprintf "%g" seconds; "--trace"; trace;
               "--out"; out |]
          in
          Printf.printf "== %s --trace %s\n%!" name trace;
          let ic = Unix.open_process_args_in Sys.executable_name args in
          let rec echo () =
            match input_line ic with
            | l ->
                print_endline l;
                echo ()
            | exception End_of_file -> ()
          in
          echo ();
          match Unix.close_process_in ic with
          | Unix.WEXITED 0 -> ()
          | _ ->
              ok := false;
              Printf.printf "!! %s --trace %s failed\n%!" name trace)
        [ "0"; "1" ])
    spec.Spec.workloads;
  exit (if !ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* --smoke: the runtest rule                                            *)

let smoke ~spec =
  let budget =
    { seconds = 0.0; min_rounds = 3; max_rounds = 3; layer_rounds = 1; probes = 1 }
  in
  let div = 16 in
  let fidelity = lazy (Fidelity.claims ~div) in
  let problems = ref [] in
  let expect what ok = if not ok then problems := what :: !problems in
  let value o name = (List.find (fun m -> m.name = name) o.metrics).value in
  List.iter
    (fun name ->
      let seed = 1 in
      let t0 = Spans.now_ns () in
      let e2e = run_pass ~pass:E2e ~name ~seed ~div ~budget ~fidelity in
      let lay = run_pass ~pass:Layers ~name ~seed ~div ~budget ~fidelity in
      let says what = Printf.sprintf "%s: %s" name what in
      List.iter
        (fun o ->
          (match select spec o with
          | Ok _ -> ()
          | Error e -> expect (says e) false);
          expect (says (pass_name o.pass ^ " pass failed calls: " ^ String.concat "; " o.st.failures))
            (correct o))
        [ e2e; lay ];
      let blame =
        List.fold_left
          (fun a g -> a +. value lay ("sim.blame." ^ g ^ "_cycles"))
          0.0
          [ "launch_latency"; "sync_all"; "hbm_l2_bw"; "engine"; "overhead" ]
      in
      expect (says "blame does not sum to sim.cp_total_cycles")
        (close_to blame (value lay "sim.cp_total_cycles"));
      expect (says "simulated cycles differ between the e2e and layer passes")
        (value e2e "sim_cycles_per_round" = value lay "sim.cycles_per_round");
      expect (says "output digests differ between the e2e and layer passes")
        (e2e.st.output_digest = lay.st.output_digest);
      expect (says "stage + exec + readback cover under 95% of call time")
        (value lay "ledger.unattributed_pct" <= 5.0);
      (* Seed discipline. *)
      let again = setup ~name ~seed ~div in
      let other = setup ~name ~seed:2 ~div in
      expect (says "seed 1 twice gave different outputs or cycles")
        (again.output_digest = e2e.st.output_digest && again.cycles = e2e.st.cycles);
      expect (says "seed 2 did not change the inputs")
        (W.input_digest other.w <> W.input_digest e2e.st.w);
      expect (says "seed 2 changed the op list") (W.op_list other.w = W.op_list e2e.st.w);
      Printf.printf "smoke %s: %.1f s\n%!" name
        (Int64.to_float (Int64.sub (Spans.now_ns ()) t0) /. 1e9))
    spec.Spec.workloads;
  match !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
      exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let usage () =
  prerr_endline
    "usage: ledger.exe (--workload NAME | --all | --smoke) [--seed N] [--seconds S] \
     [--trace 0|1 | --layers] [--out DIR] [--spec BENCHMARK.json]";
  exit 2

let () =
  let workload = ref None and all = ref false and smoke_mode = ref false in
  let seed = ref 1 and seconds = ref None and trace = ref false in
  let out = ref ".ledger" and spec_path = ref "BENCHMARK.json" in
  let setup_only = ref false and div = ref 1 in
  let int_arg s = match int_of_string_opt s with Some n when n >= 1 -> n | _ -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--all" :: rest -> all := true; parse rest
    | "--smoke" :: rest -> smoke_mode := true; parse rest
    | "--seed" :: n :: rest -> seed := int_arg n; parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some f when f > 0.0 -> seconds := Some f
        | _ -> usage ());
        parse rest
    | "--trace" :: "0" :: rest -> trace := false; parse rest
    | "--trace" :: "1" :: rest | "--layers" :: rest -> trace := true; parse rest
    | "--out" :: d :: rest -> out := d; parse rest
    | "--spec" :: p :: rest -> spec_path := p; parse rest
    | "--div" :: n :: rest -> div := int_arg n; parse rest
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !setup_only then begin
    match !workload with
    | Some name when List.mem name W.names ->
        let st = setup ~name ~seed:!seed ~div:!div in
        exit (if st.failures = [] then 0 else 1)
    | _ -> usage ()
  end;
  let spec =
    match Spec.load !spec_path with
    | Ok s -> s
    | Error e ->
        prerr_endline ("ledger: " ^ e);
        exit 2
  in
  if !smoke_mode then smoke ~spec
  else if !all then
    (* Eight passes must fit in three minutes. *)
    run_all ~spec ~seed:!seed ~seconds:(Option.value !seconds ~default:10.0) ~out:!out
  else
    let seconds = Option.value !seconds ~default:(float_of_int spec.Spec.run_seconds) in
    match !workload with
    | Some name when List.mem name spec.Spec.workloads && List.mem name W.names -> (
        let budget =
          { seconds; min_rounds = 1; max_rounds = max_int; layer_rounds = 5; probes = 9 }
        in
        let pass = if !trace then Layers else E2e in
        let fidelity = lazy (fidelity_claims ~out:!out) in
        let o = run_pass ~pass ~name ~seed:!seed ~div:1 ~budget ~fidelity in
        Printf.printf "%s (%s pass, seed %d, %d calls, %d failed)\n" name (pass_name pass)
          !seed o.st.attempted (List.length o.st.failures);
        List.iter (fun f -> Printf.printf "  FAILED %s\n" f) (List.rev o.st.failures);
        print_metrics o.metrics;
        write_result ~out:!out ~seed:!seed o;
        match select spec o with
        | Error e ->
            prerr_endline ("ledger: " ^ e);
            exit 2
        | Ok selected ->
            print_endline (summary_line o selected);
            exit (if correct o then 0 else 1))
    | _ -> usage ()
