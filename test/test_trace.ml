(* Tracing subsystem tests.

   The contracts under test:
   - recording is deterministic: the exported Chrome trace JSON is
     byte-identical across host domain counts, for every registered
     operator (the trace is keyed by simulated cycles and block ids,
     never by host scheduling);
   - the recorder is internally consistent for every operator:
     monotone per-engine tracks, spans inside their block window;
   - the exported JSON survives its own validator and parser, and the
     occupancy summary derived from it never exceeds 100% per engine;
   - [trace summary] is a view of the profile: its occupancy and
     bounding lines are pinned for a device trace, and its
     MTE/compute overlap is the [--metrics] gauge of the same phase;
   - the Stats additions (launch counting under [combine], the
     zero-time guards) behave. *)

open Ascend

let () = Ops.Ops_registry.install ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Small enough to keep ~16 ops x 2 domain counts fast, large enough
   that every kernel schedules several blocks. *)
let n = 1024

let trace_of entry ~domains =
  match Workload.Op_driver.run ~n ~domains entry with
  | Ok (st, Some tr) -> (st, tr)
  | Ok (_, None) -> Alcotest.fail "driver returned no trace"
  | Error msg ->
      Alcotest.failf "%s: %s" entry.Scan.Op_registry.name msg

(* ------------------------------------------------------------------ *)
(* Determinism across host domains, per registered operator.          *)

let test_domain_identity (entry : Scan.Op_registry.entry) () =
  let _, tr1 = trace_of entry ~domains:1 in
  let _, tr4 = trace_of entry ~domains:4 in
  let j1 = Obs.Chrome_trace.to_string tr1 in
  let j4 = Obs.Chrome_trace.to_string tr4 in
  check_string "trace JSON identical across domains 1/4" j1 j4

(* ------------------------------------------------------------------ *)
(* Recorder consistency, per registered operator.                     *)

let test_consistency (entry : Scan.Op_registry.entry) () =
  let _, tr = trace_of entry ~domains:1 in
  (match Trace.check tr with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "inconsistent trace: %s" msg);
  check_bool "events recorded" true (Trace.event_count tr > 0);
  match Obs.Chrome_trace.validate (Obs.Chrome_trace.json tr) with
  | Ok counts -> check_bool "validator accepts" true (counts.Obs.Chrome_trace.events > 0)
  | Error msg -> Alcotest.failf "invalid chrome trace: %s" msg

(* Every engine span survives the export, plus one timeline span per
   launch and one per phase. *)
let test_span_accounting () =
  let entry = Option.get (Scan.Op_registry.find "mcscan") in
  let _, tr = trace_of entry ~domains:1 in
  match Obs.Chrome_trace.validate (Obs.Chrome_trace.json tr) with
  | Ok counts ->
      let launches = Trace.launches tr in
      let expected =
        Trace.span_count tr
        + List.length launches
        + List.fold_left
            (fun acc l -> acc + List.length l.Trace.ln_phases)
            0 launches
      in
      check_int "spans = engine spans + launch spans + phase spans"
        expected counts.Obs.Chrome_trace.spans
  | Error msg -> Alcotest.failf "invalid chrome trace: %s" msg

(* ------------------------------------------------------------------ *)
(* JSON round-trip and summary bounds.                                *)

let test_json_roundtrip () =
  let entry = Option.get (Scan.Op_registry.find "scanu") in
  let _, tr = trace_of entry ~domains:1 in
  let s = Obs.Chrome_trace.to_string tr in
  match Obs.Jsonw.parse s with
  | Error msg -> Alcotest.failf "emitted JSON does not parse: %s" msg
  | Ok doc ->
      check_string "print/parse/print is a fixpoint" s
        (Obs.Jsonw.to_string doc)

let profile_of tr =
  match Obs.Critical_path.of_json (Obs.Chrome_trace.json tr) with
  | Ok p -> p
  | Error msg -> Alcotest.failf "profile: %s" msg

let test_occupancy_bounds () =
  List.iter
    (fun name ->
      let entry = Option.get (Scan.Op_registry.find name) in
      let _, tr = trace_of entry ~domains:1 in
      let phases = Obs.Critical_path.summaries (profile_of tr) in
      check_bool "at least one phase" true (phases <> []);
      List.iter
        (fun ((ph : Obs.Critical_path.phase), (s : Obs.Critical_path.summary)) ->
          check_bool "bounding resource named" true
            (s.Obs.Critical_path.bounding <> "");
          List.iter
            (fun (engine, occ) ->
              if occ < 0.0 || occ > 1.0 +. 1e-6 then
                Alcotest.failf "%s phase %d: engine %s occupancy %g out of [0,1]"
                  name ph.Obs.Critical_path.ph_index engine occ)
            s.Obs.Critical_path.engines)
        phases)
    [ "scanu"; "mcscan"; "vec_only" ]

(* ------------------------------------------------------------------ *)
(* trace summary: a view of the one profile.                          *)

let summary_lines p =
  String.split_on_char '\n'
    (Format.asprintf "%a" Obs.Critical_path.pp_summary p)

let is_overlap_line l =
  String.starts_with ~prefix:"    mte/compute overlap " l

let without_overlap p =
  String.concat "\n" (List.filter (fun l -> not (is_overlap_line l)) (summary_lines p))

let profile_at_64k name =
  let entry = Option.get (Scan.Op_registry.find name) in
  match Workload.Op_driver.run ~n:65536 ~domains:1 entry with
  | Ok (_, Some tr) -> profile_of tr
  | Ok (_, None) -> Alcotest.fail "driver returned no trace"
  | Error msg -> Alcotest.failf "%s: %s" name msg

(* Every phase's overlap line in [trace summary] prints the value of
   its [ascend_phase_mte_compute_overlap_ratio] gauge: both read from
   the exposition and the report text, so a second definition of the
   overlap on either side shows here (multi-block phases pooled
   across cores read 24.2% against a 6.9% gauge for mcscan phase 1). *)
let test_overlap_agrees name () =
  let p = profile_at_64k name in
  let m = Obs.Metrics.create () in
  Obs.Metrics.observe_profile m p;
  let gauge = "ascend_phase_mte_compute_overlap_ratio{" in
  let gauges =
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:gauge l then
          Some (float_of_string (List.nth (String.split_on_char ' ' l) 1))
        else None)
      (String.split_on_char '\n'
         (Format.asprintf "%a" Obs.Metrics.pp_prometheus m))
  in
  (* Per phase of the report: its overlap line, if any, and whether it
     printed occupancy (the overlap line rides under it). *)
  let rec phases acc = function
    | [] -> List.rev acc
    | l :: rest when String.starts_with ~prefix:"  phase " l ->
        let body, rest =
          match rest with
          | o :: v :: rest' when is_overlap_line v -> ([ o; v ], rest')
          | o :: rest' when String.starts_with ~prefix:"    occupancy:" o ->
              ([ o ], rest')
          | _ -> ([], rest)
        in
        phases (body :: acc) rest
    | _ :: rest -> phases acc rest
  in
  let reported = phases [] (summary_lines p) in
  check_int (name ^ ": one gauge per reported phase") (List.length reported)
    (List.length gauges);
  List.iteri
    (fun i (g, body) ->
      let printed = List.find_opt is_overlap_line body in
      let expected =
        if body <> [] && g > 0.0005 then
          Some (Printf.sprintf "    mte/compute overlap %.1f%%" (100.0 *. g))
        else None
      in
      Alcotest.(check (option string))
        (Printf.sprintf "%s phase #%d: summary overlap = gauge %g" name i g)
        expected printed)
    (List.combine gauges reported)

(* The occupancy and bounding lines, as the summary printed them
   before it became a view of the profile. *)
let pinned_compress =
  {|launch mcscan_exclusive
  phase 0: 0.737 us, compute-bound, bounded by cube.mte_in
    occupancy: cube.mte_in 39.5% cube.mte_out 38.2% cube 22.3% vec0.mte_in 2.1% vec1.mte_in 2.1% vec0 1.7% vec1 1.7% vec0.mte_out 0.2% vec1.mte_out 0.2%
  phase 1: 2.387 us, compute-bound, bounded by vec1
    occupancy: vec1 16.3% vec0 16.3% vec0.mte_out 2.4% vec1.mte_out 2.4% vec0.mte_in 1.3% vec1.mte_in 1.3%
launch split_gather
  phase 0: 0.563 us, bandwidth-bound, bounded by HBM/L2 bandwidth
    occupancy: vec0.mte_in 21.7% vec1.mte_in 21.7% vec0 12.8% vec1 12.8% vec0.mte_out 2.3% vec1.mte_out 2.3%
|}

let test_summary_pinned () =
  check_string "compress 64K device trace" pinned_compress
    (without_overlap (profile_at_64k "compress"))

(* ------------------------------------------------------------------ *)
(* Recorder check: each violation's message.                           *)

let no_phase =
  {
    Stats.compute_seconds = 0.0;
    bandwidth_seconds = 0.0;
    seconds = 0.0;
    gm_bytes = 0;
    footprint_bytes = 0;
    bandwidth_bound = false;
  }

(* A recorder holding one launch [k] of one block (block 3 on core 0,
   [cycles] elapsed), whose spans and edges [build] records. *)
let recorded ?(cycles = 10.0) build =
  let tr = Trace.create () in
  let b = Trace.block_builder ~idx:3 ~core:0 in
  build b;
  Trace.record_launch tr ~name:"k" ~seconds:0.0 ~latency_cycles:0.0
    ~sync_cycles:0.0
    ~phases:[ (no_phase, [ Trace.Block_builder.finish b ~cycles ]) ];
  tr

(* A span on track 0 ("vec0") or 1 ("vec0.mte_in"). *)
let span ?(track = 0) b ~start ~cycles =
  ignore
    (Trace.Block_builder.span b ~track
       ~engine:(if track = 0 then "vec0" else "vec0.mte_in")
       ~queue:"V" ~op:"vadd" ~start ~cycles ~bytes:0)

let edge b src dst = Trace.Block_builder.edge b ~kind:Trace.Lane ~src ~dst

let check_fails expected tr =
  match Trace.check tr with
  | Ok () -> Alcotest.failf "accepted; expected %S" expected
  | Error msg -> check_string "first violation" expected msg

let test_check_failures () =
  check_fails "launch k block 3 vec0: span vadd has negative duration"
    (recorded (fun b -> span b ~start:0.0 ~cycles:(-1.0)));
  check_fails "launch k block 3 vec0: span vadd starts at 2.000 before track end 5.000"
    (recorded (fun b ->
         span b ~start:0.0 ~cycles:5.0;
         span b ~start:2.0 ~cycles:1.0));
  check_fails "launch k block 3: engine track ends at 12.000 after block elapsed 10.000"
    (recorded (fun b -> span b ~start:0.0 ~cycles:12.0));
  check_fails "launch k block 3: edge source span 5 not recorded"
    (recorded (fun b ->
         span b ~start:0.0 ~cycles:1.0;
         edge b 5 0));
  check_fails "launch k block 3: edge target span 7 not recorded"
    (recorded (fun b ->
         span b ~start:0.0 ~cycles:1.0;
         edge b 0 7));
  check_fails "launch k block 3: edge 1 -> 0 not in issue order"
    (recorded (fun b ->
         span b ~start:0.0 ~cycles:1.0;
         span b ~track:1 ~start:0.0 ~cycles:1.0;
         edge b 1 0));
  check_fails
    "launch k block 3 vec0.mte_in: span 1 (vadd) starts at 0x1.4p+2 but its \
     edge predecessors end at 0x1p+2"
    (recorded (fun b ->
         span b ~start:0.0 ~cycles:4.0;
         span b ~track:1 ~start:5.0 ~cycles:1.0;
         edge b 0 1))

(* Which violation wins: a span both negative and overlapping reports
   the overlap; a track fault beats an edge fault; an edge fault beats
   an issue time; and the newest launch is checked first. *)
let test_check_first_violation () =
  check_fails "launch k block 3 vec0: span vadd starts at 2.000 before track end 5.000"
    (recorded (fun b ->
         span b ~start:0.0 ~cycles:5.0;
         span b ~start:2.0 ~cycles:(-1.0)));
  check_fails "launch k block 3: engine track ends at 12.000 after block elapsed 10.000"
    (recorded (fun b ->
         span b ~start:0.0 ~cycles:12.0;
         edge b 0 9));
  check_fails "launch k block 3: edge source span 4 not recorded"
    (recorded (fun b ->
         span b ~start:0.0 ~cycles:1.0;
         span b ~track:1 ~start:3.0 ~cycles:1.0;
         edge b 4 1));
  let tr = recorded (fun b -> span b ~start:0.0 ~cycles:(-1.0)) in
  let b = Trace.block_builder ~idx:0 ~core:1 in
  span b ~start:0.0 ~cycles:12.0;
  Trace.record_launch tr ~name:"later" ~seconds:0.0 ~latency_cycles:0.0
    ~sync_cycles:0.0
    ~phases:[ (no_phase, [ Trace.Block_builder.finish b ~cycles:10.0 ]) ];
  check_fails
    "launch later block 0: engine track ends at 12.000 after block elapsed \
     10.000"
    tr

(* ------------------------------------------------------------------ *)
(* Export allocation.                                                  *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* The export of mcscan at 64K allocates a few minor words per event
   (the sort's buffers, a boxed ts and dur), not a record and an arg
   list: 119 per event when events were placed in a sorted list and
   each number went through a fresh [Bytes]. *)
let test_export_allocation () =
  let entry = Option.get (Scan.Op_registry.find "mcscan") in
  let tr =
    match Workload.Op_driver.run ~n:65536 ~domains:1 entry with
    | Ok (_, Some tr) -> tr
    | _ -> Alcotest.fail "mcscan: no trace"
  in
  let text = ref "" in
  let words = minor_words (fun () -> text := Obs.Chrome_trace.to_string tr) in
  let events =
    match Obs.Chrome_trace.validate (Obs.Chrome_trace.json tr) with
    | Ok c -> c.Obs.Chrome_trace.events
    | Error e -> Alcotest.fail e
  in
  if words /. float_of_int events > 16.0 then
    Alcotest.failf "to_string: %.1f minor words per event (%d events), over 16"
      (words /. float_of_int events) events;
  (* Numbers go through a scratch, not an allocation each. *)
  let buf = Buffer.create (1 lsl 20) in
  let ints = [ 0; 7; 10; 42; 1118; -1; -123_456; max_int; 1 lsl 40 ] in
  let floats =
    [ 0.0; -0.0; 1.5; 0.1; 1.0 /. 3.0; 3.14159; 1e-5; 123456.789; -2.5e14;
      5e14 +. 0.5; 1.8e9; 0.000_555_555_555_6 ]
  in
  let write_int i = Obs.Jsonw.write_int buf i in
  let write_float f = Obs.Jsonw.write_float buf f in
  let overhead = minor_words (fun () -> ()) in
  let per_call name write values =
    List.iter write values;
    let w =
      minor_words (fun () ->
          for _ = 1 to 1_000 do
            Buffer.clear buf;
            List.iter write values
          done)
      -. overhead
    in
    if w <> 0.0 then Alcotest.failf "%s: %g minor words in %d calls" name w
        (1_000 * List.length values)
  in
  per_call "Jsonw.write_int" write_int ints;
  per_call "Jsonw.write_float" write_float floats

(* ------------------------------------------------------------------ *)
(* Stats satellites: combine launch counting and zero-time guards.    *)

let stats_of name =
  let entry = Option.get (Scan.Op_registry.find name) in
  match Workload.Op_driver.run ~n ~traced:false entry with
  | Ok (st, _) -> st
  | Error msg -> Alcotest.failf "%s: %s" name msg

let test_combine_launches () =
  let a = stats_of "scanu" and b = stats_of "mcscan" and c = stats_of "tcu" in
  check_int "single launch" 1 a.Stats.launches;
  let left = Stats.combine ~name:"t" [ Stats.combine ~name:"t" [ a; b ]; c ] in
  let right = Stats.combine ~name:"t" [ a; Stats.combine ~name:"t" [ b; c ] ] in
  let flat = Stats.combine ~name:"t" [ a; b; c ] in
  check_bool "combine associates (simulated fields)" true
    (Stats.equal_simulated left right);
  check_bool "combine flattens (simulated fields)" true
    (Stats.equal_simulated left flat);
  check_int "launches sum" 3 flat.Stats.launches;
  check_bool "per-launch host seconds defined" true
    (Float.is_finite (Stats.host_seconds_per_launch flat))

let test_zero_time_guards () =
  let st = stats_of "scanu" in
  let frozen = { st with Stats.seconds = 0.0 } in
  let u = Stats.core_utilization frozen in
  check_int "utilization keeps core count"
    (Array.length st.Stats.core_busy)
    (Array.length u);
  Array.iter (fun v -> check_bool "zero-seconds utilization is 0" true (v = 0.0)) u;
  (match st.Stats.phases with
  | p :: _ ->
      let zero = { p with Stats.seconds = 0.0 } in
      check_bool "zero-seconds phase occupancy is 0" true
        (Stats.phase_occupancy zero ~busy_cycles:1000.0
           ~clock_hz:(Trace.clock_hz (Trace.create ()))
        = 0.0);
      check_bool "zero-clock phase occupancy is 0" true
        (Stats.phase_occupancy p ~busy_cycles:1000.0 ~clock_hz:0.0 = 0.0)
  | [] -> Alcotest.fail "scanu produced no phases");
  (* Real runs stay in range. *)
  Array.iter
    (fun v -> check_bool "utilization non-negative" true (v >= 0.0))
    (Stats.core_utilization st)

let test_recording_off_by_default () =
  let d = Device.create () in
  check_bool "no recorder unless armed" true (Device.trace d = None);
  let tr = Device.arm_trace d in
  check_bool "armed recorder attached" true (Device.trace d = Some tr)

(* ------------------------------------------------------------------ *)

let () =
  let per_op label f =
    List.map
      (fun (e : Scan.Op_registry.entry) ->
        Alcotest.test_case
          (Printf.sprintf "%s: %s" label e.Scan.Op_registry.name)
          `Quick (f e))
      (Scan.Op_registry.all ())
  in
  Alcotest.run "trace"
    [
      ("domain-identity", per_op "domains 1=4" test_domain_identity);
      ("consistency", per_op "check+validate" test_consistency);
      ( "export",
        [
          Alcotest.test_case "span accounting" `Quick test_span_accounting;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "occupancy bounds" `Quick test_occupancy_bounds;
          Alcotest.test_case "allocation per event and number" `Quick
            test_export_allocation;
        ] );
      ( "check",
        [
          Alcotest.test_case "each violation's message" `Quick test_check_failures;
          Alcotest.test_case "first violation reported" `Quick
            test_check_first_violation;
        ] );
      ( "summary",
        [
          Alcotest.test_case "overlap = gauge: mcscan 64K" `Quick
            (test_overlap_agrees "mcscan");
          Alcotest.test_case "overlap = gauge: compress 64K" `Quick
            (test_overlap_agrees "compress");
          Alcotest.test_case "occupancy and bounding pinned" `Quick
            test_summary_pinned;
        ] );
      ( "stats",
        [
          Alcotest.test_case "combine launches" `Quick test_combine_launches;
          Alcotest.test_case "zero-time guards" `Quick test_zero_time_guards;
          Alcotest.test_case "recording off by default" `Quick
            test_recording_off_by_default;
        ] );
    ]
