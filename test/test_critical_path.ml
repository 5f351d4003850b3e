(* Critical-path profiler tests.

   The contracts under test:
   - reconstruction: the critical-path length recomputed from the
     exported trace bytes (spans + flow edges) is bit-identical to the
     engine-model block makespan, for every registered operator under
     every pipeline schedule (Serial / Double / Triple) — checked both
     exhaustively at a fixed size and as a QCheck property over random
     input lengths;
   - one data model: [of_trace] of a recording equals [of_json] of its
     export, as whole values and as report bytes, for every registered
     operator under every schedule and for a run with a core killed;
   - the analysis itself: a hand-built diamond DAG produces the known
     critical path and the known per-span slack values;
   - derived outputs: the profile report is byte-identical across host
     domain counts;
   - prediction: the pipeline what-if, run on a serial MCScan trace,
     lands within 5 points of the measured serial -> triple gain. *)

open Ascend

let () = Ops.Ops_registry.install ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let n = 1024
let schedules = Scan.Scan_core.[ Serial; Double; Triple ]

let trace_of ?(n = n) ?(domains = 1) entry ~schedule =
  Scan.Scan_core.with_schedule schedule (fun () ->
      match Workload.Op_driver.run ~n ~domains entry with
      | Ok (_, Some tr) -> tr
      | Ok (_, None) -> Alcotest.fail "driver returned no trace"
      | Error msg ->
          Alcotest.failf "%s: %s" entry.Scan.Op_registry.name msg)

let profile_of tr =
  match Obs.Critical_path.of_json (Obs.Chrome_trace.json tr) with
  | Ok p -> p
  | Error msg -> Alcotest.failf "profile failed: %s" msg

(* Engine-model elapsed cycles per block, phase-major in block order —
   the ground truth the profiler must reproduce from the bytes. Blocks
   that issued nothing (idle tail blocks of a launch wider than the
   work) export no spans and are invisible to the profiler. *)
let recorded_makespans tr =
  List.concat_map
    (fun (l : Trace.launch_rec) ->
      List.concat_map
        (fun (p : Trace.phase_rec) ->
          List.filter_map
            (fun (b : Trace.block_rec) ->
              if b.Trace.b_spans = [] then None else Some b.Trace.b_cycles)
            p.Trace.ph_blocks)
        l.Trace.ln_phases)
    (Trace.launches tr)

let profiled_makespans (p : Obs.Critical_path.t) =
  Obs.Critical_path.(
    List.concat_map
      (fun l ->
        List.concat_map
          (fun ph -> List.map (fun b -> b.bk_cycles) ph.ph_blocks)
          l.ln_phases)
      p.launches)

let bits = Int64.bits_of_float
let same_float a b = Int64.equal (bits a) (bits b)

(* The reconstruction contract, as an assertion usable from both the
   exhaustive matrix and the QCheck property: every block's recomputed
   critical-path length equals the recorded makespan bitwise. *)
let assert_cp_equals_makespan ~what tr =
  let p = profile_of tr in
  let recorded = List.sort Float.compare (recorded_makespans tr) in
  let got = List.sort Float.compare (profiled_makespans p) in
  if List.length recorded <> List.length got then
    Alcotest.failf "%s: %d recorded blocks, %d profiled" what
      (List.length recorded) (List.length got);
  List.iter2
    (fun r g ->
      if not (same_float r g) then
        Alcotest.failf "%s: block makespan %h reconstructed as %h" what r g)
    recorded got;
  check_bool (what ^ ": blocks profiled") true (recorded <> []);
  check_bool (what ^ ": critical path non-empty") true
    (p.Obs.Critical_path.cp_spans > 0)

let test_cp_matrix (entry : Scan.Op_registry.entry) schedule () =
  let what =
    Printf.sprintf "%s/%s" entry.Scan.Op_registry.name
      (Scan.Scan_core.schedule_name schedule)
  in
  assert_cp_equals_makespan ~what (trace_of entry ~schedule)

(* ------------------------------------------------------------------ *)
(* QCheck: the contract holds at arbitrary input lengths.             *)

let prop_cp_equals_makespan =
  let entries = Array.of_list (Scan.Op_registry.all ()) in
  let gen =
    QCheck.make
      ~print:(fun (i, s, n) ->
        Printf.sprintf "%s/%s n=%d" entries.(i).Scan.Op_registry.name
          (Scan.Scan_core.schedule_name (List.nth schedules s))
          n)
      QCheck.Gen.(
        triple (int_bound (Array.length entries - 1)) (int_bound 2)
          (int_range 16 2048))
  in
  QCheck.Test.make ~count:15 ~name:"cp = makespan (random op/schedule/n)" gen
    (fun (i, s, n) ->
      let entry = entries.(i) in
      let schedule = List.nth schedules s in
      let what =
        Printf.sprintf "%s/%s n=%d" entry.Scan.Op_registry.name
          (Scan.Scan_core.schedule_name schedule)
          n
      in
      assert_cp_equals_makespan ~what (trace_of ~n entry ~schedule);
      true)

(* ------------------------------------------------------------------ *)
(* Diamond fixture: a -> {b, c} -> d with known path and slack.       *)

(*   a (vec, 0..10) -> b (mte_in, 10..30)  -> d (vec, 30..40)
                    \-> c (mte_out, 10..15) -/
   Critical path a, b, d (makespan 40); only c has slack (15). *)
let diamond_trace () =
  let tr = Trace.create () in
  let b = Trace.block_builder ~idx:0 ~core:0 in
  let span ~track ~engine ~queue ~op ~start ~cycles =
    Trace.Block_builder.span b ~track ~engine ~queue ~op ~start ~cycles
      ~bytes:0
  in
  let a = span ~track:0 ~engine:"vec0" ~queue:"V" ~op:"a" ~start:0.0 ~cycles:10.0 in
  let bb =
    span ~track:1 ~engine:"vec0.mte_in" ~queue:"MTE2" ~op:"b" ~start:10.0
      ~cycles:20.0
  in
  let c =
    span ~track:2 ~engine:"vec0.mte_out" ~queue:"MTE3" ~op:"c" ~start:10.0
      ~cycles:5.0
  in
  let d = span ~track:0 ~engine:"vec0" ~queue:"V" ~op:"d" ~start:30.0 ~cycles:10.0 in
  Trace.Block_builder.edge b ~kind:Trace.Lane ~src:a ~dst:bb;
  Trace.Block_builder.edge b ~kind:Trace.Lane ~src:a ~dst:c;
  Trace.Block_builder.edge b ~kind:Trace.Group ~src:bb ~dst:d;
  Trace.Block_builder.edge b ~kind:Trace.Group ~src:c ~dst:d;
  let br = Trace.Block_builder.finish b ~cycles:40.0 in
  let clock = Trace.clock_hz tr in
  let seconds = 40.0 /. clock in
  let phase =
    {
      Stats.compute_seconds = seconds;
      bandwidth_seconds = 0.0;
      seconds;
      gm_bytes = 0;
      footprint_bytes = 0;
      bandwidth_bound = false;
    }
  in
  Trace.record_launch tr ~name:"diamond" ~seconds ~latency_cycles:0.0
    ~sync_cycles:0.0 ~phases:[ (phase, [ br ]) ];
  (tr, (a, bb, c, d))

let test_diamond () =
  let tr, (a, bb, c, d) = diamond_trace () in
  (match Trace.check tr with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fixture trace inconsistent: %s" msg);
  let p = profile_of tr in
  let blk =
    match profiled_makespans p with
    | [ _ ] ->
        Obs.Critical_path.(
          List.hd (List.hd (List.hd p.launches).ln_phases).ph_blocks)
    | l -> Alcotest.failf "expected 1 block, profiled %d" (List.length l)
  in
  check_bool "makespan 40" true (same_float 40.0 blk.Obs.Critical_path.bk_cycles);
  (* Profiled span ids are the recorder's block-local ones. *)
  Alcotest.(check (list int))
    "critical path is a -> b -> d" [ a; bb; d ] blk.Obs.Critical_path.bk_cp;
  Alcotest.(check (list string))
    "spans in id order" [ "a"; "b"; "c"; "d" ]
    (Array.to_list
       (Array.map (fun s -> s.Trace.sp_op) blk.Obs.Critical_path.bk_spans));
  (* Slack aligns with bk_spans, which ids index. *)
  let slack_of id = blk.Obs.Critical_path.bk_slack.(id) in
  List.iter
    (fun (label, id, expect) ->
      let got = slack_of id in
      if not (same_float expect got) then
        Alcotest.failf "slack(%s): expected %g, got %g" label expect got)
    [ ("a", a, 0.0); ("b", bb, 0.0); ("c", c, 15.0); ("d", d, 0.0) ];
  check_int "cp spans counted" 3 p.Obs.Critical_path.cp_spans

(* ------------------------------------------------------------------ *)
(* A live recording and its Chrome export profile to the same value:
   the decoder hands the builder the recorder's own records, blocks by
   occurrence, edges in recording order.                              *)

let check_live_equals_file ~what tr =
  let live =
    match Obs.Critical_path.of_trace tr with
    | Ok p -> p
    | Error msg -> Alcotest.failf "%s: of_trace: %s" what msg
  in
  let file = profile_of tr in
  let report p = Obs.Jsonw.to_string (Obs.Critical_path.report p) in
  check_string (what ^ ": report bytes") (report file) (report live);
  check_bool (what ^ ": profile values") true (compare live file = 0)

let test_live_equals_file schedule () =
  List.iter
    (fun (e : Scan.Op_registry.entry) ->
      check_live_equals_file ~what:e.Scan.Op_registry.name (trace_of e ~schedule))
    (Scan.Op_registry.all ())

(* A core killed mid-run appends its partial blocks after the phase's
   full set, so the file lists blocks out of occurrence order. *)
let test_live_equals_file_killed () =
  let entry = Option.get (Scan.Op_registry.find "scanu") in
  let n = 30000 in
  let dev =
    Device.create ~fault:(Fault.config ~seed:0 ~rate:0.0 ~kills:[ (0, 3000.0) ] ()) ()
  in
  let tr = Device.arm_trace dev in
  (match
     Scan.Op_registry.run entry
       (Workload.Op_driver.config_for entry ~n ~s:None)
       dev
       (Workload.Op_driver.input entry dev ~n)
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "scanu: %s" msg);
  check_bool "core 0 died" false (Health.alive (Device.health dev) 0);
  check_live_equals_file ~what:"scanu, core 0 killed at 3000" tr

(* ------------------------------------------------------------------ *)
(* Profile report bytes are host-domain independent.                  *)

let test_report_domain_identity () =
  let entry = Option.get (Scan.Op_registry.find "mcscan") in
  let report ~domains =
    let tr = trace_of ~domains entry ~schedule:Scan.Scan_core.Triple in
    Obs.Jsonw.to_string (Obs.Critical_path.report (profile_of tr))
  in
  let r1 = report ~domains:1 in
  check_string "report identical across domains 1/2" r1 (report ~domains:2);
  check_string "report identical across domains 1/4" r1 (report ~domains:4)

(* ------------------------------------------------------------------ *)
(* What the trace readers take from the bytes is pinned: the schema
   check's counts and the profile report, for the three profile-64k
   kernels at 2^12. A reader that skipped or re-read a member would
   change one of them. *)

(* name, (events, spans, instants, flows, processes), MD5 of the
   report. *)
let pinned_profiles =
  [
    ("mcscan", (250, 79, 1, 75, 2), "2ae815c07236612bb87abcd30b16ed0d");
    ("compress", (1294, 363, 1, 319, 21), "afb73b0bd448d2d09a6ff4439fa138b2");
    ("weighted_sampling", (3108, 926, 2, 944, 21), "ae0cc5a1b810003917288cc7cedee5e7");
  ]

let test_profiles_pinned () =
  List.iter
    (fun (name, (events, spans, instants, flows, processes), md5) ->
      let entry = Option.get (Scan.Op_registry.find name) in
      let tr =
        match Workload.Op_driver.run ~n:4096 entry with
        | Ok (_, Some tr) -> tr
        | _ -> Alcotest.failf "%s: no trace" name
      in
      let doc = Obs.Chrome_trace.json tr in
      (match Obs.Chrome_trace.validate doc with
      | Ok c ->
          check_int (name ^ " events") events c.Obs.Chrome_trace.events;
          check_int (name ^ " spans") spans c.spans;
          check_int (name ^ " instants") instants c.instants;
          check_int (name ^ " flows") flows c.flows;
          check_int (name ^ " processes") processes c.processes
      | Error e -> Alcotest.failf "%s: %s" name e);
      match Obs.Critical_path.of_json doc with
      | Ok p ->
          check_string (name ^ " report md5") md5
            (Digest.to_hex (Digest.string (Obs.Jsonw.to_string (Obs.Critical_path.report p))))
      | Error e -> Alcotest.failf "%s: %s" name e)
    pinned_profiles

(* ------------------------------------------------------------------ *)
(* The pipeline what-if, from a serial trace's bytes alone, predicts
   the measured serial -> triple MCScan gain within 5 points. The
   gain is over per-phase compute cycles, the quantity test_pipeline
   pins; launch latency and SyncAll do not depend on the schedule. *)

(* n, predicted triple compute cycles. *)
let pinned_predictions = [ (65536, 6008); (262144, 6008); (1048576, 18332) ]

let mcscan_compute_cycles ~schedule ~traced n =
  Scan.Scan_core.with_schedule schedule (fun () ->
      let dev = Device.create () in
      if traced then ignore (Device.arm_trace dev);
      let x =
        Device.of_array dev Dtype.F16 ~name:"bx"
          (Array.init n (fun i -> if i mod 37 = 0 then 1.0 else 0.0))
      in
      let st = snd (Scan.Mcscan.run dev x) in
      let clock_hz = (Device.cost dev).Cost_model.clock_hz in
      ( List.fold_left
          (fun acc (p : Stats.phase) -> acc +. (p.Stats.compute_seconds *. clock_hz))
          0.0 st.Stats.phases,
        Device.trace dev ))

let test_whatif_predicts_pipeline_gain () =
  List.iter
    (fun (n, pinned) ->
      let serial, tr =
        mcscan_compute_cycles ~schedule:Scan.Scan_core.Serial ~traced:true n
      in
      let triple, _ =
        mcscan_compute_cycles ~schedule:Scan.Scan_core.Triple ~traced:false n
      in
      let p =
        profile_of
          (match tr with
          | Some tr -> tr
          | None -> Alcotest.fail "serial run recorded no trace")
      in
      let reconstructed =
        Obs.Whatif.predict_compute_cycles p
          (Obs.Whatif.Speedup { label = "baseline"; queues = []; factor = 1.0 })
      in
      check_bool
        (Printf.sprintf "n=%d: reconstructed serial %.1f within 0.5 of %.1f" n
           reconstructed serial)
        true
        (Float.abs (reconstructed -. serial) <= 0.5);
      let predicted = Obs.Whatif.predict_compute_cycles p Obs.Whatif.Pipeline in
      check_int
        (Printf.sprintf "n=%d: predicted cycles" n)
        pinned
        (int_of_float (Float.round predicted));
      let measured_gain = 100.0 *. (1.0 -. (triple /. serial))
      and predicted_gain = 100.0 *. (1.0 -. (predicted /. serial)) in
      check_bool
        (Printf.sprintf "n=%d: predicted %.2f%% within 5 points of measured \
                         %.2f%%" n predicted_gain measured_gain)
        true
        (Float.abs (predicted_gain -. measured_gain) <= 5.0))
    pinned_predictions

(* ------------------------------------------------------------------ *)

let () =
  let matrix =
    List.concat_map
      (fun (e : Scan.Op_registry.entry) ->
        List.map
          (fun schedule ->
            Alcotest.test_case
              (Printf.sprintf "%s/%s" e.Scan.Op_registry.name
                 (Scan.Scan_core.schedule_name schedule))
              `Quick (test_cp_matrix e schedule))
          schedules)
      (Scan.Op_registry.all ())
  in
  Alcotest.run "critical_path"
    [
      ("cp=makespan", matrix);
      ( "trace=json",
        List.map
          (fun schedule ->
            Alcotest.test_case (Scan.Scan_core.schedule_name schedule) `Quick
              (test_live_equals_file schedule))
          schedules
        @ [ Alcotest.test_case "core killed" `Quick test_live_equals_file_killed ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_cp_equals_makespan ]);
      ( "analysis",
        [
          Alcotest.test_case "diamond dag" `Quick test_diamond;
          Alcotest.test_case "report domain identity" `Quick
            test_report_domain_identity;
          Alcotest.test_case "profiles pinned" `Quick test_profiles_pinned;
          Alcotest.test_case "what-if predicts pipeline gain" `Quick
            test_whatif_predicts_pipeline_gain;
        ] );
    ]
