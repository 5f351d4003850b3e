(* Degraded-mode execution tests: core health tracking, fault-aware
   re-sharding over surviving cores, watchdog deadlines and checkpointed
   batched scans.

   The central invariant: every multi-core kernel partitions its work
   purely from [(Block.idx, num_blocks)], so re-sharding over ANY
   surviving-core subset must be bit-identical to the healthy run and
   to the host reference — only the timeline stretches. *)

open Ascend

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let num_cores = Cost_model.default.Cost_model.num_ai_cores

let dev_with_kills kills =
  Device.create ~fault:(Fault.config ~seed:0 ~rate:0.0 ~kills ()) ()

(* ------------------------------------------------------------------ *)
(* Health monitor unit tests.                                         *)

let test_health_basics () =
  let h = Health.create ~num_cores:4 () in
  check_int "all alive" 4 (Health.num_alive h);
  Health.mark_dead h ~core:2;
  check_int "one dead" 3 (Health.num_alive h);
  check_bool "dead core not alive" false (Health.alive h 2);
  Alcotest.(check (list int)) "alive set" [ 0; 1; 3 ] (Health.alive_cores h);
  (* Idempotent: marking again records no second death. *)
  Health.mark_dead h ~core:2;
  check_int "one death record" 1 (List.length (Health.deaths h))

let test_health_kill_threshold () =
  let h = Health.create ~num_cores:4 ~kills:[ (1, 100.0) ] () in
  check_bool "alive before threshold" true (Health.alive h 1);
  Health.note_cycles h ~core:1 99.0;
  check_bool "still alive at 99" true (Health.alive h 1);
  Health.note_cycles h ~core:1 1.0;
  check_bool "dead at 100" false (Health.alive h 1);
  check_int "three survivors" 3 (Health.num_alive h);
  (* A kill at cycle 0 is dead before any work. *)
  let h0 = Health.create ~num_cores:4 ~kills:[ (0, 0.0) ] () in
  check_bool "cycle-0 kill pre-dead" false (Health.alive h0 0)

let test_health_quarantine () =
  let h = Health.create ~num_cores:4 ~quarantine_after:2 () in
  Health.note_fault h ~core:3 ~cycle:10.0;
  check_bool "one fault below budget" true (Health.alive h 3);
  (match Health.note_fault h ~core:3 ~cycle:20.0 with
  | () -> Alcotest.fail "expected Core_dead on quarantine"
  | exception Health.Core_dead { core; _ } -> check_int "raised core" 3 core);
  check_bool "quarantined" false (Health.alive h 3);
  match Health.deaths h with
  | [ (3, _, Health.Quarantined 2) ] -> ()
  | _ -> Alcotest.fail "expected a quarantine death record"

let test_parse_kill_spec () =
  let ok s = match Health.parse_kill_spec s with Ok v -> v | Error e -> Alcotest.fail e in
  let bad s =
    match Health.parse_kill_spec s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  Alcotest.(check (pair int (float 0.0))) "bare core" (3, 0.0) (ok "3");
  Alcotest.(check (pair int (float 0.0))) "core at cycle" (7, 5000.0) (ok "7@5000");
  List.iter bad [ "-1"; "3@-5"; "3@nan"; "3@inf"; "x"; "3@"; "@5"; "1@2@3"; "" ]

let test_parse_fault_spec () =
  let bad s =
    match Fault.parse_spec s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  (match Fault.parse_spec "42:0.001" with
  | Ok (42, rate) when rate = 0.001 -> ()
  | _ -> Alcotest.fail "rejected a valid spec");
  (* Satellite (a): negative seeds, out-of-range rates and non-integer
     seeds must all be rejected (the CLI exits 2 on these). *)
  List.iter bad
    [ "-1:0.5"; "3:1.5"; "3:-0.1"; "3:nan"; "3.5:0.1"; "x:0.1"; "3"; "3:0.1:9"; "" ]

(* ------------------------------------------------------------------ *)
(* Scheduler unit tests.                                              *)

let test_scheduler_healthy_plan () =
  let d = Device.create () in
  let p = Scheduler.plan d ~n:1000 in
  check_int "healthy plan = full grid" num_cores (Scheduler.blocks p);
  check_bool "not degraded" false (Scheduler.degraded p);
  check_int "chunk covers n" 1000
    (min 1000 (Scheduler.chunk p ~n:1000 ~grain:16 * Scheduler.blocks p))

let test_scheduler_degraded_plan () =
  let d = dev_with_kills [ (0, 0.0); (5, 0.0); (19, 0.0) ] in
  let p = Scheduler.plan d ~n:1000 in
  check_int "plan shrinks" (num_cores - 3) (Scheduler.blocks p);
  check_bool "degraded" true (Scheduler.degraded p);
  check_bool "dead cores excluded" false
    (List.exists (fun c -> c = 0 || c = 5 || c = 19) (Scheduler.alive p))

let test_scheduler_all_dead () =
  let d = dev_with_kills (List.init num_cores (fun c -> (c, 0.0))) in
  match Scheduler.plan d ~n:10 with
  | _ -> Alcotest.fail "expected All_cores_dead"
  | exception Health.All_cores_dead -> ()

(* ------------------------------------------------------------------ *)
(* Checkpoint unit tests.                                             *)

let test_checkpoint_pending () =
  let ck = Runtime.Checkpoint.create ~rows:10 in
  Alcotest.(check (list (pair int int)))
    "initial pending, granularity 4"
    [ (0, 4); (4, 8); (8, 10) ]
    (Runtime.Checkpoint.pending ck ~granularity:4);
  Runtime.Checkpoint.mark ck ~lo:4 ~hi:8;
  Alcotest.(check (list (pair int int)))
    "hole-aware pending"
    [ (0, 4); (8, 10) ]
    (Runtime.Checkpoint.pending ck ~granularity:4);
  check_int "done count" 4 (Runtime.Checkpoint.done_count ck);
  check_bool "not complete" false (Runtime.Checkpoint.complete ck);
  Runtime.Checkpoint.mark ck ~lo:0 ~hi:4;
  Runtime.Checkpoint.mark ck ~lo:8 ~hi:10;
  check_bool "complete" true (Runtime.Checkpoint.complete ck);
  check_int "three commits" 3 (Runtime.Checkpoint.commits ck);
  Alcotest.(check (list (pair int int)))
    "nothing pending" []
    (Runtime.Checkpoint.pending ck ~granularity:4)

(* ------------------------------------------------------------------ *)
(* Zero-failure path: the scheduler refactor must be invisible.       *)

let test_healthy_path_identical () =
  let n = 50000 in
  let data = Array.init n (fun i -> if i mod 37 = 0 then 1.0 else 0.0) in
  let d = Device.create () in
  let x = Device.of_array d Dtype.F16 ~name:"x" data in
  let y, st = Scan.Mcscan.run d x in
  check_int "full launch width" num_cores st.Stats.blocks;
  check_int "all cores used" num_cores st.Stats.cores_used;
  (match
     Scan.Scan_api.check_against_reference ~round:Fp16.round ~input:data
       ~output:y ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* A healthy device with a fault config behaves identically to one
     without: same result, same simulated time. *)
  let d2 = dev_with_kills [] in
  let x2 = Device.of_array d2 Dtype.F16 ~name:"x" data in
  let y2, st2 = Scan.Mcscan.run d2 x2 in
  check_bool "bit-identical" true
    (Array.init n (Global_tensor.get y) = Array.init n (Global_tensor.get y2));
  Alcotest.(check (float 0.0)) "time-identical" st.Stats.seconds st2.Stats.seconds

(* ------------------------------------------------------------------ *)
(* Mid-run kills: bit-identity and faithful death records.            *)

let test_mid_run_kill_bit_identical () =
  let n = 60000 in
  let data = Array.init n (fun i -> if (i + 5) mod 31 = 0 then 1.0 else 0.0) in
  List.iter
    (fun kill_cycle ->
      let d = dev_with_kills [ (3, kill_cycle) ] in
      let x = Device.of_array d Dtype.F16 ~name:"x" data in
      let y, _ = Scan.Mcscan.run d x in
      (match
         Scan.Scan_api.check_against_reference ~round:Fp16.round ~input:data
           ~output:y ()
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "kill@%g: %s" kill_cycle e);
      check_bool
        (Printf.sprintf "death recorded (kill@%g)" kill_cycle)
        true
        (Health.deaths (Device.health d) <> []
        || not (Health.alive (Device.health d) 3)))
    [ 100.0; 2000.0; 5000.0 ]

let test_mid_run_kill_matches_healthy_in_rounding_regime () =
  (* Once partial sums pass 2048 the fp16 grid spacing is 2.0 and the
     blocked kernel no longer matches the *sequential* reference
     bit-for-bit — a property of the rounding regime, independent of
     faults. The degraded-mode invariant is against the healthy run:
     a mid-run kill must reproduce it exactly, rounding noise and all. *)
  let n = 262144 in
  let data = Array.init n (fun i -> if i mod 53 = 0 then 1.0 else 0.0) in
  let run kills =
    let d = dev_with_kills kills in
    let x = Device.of_array d Dtype.F16 ~name:"x" data in
    let y, _ = Scan.Mcscan.run d x in
    (Array.init n (Global_tensor.get y), d)
  in
  let healthy, _ = run [] in
  let killed, d = run [ (3, 5000.0) ] in
  check_bool "kill fired" false (Health.alive (Device.health d) 3);
  check_bool "sums reach the rounding regime" true
    (healthy.(n - 1) > 2048.0);
  check_bool "bit-identical to healthy run" true (healthy = killed)

let test_quarantine_self_heals () =
  (* quarantine_after = 1: the very first injected fault kills its core
     BEFORE the corrupt payload lands, the block replays cleanly on a
     survivor — so a high fault rate still yields the exact result
     (unless every core dies, which this rate cannot reach). *)
  let n = 30000 in
  let data = Array.init n (fun i -> if i mod 41 = 0 then 1.0 else 0.0) in
  let d =
    Device.create
      ~fault:(Fault.config ~seed:7 ~rate:0.05 ~quarantine_after:1 ())
      ()
  in
  let x = Device.of_array d Dtype.F16 ~name:"x" data in
  let y, _ = Scan.Mcscan.run d x in
  (match
     Scan.Scan_api.check_against_reference ~round:Fp16.round ~input:data
       ~output:y ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self-heal failed: %s" e);
  check_bool "at least one quarantine" true
    (List.exists
       (fun (_, _, r) -> match r with Health.Quarantined _ -> true | _ -> false)
       (Health.deaths (Device.health d)))

(* ------------------------------------------------------------------ *)
(* Watchdog deadlines.                                                *)

let test_watchdog_fires () =
  let n = 200000 in
  let d = Device.create ~mode:Device.Cost_only ~deadline_cycles:500.0 () in
  let x = Device.alloc d Dtype.F16 n ~name:"x" in
  match Scan.Mcscan.run d x with
  | _ -> Alcotest.fail "expected Deadline_exceeded"
  | exception Launch.Deadline_exceeded { budget_cycles; spent_cycles; _ } ->
      check_bool "budget recorded" true (budget_cycles = 500.0);
      check_bool "overspend recorded" true (spent_cycles > 500.0)

let test_watchdog_generous_budget_passes () =
  let n = 50000 in
  let d = Device.create ~mode:Device.Cost_only ~deadline_cycles:1e9 () in
  let x = Device.alloc d Dtype.F16 n ~name:"x" in
  let _, st = Scan.Mcscan.run d x in
  check_int "completed" num_cores st.Stats.blocks

let test_resilient_absorbs_deadline () =
  (* A watchdog abort inside the resilient loop counts as a detection;
     with no recovery possible (the budget never grows) the report is
     not ok, but with a budget-free fallback the run degrades. *)
  let input = Array.init 30000 (fun i -> if i mod 37 = 0 then 1.0 else 0.0) in
  let tight () =
    let d = Device.create ~deadline_cycles:500.0 () in
    let x = Device.of_array d Dtype.F16 ~name:"x" input in
    Scan.Scan_api.run ~algo:(Scan.Scan_api.get "mcscan") d x
  in
  let loose () =
    let d = Device.create () in
    let x = Device.of_array d Dtype.F16 ~name:"x" input in
    Scan.Scan_api.run ~algo:(Scan.Scan_api.get "mcscan") d x
  in
  let validate y =
    Scan.Scan_api.check_against_reference ~round:Fp16.round ~input ~output:y ()
  in
  let r =
    Runtime.Resilient.run
      ~ctl:Runtime.Degrade_ctl.(create ~policy:(fixed ~max_attempts:2 ()) ())
      ~fallback:loose ~validate tight
  in
  check_bool "recovered via fallback" true r.Runtime.Resilient.ok;
  check_bool "degraded" true r.Runtime.Resilient.degraded;
  check_int "two aborted attempts detected" 2 r.Runtime.Resilient.detections

(* ------------------------------------------------------------------ *)
(* Property: bit-identity across ANY surviving-core subset.           *)

(* Generator: a sampled kill set of 1..19 distinct cores (at least one
   survivor) plus a kill cycle regime (0 = pre-dead, else mid-run). *)
let arb_kill_set =
  let gen =
    QCheck.Gen.(
      let* k = int_range 1 (num_cores - 1) in
      let perm = Array.init num_cores Fun.id in
      let* () = shuffle_a perm in
      let* cycle = oneofl [ 0.0; 500.0; 3000.0 ] in
      return (Array.to_list (Array.sub perm 0 k), cycle))
  in
  QCheck.make
    ~print:(fun (cores, cyc) ->
      Printf.sprintf "kill %s @ %g"
        (String.concat "," (List.map string_of_int cores))
        cyc)
    gen

let scan_input = Array.init 30000 (fun i -> if i mod 37 = 0 then 1.0 else 0.0)

let flags_input =
  Array.init 30000 (fun i -> if (i * 7) mod 13 < 2 then 1.0 else 0.0)

let degraded_device (cores, cycle) =
  dev_with_kills (List.map (fun c -> (c, cycle)) cores)

let prop_mcscan_any_subset =
  QCheck.Test.make ~name:"mcscan bit-identical on any surviving subset"
    ~count:25 arb_kill_set (fun ks ->
      let d = degraded_device ks in
      let x = Device.of_array d Dtype.F16 ~name:"x" scan_input in
      let y, _ = Scan.Mcscan.run d x in
      Scan.Scan_api.check_against_reference ~round:Fp16.round ~input:scan_input
        ~output:y ()
      = Ok ())

let prop_scan_algos_any_subset =
  QCheck.Test.make ~name:"scanu/scanul1/tcu bit-identical on any subset"
    ~count:10 arb_kill_set (fun ks ->
      List.for_all
        (fun algo ->
          let d = degraded_device ks in
          let x = Device.of_array d Dtype.F16 ~name:"x" scan_input in
          let y, _ = Scan.Scan_api.run ~algo d x in
          Scan.Scan_api.check_against_reference ~round:Fp16.round
            ~input:scan_input ~output:y ()
          = Ok ())
        [ (Scan.Scan_api.get "scanu"); (Scan.Scan_api.get "scanul1"); (Scan.Scan_api.get "tcu") ])

let prop_segmented_any_subset =
  QCheck.Test.make ~name:"segmented scan bit-identical on any subset"
    ~count:15 arb_kill_set (fun ks ->
      let d = degraded_device ks in
      let x = Device.of_array d Dtype.F16 ~name:"x" scan_input in
      let flags = Device.of_array d Dtype.I8 ~name:"f" flags_input in
      let y, _ = Scan.Segmented_scan.run d ~x ~flags () in
      let expect =
        (* Host oracle: running sum resetting at raised flags. *)
        let acc = ref 0.0 in
        Array.mapi
          (fun i v ->
            if flags_input.(i) <> 0.0 then acc := 0.0;
            acc := !acc +. v;
            !acc)
          scan_input
      in
      Array.init (Array.length scan_input) (Global_tensor.get y) = expect)

let prop_max_scan_any_subset =
  QCheck.Test.make ~name:"max scan bit-identical on any subset" ~count:15
    arb_kill_set (fun ks ->
      let d = degraded_device ks in
      let x = Device.of_array d Dtype.F16 ~name:"x" scan_input in
      let y, _ = Scan.Max_scan.run d x in
      let expect =
        let acc = ref neg_infinity in
        Array.map
          (fun v ->
            acc := Float.max !acc v;
            !acc)
          scan_input
      in
      Array.init (Array.length scan_input) (Global_tensor.get y) = expect)

let prop_split_any_subset =
  QCheck.Test.make ~name:"split bit-identical on any subset" ~count:15
    arb_kill_set (fun ks ->
      let d = degraded_device ks in
      let x = Device.of_array d Dtype.F16 ~name:"x" scan_input in
      let flags = Device.of_array d Dtype.I8 ~name:"f" flags_input in
      let r = Ops.Split.run d ~x ~flags () in
      let expect, _ = Scan.Reference.split scan_input ~flags:flags_input in
      Array.init (Array.length scan_input)
        (Global_tensor.get r.Ops.Split.values)
      = expect)

let prop_batched_any_subset =
  QCheck.Test.make ~name:"batched scans bit-identical on any subset" ~count:10
    arb_kill_set (fun ks ->
      let batch = 6 and len = 3000 in
      let data =
        Array.init (batch * len) (fun i -> if i mod 31 = 0 then 1.0 else 0.0)
      in
      let expect =
        Scan.Reference.batched_inclusive ~round:Fp16.round ~batch ~len data
      in
      List.for_all
        (fun run ->
          let d = degraded_device ks in
          let x = Device.of_array d Dtype.F16 ~name:"x" data in
          let y, _ = run d ~batch ~len x in
          Array.init (batch * len) (Global_tensor.get y) = expect)
        [ (fun d ~batch ~len x -> Scan.Batched_scan.run_u d ~batch ~len x);
          (fun d ~batch ~len x -> Scan.Batched_scan.run_ul1 d ~batch ~len x) ])

(* ------------------------------------------------------------------ *)
(* Checkpointed batched scan end-to-end.                              *)

let test_checkpointed_batched_with_kill () =
  let batch = 16 and len = 4096 in
  let input =
    Array.init (batch * len) (fun i -> if i mod 41 = 0 then 1.0 else 0.0)
  in
  let d = dev_with_kills [ (0, 2000.0) ] in
  let r =
    Runtime.Resilient.batched_scan ~granularity:4 d ~batch ~len ~input
  in
  check_bool "complete" true r.Runtime.Resilient.bok;
  check_int "all rows" batch
    (Runtime.Checkpoint.done_count r.Runtime.Resilient.checkpoint);
  let expect =
    Scan.Reference.batched_inclusive ~round:Fp16.round ~batch ~len input
  in
  check_bool "bit-identical" true
    (Array.init (batch * len) (Global_tensor.get r.Runtime.Resilient.y)
    = expect)

let test_checkpointed_batched_replays_only_pending () =
  (* Under transient corruption the failed groups are retried; rows
     already checkpointed are never re-executed, so replayed_rows stays
     strictly below group_attempts * granularity. *)
  let batch = 16 and len = 2048 in
  let input =
    Array.init (batch * len) (fun i -> if i mod 29 = 0 then 1.0 else 0.0)
  in
  let d = Device.create ~fault:(Fault.config ~seed:9 ~rate:0.02 ()) () in
  let r =
    Runtime.Resilient.batched_scan ~granularity:4
      ~ctl:
        Runtime.Degrade_ctl.(
          create ~policy:(fixed ~max_attempts:6 ~backoff_s:1e-7 ()) ())
      d ~batch ~len ~input
  in
  check_bool "complete despite faults" true r.Runtime.Resilient.bok;
  check_bool "some groups retried" true (r.Runtime.Resilient.group_attempts > 4);
  check_bool "retries folded into stats" true
    (r.Runtime.Resilient.bstats.Stats.retries
    = r.Runtime.Resilient.group_attempts
      - Runtime.Checkpoint.commits r.Runtime.Resilient.checkpoint);
  let expect =
    Scan.Reference.batched_inclusive ~round:Fp16.round ~batch ~len input
  in
  check_bool "bit-identical" true
    (Array.init (batch * len) (Global_tensor.get r.Runtime.Resilient.y)
    = expect)

let () =
  Alcotest.run "degraded"
    [
      ( "health",
        [
          Alcotest.test_case "basics" `Quick test_health_basics;
          Alcotest.test_case "kill threshold" `Quick test_health_kill_threshold;
          Alcotest.test_case "quarantine" `Quick test_health_quarantine;
          Alcotest.test_case "parse kill spec" `Quick test_parse_kill_spec;
          Alcotest.test_case "parse fault spec" `Quick test_parse_fault_spec;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "healthy plan" `Quick test_scheduler_healthy_plan;
          Alcotest.test_case "degraded plan" `Quick test_scheduler_degraded_plan;
          Alcotest.test_case "all dead" `Quick test_scheduler_all_dead;
        ] );
      ( "checkpoint",
        [ Alcotest.test_case "pending groups" `Quick test_checkpoint_pending ] );
      ( "identity",
        [
          Alcotest.test_case "healthy path" `Quick test_healthy_path_identical;
          Alcotest.test_case "mid-run kill" `Quick
            test_mid_run_kill_bit_identical;
          Alcotest.test_case "mid-run kill, rounding regime" `Quick
            test_mid_run_kill_matches_healthy_in_rounding_regime;
          Alcotest.test_case "quarantine self-heals" `Quick
            test_quarantine_self_heals;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "fires" `Quick test_watchdog_fires;
          Alcotest.test_case "generous budget" `Quick
            test_watchdog_generous_budget_passes;
          Alcotest.test_case "resilient absorbs" `Quick
            test_resilient_absorbs_deadline;
        ] );
      ( "subset-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mcscan_any_subset;
            prop_scan_algos_any_subset;
            prop_segmented_any_subset;
            prop_max_scan_any_subset;
            prop_split_any_subset;
            prop_batched_any_subset;
          ] );
      ( "checkpointed-batched",
        [
          Alcotest.test_case "kill mid-batch" `Quick
            test_checkpointed_batched_with_kill;
          Alcotest.test_case "replays only pending" `Quick
            test_checkpointed_batched_replays_only_pending;
        ] );
    ]
