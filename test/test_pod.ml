(* Tests of the pod subsystem: link fault/retry behaviour, the
   distributed scan's placement-invariance contract (bit-identical
   output and stats across pod sizes and surviving-device subsets),
   the pod chaos DSL verbs, the checkpoint-store version guard, and
   the checkpointed pod runner (device kill, and the pod-partition
   scenario crashed and resumed). *)

open Ascend

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let bytes_of y =
  Array.init (Global_tensor.length y) (fun i ->
      Int64.bits_of_float (Global_tensor.get y i))

(* Sparse 0/1 rows keep every partial sum exactly representable in
   fp16, so the distributed scan must equal the single-device scan bit
   for bit (the same contract the blocked-scan tests rely on). *)
let gen_input n seed = Array.init n (fun i -> if (i + seed) mod 7 = 0 then 1.0 else 0.0)
let sparse_53 n = Array.init n (fun i -> if i mod 53 = 0 then 1.0 else 0.0)

let single_device_scan input =
  let device = Device.create ~mode:Device.Functional () in
  let x = Device.of_array device Dtype.F16 ~name:"x" input in
  Scan.Mcscan.run device x

let dist_scan_on ?schedule ~devices ~kill input =
  let pod = Pod.create ~devices () in
  List.iter (Pod.kill_device pod) kill;
  let x = Device.of_array (Pod.primary pod) Dtype.F16 ~name:"x" input in
  Scan.Dist_scan.run ?schedule pod x

(* --- link model ----------------------------------------------------- *)

let test_link_delivers_and_charges () =
  let l = Pod.Link.create ~seed:1 ~src:0 ~dst:1 () in
  let o = Pod.Link.send l ~bytes:1024 in
  check_bool "delivered" true o.Pod.Link.delivered;
  check_int "one attempt" 1 o.Pod.Link.attempts;
  check_bool "time charged" true (o.Pod.Link.seconds > 0.0);
  check_int "counted" 1 (Pod.Link.sends l)

let test_link_faults_are_deterministic () =
  let run () =
    let cfg = { Pod.Link.default_config with Pod.Link.fault_rate = 0.4 } in
    let l = Pod.Link.create ~config:cfg ~seed:7 ~src:0 ~dst:1 () in
    List.init 50 (fun _ ->
        let o = Pod.Link.send l ~bytes:256 in
        (o.Pod.Link.delivered, o.Pod.Link.attempts))
  in
  check_bool "same fault stream" true (run () = run ())

let test_link_quarantines_after_exhaustion () =
  let cfg =
    {
      Pod.Link.default_config with
      Pod.Link.fault_rate = 1.0;
      fault_kinds = [ Pod.Link.Drop ];
      max_attempts = 2;
      quarantine_after = 2;
    }
  in
  let l = Pod.Link.create ~config:cfg ~seed:3 ~src:0 ~dst:1 () in
  let o1 = Pod.Link.send l ~bytes:64 in
  check_bool "exhausted" true (not o1.Pod.Link.delivered);
  ignore (Pod.Link.send l ~bytes:64);
  check_bool "quarantined" true (Pod.Link.quarantined l);
  (* Quarantined links fail fast without burning attempts. *)
  let o3 = Pod.Link.send l ~bytes:64 in
  check_int "fail-fast" 0 o3.Pod.Link.attempts

let test_link_crc_detects_corruption () =
  let cfg =
    {
      Pod.Link.default_config with
      Pod.Link.fault_rate = 1.0;
      fault_kinds = [ Pod.Link.Corrupt ];
      max_attempts = 4;
    }
  in
  let l = Pod.Link.create ~config:cfg ~seed:5 ~src:0 ~dst:1 () in
  ignore (Pod.Link.send l ~bytes:128);
  check_bool "every corruption detected" true (Pod.Link.crc_detected l > 0)

(* The one CRC-32 (links and the checkpoint store): the standard
   check value of IEEE 802.3 CRC-32 over the ASCII digits 1..9. *)
let test_crc32_check_value () =
  check_int "crc32 \"123456789\"" 0xCBF43926
    (Pod.Link.crc32 (Bytes.of_string "123456789"));
  check_int "crc32 \"\"" 0 (Pod.Link.crc32 Bytes.empty)

(* --- pod construction and routing ----------------------------------- *)

let test_pod_rejects_zero_devices () =
  Alcotest.check_raises "devices=0"
    (Invalid_argument "Pod.create: devices must be >= 1 (got 0)") (fun () ->
      ignore (Pod.create ~devices:0 ()))

let test_send_reroutes_around_down_link () =
  let pod = Pod.create ~devices:3 () in
  Pod.Link.set_down (Pod.link pod ~src:0 ~dst:1) true;
  let s = Pod.send pod ~src:0 ~dst:1 ~bytes:64 ~label:"t" in
  check_bool "rerouted via relay" true (s.Pod.snd_via = Some 2);
  check_int "reroute counted" 1 (Pod.reroutes pod)

let test_send_raises_partitioned () =
  let pod = Pod.create ~devices:2 () in
  Pod.Link.set_down (Pod.link pod ~src:0 ~dst:1) true;
  Alcotest.check_raises "no route"
    (Pod.Partitioned { src = 0; dst = 1 })
    (fun () -> ignore (Pod.send pod ~src:0 ~dst:1 ~bytes:64 ~label:"t"))

(* --- distributed scan: placement invariance -------------------------- *)

let prop_dist_equals_single =
  let arb =
    QCheck.make
      ~print:(fun (n, seed, d) -> Printf.sprintf "n=%d seed=%d devices=%d" n seed d)
      QCheck.Gen.(
        triple (int_range 1 3000) (int_range 0 100) (int_range 1 8))
  in
  QCheck.Test.make ~name:"dist_scan(d devices) = single-device scan" ~count:40
    arb (fun (n, seed, d) ->
      let input = gen_input n seed in
      let yref, _ = single_device_scan input in
      let r = dist_scan_on ~devices:d ~kill:[] input in
      bytes_of yref = bytes_of r.Scan.Dist_scan.y)

let prop_dist_survives_subset =
  let arb =
    QCheck.make
      ~print:(fun (n, seed, mask) -> Printf.sprintf "n=%d seed=%d mask=%d" n seed mask)
      QCheck.Gen.(
        triple (int_range 1 2000) (int_range 0 100) (int_range 0 14))
  in
  (* mask picks a proper subset of a 4-device pod to kill (never all
     four): output AND placement-invariant stats must match the
     full-pod run exactly. *)
  QCheck.Test.make
    ~name:"dist_scan bit-identical for any surviving subset" ~count:40 arb
    (fun (n, seed, mask) ->
      let input = gen_input n seed in
      let full = dist_scan_on ~devices:4 ~kill:[] input in
      let kill = List.filter (fun d -> mask land (1 lsl d) <> 0) [ 0; 1; 2; 3 ] in
      let part = dist_scan_on ~devices:4 ~kill input in
      bytes_of full.Scan.Dist_scan.y = bytes_of part.Scan.Dist_scan.y
      && Stats.equal_simulated full.Scan.Dist_scan.stats
           part.Scan.Dist_scan.stats)

let test_dist_all_dead_raises () =
  let pod = Pod.create ~devices:2 () in
  Pod.kill_device pod 0;
  Pod.kill_device pod 1;
  let x = Device.of_array (Pod.primary pod) Dtype.F16 ~name:"x" (gen_input 64 0) in
  Alcotest.check_raises "no survivors" Health.All_cores_dead (fun () ->
      ignore (Scan.Dist_scan.run pod x))

(* Ring and all-gather fold in shard order, so their bytes agree at
   every pod size; all-gather pays in link traffic. *)
let test_schedules_agree () =
  List.iter
    (fun (d, input) ->
      let what = Printf.sprintf "d=%d n=%d" d (Array.length input) in
      let ring =
        dist_scan_on ~schedule:Scan.Dist_scan.Ring ~devices:d ~kill:[] input
      in
      let ag =
        dist_scan_on ~schedule:Scan.Dist_scan.All_gather ~devices:d ~kill:[]
          input
      in
      check_bool (what ^ ": outputs equal") true
        (bytes_of ring.Scan.Dist_scan.y = bytes_of ag.Scan.Dist_scan.y);
      check_bool (what ^ ": all-gather sends more") true
        (ag.Scan.Dist_scan.exchange_sends > ring.Scan.Dist_scan.exchange_sends))
    (List.concat_map
       (fun d -> [ (d, gen_input 1234 3); (d, sparse_53 32768) ])
       [ 2; 4; 8 ])

let test_link_faults_leave_output_intact () =
  let input = gen_input 999 4 in
  let clean = dist_scan_on ~devices:4 ~kill:[] input in
  let cfg = { Pod.Link.default_config with Pod.Link.fault_rate = 0.5 } in
  let pod = Pod.create ~devices:4 ~link_config:cfg ~seed:13 () in
  let x = Device.of_array (Pod.primary pod) Dtype.F16 ~name:"x" input in
  let noisy = Scan.Dist_scan.run pod x in
  check_bool "output unchanged by link faults" true
    (bytes_of clean.Scan.Dist_scan.y = bytes_of noisy.Scan.Dist_scan.y);
  check_bool "retries happened" true (noisy.Scan.Dist_scan.exchange_retries > 0)

(* --- registry entry -------------------------------------------------- *)

let test_registry_dist_scan () =
  let e =
    match Scan.Op_registry.find "dist_scan" with
    | Some e -> e
    | None -> Alcotest.fail "dist_scan not registered"
  in
  let input = gen_input 777 1 in
  let device = Device.create ~mode:Device.Functional () in
  let x = Device.of_array device Dtype.F16 ~name:"x" input in
  let cfg =
    { Scan.Op_registry.default_config with Scan.Op_registry.devices = Some 3 }
  in
  (match Scan.Op_registry.run e cfg device (Scan.Op_registry.Tensor x) with
  | Ok (out, _) ->
      let y = Option.get out.Scan.Op_registry.y in
      let yref, _ = single_device_scan input in
      check_bool "registry path bit-identical" true (bytes_of yref = bytes_of y)
  | Error e -> Alcotest.failf "registry run failed: %s" e);
  match
    Scan.Op_registry.run e
      { cfg with Scan.Op_registry.devices = Some 0 }
      device (Scan.Op_registry.Tensor x)
  with
  | Error msg ->
      check_string "validation message" "devices: device count must be >= 1 (got 0)" msg
  | Ok _ -> Alcotest.fail "devices=0 accepted"

(* --- chaos DSL: pod verbs -------------------------------------------- *)

let parse_ok text =
  match Runtime.Chaos.parse text with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let parse_err text =
  match Runtime.Chaos.parse text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

let test_parse_pod_verbs () =
  let sc =
    parse_ok
      "name podsc\nseed 2\nat launch 1 kill device=3\nat launch 2 link src=0 dst=1 for=2\n"
  in
  check_int "two events" 2 (List.length sc.Runtime.Chaos.sc_events)

let test_parse_pod_errors () =
  let has needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let e1 = parse_err "name x\nat launch 1 kill core=1 device=2\n" in
  check_bool "kill exactly-one" true (has "exactly one of core=C or device=D" e1);
  let e2 = parse_err "name x\nat launch 1 kill\n" in
  check_bool "kill missing arg" true (has "core=C or device=D" e2);
  let e3 = parse_err "name x\nat launch 1 link src=0 for=1\n" in
  check_bool "link missing dst" true (has "dst" e3);
  let e4 = parse_err "name x\nat launch 1 link src=1 dst=1 for=1\n" in
  check_bool "link self-loop" true (has "src" e4)

let test_chaos_kills_pod_device () =
  let sc = parse_ok "name k\nseed 1\nat launch 0 kill device=1\n" in
  let ch = Runtime.Chaos.arm ~on_crash:(fun _ -> ()) sc in
  let pod = Pod.create ~devices:3 () in
  Runtime.Chaos.before_launch_pod ch pod ~launch_index:0 ~elapsed_s:0.0;
  check_bool "device 1 dead" true (not (Pod.alive pod 1));
  check_int "two survivors" 2 (Pod.alive_count pod)

(* --- checkpoint store version guard ---------------------------------- *)

let test_store_refuses_newer_version () =
  let path = Filename.temp_file "ascend_pod_v2" ".ckpt" in
  let buf = Buffer.create 64 in
  Buffer.add_string buf "ASCKPT";
  let add_u16 v =
    Buffer.add_char buf (Char.chr (v land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))
  in
  let add_u32 v =
    add_u16 (v land 0xFFFF);
    add_u16 ((v lsr 16) land 0xFFFF)
  in
  add_u16 (Runtime.Checkpoint_store.version + 1);
  add_u32 4;
  add_u32 8;
  add_u32 0;
  let crc = Pod.Link.crc32 (Buffer.to_bytes buf) in
  add_u32 crc;
  let oc = open_out_bin path in
  output_bytes oc (Buffer.to_bytes buf);
  close_out oc;
  (match Runtime.Checkpoint_store.load ~path with
  | Ok _ -> Alcotest.fail "newer-versioned store accepted"
  | Error msg ->
      let has needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      check_bool
        (Printf.sprintf "names the version (%s)" msg)
        true
        (has "newer than this build" msg));
  Sys.remove path

(* --- checkpointed pod runner ----------------------------------------- *)

let test_pod_runner_completes () =
  let batch = 8 and len = 256 in
  let input = gen_input (batch * len) 0 in
  let pod = Pod.create ~devices:3 () in
  let r = Runtime.Pod_runner.batched_scan pod ~batch ~len ~input in
  check_bool "ok" true r.Runtime.Resilient.bok;
  check_int "no devices lost" 0
    (Option.get r.Runtime.Resilient.pod).Runtime.Resilient.devices_lost;
  (* Spot-check one row tail against the host fp16 chain. *)
  let acc = ref 0.0 in
  for i = 0 to len - 1 do
    acc := Fp16.round (!acc +. input.((3 * len) + i))
  done;
  check_bool "row 3 tail" true
    (Global_tensor.get r.Runtime.Resilient.y ((3 * len) + (len - 1)) = !acc)

(* A device killed between launches: its rows re-shard over the
   survivors, none is shed, and the bytes equal the full pod's. *)
let test_pod_runner_survives_device_kill () =
  List.iter
    (fun (devices, batch, len, input, scenario) ->
      let what = Printf.sprintf "%d devices, %dx%d" devices batch len in
      let clean =
        Runtime.Pod_runner.batched_scan (Pod.create ~devices ()) ~batch ~len
          ~input
      in
      let ch = Runtime.Chaos.arm ~on_crash:(fun _ -> ()) (parse_ok scenario) in
      let pod = Pod.create ~devices () in
      let r = Runtime.Pod_runner.batched_scan ~chaos:ch pod ~batch ~len ~input in
      check_bool (what ^ ": ok after device kill") true r.Runtime.Resilient.bok;
      check_int (what ^ ": one device lost") 1
        (Option.get r.Runtime.Resilient.pod).Runtime.Resilient.devices_lost;
      check_int (what ^ ": no rows shed") 0 r.Runtime.Resilient.shed_rows;
      check_bool (what ^ ": output bit-identical to full pod") true
        (bytes_of clean.Runtime.Resilient.y = bytes_of r.Runtime.Resilient.y))
    [
      (3, 8, 256, gen_input (8 * 256) 5,
       "name k\nseed 1\nat launch 1 kill device=2\n");
      (4, 16, 2048, sparse_53 (16 * 2048),
       "name k4\nseed 5\nat launch 1 kill device=2\n");
    ]

(* scenarios/pod-partition.chaos (a link outage, a fault storm, a
   device kill, then a host crash) run as reference, crashed and
   resumed legs against one checkpoint store. *)
let test_pod_partition_crash_resume () =
  let batch = 16 and len = 2048 and devices = 4 in
  let input = sparse_53 (batch * len) in
  let sc =
    parse_ok
      (In_channel.with_open_bin "../scenarios/pod-partition.chaos"
         In_channel.input_all)
  in
  let run_leg ?store ~skip_crashes () =
    let primary =
      Device.create ~mode:Device.Functional
        ~fault:(Runtime.Chaos.fault_config sc) ()
    in
    let pod = Pod.create_with ~primary ~devices () in
    let chaos = Runtime.Chaos.arm ~skip_crashes sc in
    Runtime.Pod_runner.batched_scan ?store ~chaos pod ~batch ~len ~input
  in
  let ref_r = run_leg ~skip_crashes:true () in
  let amplification =
    float_of_int ref_r.Runtime.Resilient.group_attempts
    /. float_of_int
         (max 1 (Runtime.Checkpoint.commits ref_r.Runtime.Resilient.checkpoint))
  in
  check_bool
    (Printf.sprintf "retry amplification %.2f <= 2.0" amplification)
    true (amplification <= 2.0);
  let path = Filename.temp_file "test_pod_" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    (fun () ->
      let store =
        Runtime.Checkpoint_store.create ~path ~rows:batch ~len ()
      in
      (match run_leg ~store ~skip_crashes:false () with
      | _ -> Alcotest.fail "expected Host_crash mid-batch"
      | exception Runtime.Chaos.Host_crash _ -> ());
      let commits_at_crash = Runtime.Checkpoint_store.commits store in
      let resumed =
        match Runtime.Checkpoint_store.reopen ~path with
        | Ok (st, _) -> st
        | Error e -> Alcotest.failf "reopen: %s" e
      in
      let res_r = run_leg ~store:resumed ~skip_crashes:true () in
      check_int "no rows lost" batch
        (Runtime.Checkpoint.done_count res_r.Runtime.Resilient.checkpoint);
      check_bool "resume equals replay, byte for byte" true
        (bytes_of ref_r.Runtime.Resilient.y = bytes_of res_r.Runtime.Resilient.y);
      (* No row of a group the crashed run committed is in a group the
         resume committed. *)
      let groups = Runtime.Checkpoint_store.groups resumed in
      let covered ~restored r =
        List.exists
          (fun (lo, hi, _) -> lo <= r && r < hi)
          (List.filteri (fun i _ -> i < commits_at_crash = restored) groups)
      in
      check_int "zero re-executed committed rows" 0
        (List.length
           (List.filter
              (fun r -> covered ~restored:true r && covered ~restored:false r)
              (List.init batch Fun.id))))

let () =
  Alcotest.run "pod"
    [
      ( "link",
        [
          Alcotest.test_case "delivers and charges" `Quick
            test_link_delivers_and_charges;
          Alcotest.test_case "deterministic fault stream" `Quick
            test_link_faults_are_deterministic;
          Alcotest.test_case "quarantine after exhaustion" `Quick
            test_link_quarantines_after_exhaustion;
          Alcotest.test_case "crc detects corruption" `Quick
            test_link_crc_detects_corruption;
          Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
        ] );
      ( "pod",
        [
          Alcotest.test_case "rejects zero devices" `Quick
            test_pod_rejects_zero_devices;
          Alcotest.test_case "reroutes around down link" `Quick
            test_send_reroutes_around_down_link;
          Alcotest.test_case "raises partitioned" `Quick
            test_send_raises_partitioned;
        ] );
      ( "dist_scan",
        [
          QCheck_alcotest.to_alcotest prop_dist_equals_single;
          QCheck_alcotest.to_alcotest prop_dist_survives_subset;
          Alcotest.test_case "all devices dead raises" `Quick
            test_dist_all_dead_raises;
          Alcotest.test_case "ring and all-gather agree" `Quick
            test_schedules_agree;
          Alcotest.test_case "link faults leave output intact" `Quick
            test_link_faults_leave_output_intact;
          Alcotest.test_case "registry entry" `Quick test_registry_dist_scan;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "parse pod verbs" `Quick test_parse_pod_verbs;
          Alcotest.test_case "parse pod errors" `Quick test_parse_pod_errors;
          Alcotest.test_case "kill device fires" `Quick
            test_chaos_kills_pod_device;
        ] );
      ( "store",
        [
          Alcotest.test_case "refuses newer version" `Quick
            test_store_refuses_newer_version;
        ] );
      ( "pod_runner",
        [
          Alcotest.test_case "completes" `Quick test_pod_runner_completes;
          Alcotest.test_case "survives device kill" `Quick
            test_pod_runner_survives_device_kill;
          Alcotest.test_case "partition crash/resume" `Quick
            test_pod_partition_crash_resume;
        ] );
    ]
