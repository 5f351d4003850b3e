(* Tests of the self-checking resilient launcher: retry on injected
   corruption, zero overhead at fault rate 0, and graceful degradation
   to the vector-only kernel under a persistently faulty cube engine. *)

open Ascend
open Runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let n = 65536
let input = Array.init n (fun i -> if (i + 3) mod 53 = 0 then 1.0 else 0.0)

let fixed max_attempts =
  Degrade_ctl.create ~policy:(Degrade_ctl.fixed ~max_attempts ()) ()

let reference_ok output =
  Scan.Scan_api.check_against_reference ~round:Fp16.round ~input ~output ()

(* Acceptance (a): with a pinned seed an injected fault corrupts the
   first mcscan attempt; the launcher detects it against the reference
   oracle and the retry recovers, because each attempt draws fresh
   faults from the stream. *)
let test_bitflip_caught_and_retried () =
  let d = Device.create ~fault:(Fault.config ~seed:3 ~rate:0.05 ()) () in
  let r =
    Resilient.scan ~oracle:Resilient.Reference ~fallback:(Scan.Scan_api.get "vec_only")
      ~algo:(Scan.Scan_api.get "mcscan") d ~input
  in
  check_bool "recovered" true r.Resilient.ok;
  check_bool "fault was detected" true (r.Resilient.detections >= 1);
  check_bool "took a retry" true (r.Resilient.attempts >= 2);
  check_bool "no degradation needed" true (not r.Resilient.degraded);
  check_int "retries in stats" (r.Resilient.attempts - 1)
    r.Resilient.stats.Stats.retries;
  check_bool "faults in stats" true
    (List.length r.Resilient.stats.Stats.faults >= 1);
  match reference_ok r.Resilient.value with
  | Ok () -> ()
  | Error e -> Alcotest.failf "final output wrong: %s" e

(* Acceptance (c): at fault rate 0 the resilient wrapper runs exactly
   one attempt whose simulated time matches a plain launch within 5%
   (it is exact: validation happens on the host, off the clock), with
   bit-identical output. *)
let test_rate_zero_overhead () =
  let plain_d = Device.create () in
  let x = Device.of_array plain_d Dtype.F16 ~name:"x" input in
  let y_plain, st_plain = Scan.Scan_api.run ~algo:(Scan.Scan_api.get "mcscan") plain_d x in
  let r = Resilient.scan ~algo:(Scan.Scan_api.get "mcscan") (Device.create ()) ~input in
  check_bool "validated" true r.Resilient.ok;
  check_int "single attempt" 1 r.Resilient.attempts;
  check_int "no retries" 0 r.Resilient.stats.Stats.retries;
  check_int "no degradation" 0 r.Resilient.stats.Stats.degraded;
  let overhead =
    (r.Resilient.stats.Stats.seconds -. st_plain.Stats.seconds)
    /. st_plain.Stats.seconds
  in
  check_bool "overhead < 5%" true (Float.abs overhead < 0.05);
  for i = 0 to n - 1 do
    if Global_tensor.get r.Resilient.value i <> Global_tensor.get y_plain i
    then Alcotest.failf "output differs from plain run at %d" i
  done

(* A permanently faulty cube engine (every cube-side transfer flips a
   bit) defeats every ScanU attempt, but the vector-only fallback never
   touches the cube MTEs and lands clean: graceful degradation. *)
let test_degrade_to_vec_only () =
  let fault =
    Fault.config ~kinds:[ Fault.Bit_flip ] ~scope:Fault.Cube_mtes ~seed:1
      ~rate:1.0 ()
  in
  let d = Device.create ~fault () in
  let r =
    Resilient.scan ~ctl:(fixed 2) ~oracle:Resilient.Reference
      ~fallback:(Scan.Scan_api.get "vec_only") ~algo:(Scan.Scan_api.get "scanu") d ~input
  in
  check_bool "fallback saved the run" true r.Resilient.ok;
  check_bool "degraded" true r.Resilient.degraded;
  check_int "primary attempts + fallback" 3 r.Resilient.attempts;
  check_int "detections" 2 r.Resilient.detections;
  check_int "degraded in stats" 1 r.Resilient.stats.Stats.degraded;
  match reference_ok r.Resilient.value with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fallback output wrong: %s" e

(* Resilient.run generic loop: a flaky computation that succeeds on the
   third call is retried exactly that often. *)
let dummy_stats () = Launch.run (Device.create ()) ~blocks:1 (fun _ -> ())

let test_run_retry_loop () =
  let calls = ref 0 in
  let st = dummy_stats () in
  let attempt () =
    incr calls;
    (!calls, st)
  in
  let validate v = if v >= 3 then Ok () else Error "too early" in
  let r = Resilient.run ~ctl:(fixed 5) ~validate attempt in
  check_bool "ok" true r.Resilient.ok;
  check_int "three attempts" 3 r.Resilient.attempts;
  check_int "two detections" 2 r.Resilient.detections;
  check_int "retries in stats" 2 r.Resilient.stats.Stats.retries

let test_run_exhausted_without_fallback () =
  let st = dummy_stats () in
  let r =
    Resilient.run ~ctl:(fixed 2) ~validate:(fun _ -> Error "always")
      (fun () -> (0, st))
  in
  check_bool "failed" true (not r.Resilient.ok);
  check_int "both attempts burned" 2 r.Resilient.attempts;
  check_bool "not degraded" true (not r.Resilient.degraded)

let test_run_validation () =
  check_bool "max_attempts < 1 rejected" true
    (try
       ignore
         (Resilient.run ~ctl:(fixed 0)
            ~validate:(fun _ -> Ok ())
            (fun () -> (0, dummy_stats ())));
       false
     with Invalid_argument _ -> true);
  check_bool "cost-only device rejected" true
    (try
       ignore
         (Resilient.scan ~algo:(Scan.Scan_api.get "mcscan")
            (Device.create ~mode:Device.Cost_only ())
            ~input:[| 1.0 |]);
       false
     with Invalid_argument _ -> true)

(* A NaN in the input propagates through every later prefix, on the
   device and in the host oracles alike: both oracles must accept the
   NaN they expect instead of flagging it as corruption and burning
   the retry budget. *)
let test_nan_input_validates () =
  let input =
    Array.init 4096 (fun i ->
        if i = 1000 then Float.nan else if i mod 53 = 0 then 1.0 else 0.0)
  in
  let r =
    Resilient.scan ~algo:(Scan.Scan_api.get "scanu") (Device.create ()) ~input
  in
  check_bool "scan ok" true r.Resilient.ok;
  check_int "scan single attempt" 1 r.Resilient.attempts;
  check_int "scan no detections" 0 r.Resilient.detections;
  let b =
    Resilient.batched_scan ~granularity:1 (Device.create ()) ~batch:2
      ~len:1024 ~input
  in
  check_bool "batched ok" true b.Resilient.bok;
  check_int "batched one attempt per group" 2 b.Resilient.group_attempts

let () =
  Alcotest.run "resilient"
    [
      ( "scan",
        [
          Alcotest.test_case "bitflip caught + retried" `Quick
            test_bitflip_caught_and_retried;
          Alcotest.test_case "rate-0 overhead" `Quick test_rate_zero_overhead;
          Alcotest.test_case "degrade to vec_only" `Quick
            test_degrade_to_vec_only;
          Alcotest.test_case "nan input validates" `Quick
            test_nan_input_validates;
        ] );
      ( "loop",
        [
          Alcotest.test_case "retry loop" `Quick test_run_retry_loop;
          Alcotest.test_case "exhausted" `Quick
            test_run_exhausted_without_fallback;
          Alcotest.test_case "validation" `Quick test_run_validation;
        ] );
    ]
