(* Host-side domain-parallel execution tests.

   The contract under test: for ANY domain count, every kernel's output
   tensor and its whole simulated statistics record are bit-identical
   to the sequential schedule — parallelism may only change host
   wall-clock time. Stateful features (fault injection, kills,
   sanitizer) force the sequential path, so degraded runs are likewise
   unchanged by [~domains]. *)

open Ascend

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Domain_pool unit tests.                                            *)

let test_pool_coverage () =
  let p = Domain_pool.create ~max_workers:3 () in
  let n = 200 in
  let hits = Array.make n 0 in
  Domain_pool.parallel_for p ~slots:4 ~n (fun i -> hits.(i) <- hits.(i) + 1);
  Array.iteri
    (fun i h -> if h <> 1 then Alcotest.failf "index %d ran %d times" i h)
    hits;
  Domain_pool.shutdown p

let test_pool_sequential_when_one_slot () =
  let p = Domain_pool.create () in
  let out = Array.make 50 (-1) in
  Domain_pool.parallel_for p ~slots:1 ~n:50 (fun i -> out.(i) <- i);
  check_int "no workers spawned" 0 (Domain_pool.size p);
  check_bool "all indices ran" true (Array.for_all (fun v -> v >= 0) out);
  Domain_pool.shutdown p

let test_pool_reraises_smallest_index () =
  let p = Domain_pool.create ~max_workers:2 () in
  (match
     Domain_pool.parallel_for p ~slots:3 ~n:64 (fun i ->
         if i mod 10 = 7 then failwith (Printf.sprintf "boom %d" i))
   with
  | () -> Alcotest.fail "expected a re-raised body exception"
  | exception Failure msg ->
      (* Failing indices are 7, 17, 27, ...; a sequential left-to-right
         loop would have surfaced 7 first. *)
      Alcotest.(check string) "smallest failing index wins" "boom 7" msg);
  (* The pool survives a failed loop and runs the next one cleanly. *)
  let ok = Array.make 16 false in
  Domain_pool.parallel_for p ~slots:3 ~n:16 (fun i -> ok.(i) <- true);
  check_bool "pool reusable after failure" true (Array.for_all Fun.id ok);
  Domain_pool.shutdown p

let test_pool_nested_degrades () =
  let p = Domain_pool.create ~max_workers:2 () in
  let inner_total = Array.make 8 0 in
  Domain_pool.parallel_for p ~slots:3 ~n:8 (fun i ->
      (* A nested loop on the same pool must complete (sequentially)
         rather than deadlock on the busy workers. *)
      let acc = ref 0 in
      Domain_pool.parallel_for p ~slots:3 ~n:5 (fun j -> acc := !acc + j);
      inner_total.(i) <- !acc);
  Array.iteri
    (fun i t -> if t <> 10 then Alcotest.failf "nested loop %d summed %d" i t)
    inner_total;
  Domain_pool.shutdown p

let test_pool_shutdown_degrades () =
  let p = Domain_pool.create ~max_workers:2 () in
  Domain_pool.shutdown p;
  let out = Array.make 10 false in
  Domain_pool.parallel_for p ~slots:4 ~n:10 (fun i -> out.(i) <- true);
  check_bool "post-shutdown loop still completes" true
    (Array.for_all Fun.id out);
  check_int "no workers after shutdown" 0 (Domain_pool.size p)

(* ------------------------------------------------------------------ *)
(* Determinism across domain counts.                                  *)

let scan_input = Array.init 120000 (fun i -> if i mod 53 = 0 then 1.0 else 0.0)

let flags_input =
  Array.init 120000 (fun i -> if (i * 7) mod 13 < 2 then 1.0 else 0.0)

let tensor_bits y n = Array.init n (fun i -> Global_tensor.get y i)

(* Run one kernel at several domain counts and insist on bitwise-equal
   outputs and simulated-statistics records. *)
let check_domain_invariant name run =
  let y1, st1 = run 1 in
  check_int "stats record domains=1" 1 st1.Stats.domains;
  List.iter
    (fun domains ->
      let y, st = run domains in
      check_bool
        (Printf.sprintf "%s: output bit-identical at domains=%d" name domains)
        true (y = y1);
      check_bool
        (Printf.sprintf "%s: simulated stats identical at domains=%d" name
           domains)
        true
        (Stats.equal_simulated st st1);
      check_int
        (Printf.sprintf "%s: stats record domains=%d" name domains)
        domains st.Stats.domains)
    [ 2; 4 ]

let test_scan_algos_domain_invariant () =
  (* Every registered unary scan — a new registry entry is covered by
     the domain-invariance contract automatically. *)
  List.iter
    (fun algo ->
      check_domain_invariant algo.Scan.Op_registry.name
        (fun domains ->
          let d = Device.create ~domains () in
          let x = Device.of_array d Dtype.F16 ~name:"x" scan_input in
          let y, st = Registry_util.run algo d x in
          (tensor_bits y (Array.length scan_input), st)))
    (Scan.Op_registry.unary_scans ())

let test_mcscan_exclusive_domain_invariant () =
  check_domain_invariant "mcscan exclusive" (fun domains ->
      let d = Device.create ~domains () in
      let x = Device.of_array d Dtype.F16 ~name:"x" scan_input in
      let y, st =
        Registry_util.run
          ~cfg:{ Scan.Op_registry.default_config with exclusive = true }
          (Registry_util.entry "mcscan") d x
      in
      (tensor_bits y (Array.length scan_input), st))

let test_batched_domain_invariant () =
  let batch = 8 and len = 8192 in
  let data =
    Array.init (batch * len) (fun i -> if i mod 31 = 0 then 1.0 else 0.0)
  in
  List.iter
    (fun (label, run) ->
      check_domain_invariant label (fun domains ->
          let d = Device.create ~domains () in
          let x = Device.of_array d Dtype.F16 ~name:"x" data in
          let y, st = run d ~batch ~len x in
          (tensor_bits y (batch * len), st)))
    [
      ( "batched u",
        fun d ~batch ~len x -> Scan.Batched_scan.run_u d ~batch ~len x );
      ( "batched ul1",
        fun d ~batch ~len x -> Scan.Batched_scan.run_ul1 d ~batch ~len x );
    ]

let test_segmented_domain_invariant () =
  check_domain_invariant "segmented" (fun domains ->
      let d = Device.create ~domains () in
      let x = Device.of_array d Dtype.F16 ~name:"x" scan_input in
      let flags = Device.of_array d Dtype.I8 ~name:"f" flags_input in
      let y, st = Scan.Segmented_scan.run d ~x ~flags () in
      (tensor_bits y (Array.length scan_input), st))

(* Stateful features must force the sequential path: a degraded run
   (mid-run core kill, hence replay) is byte-for-byte independent of
   the requested domain count. *)
let test_degraded_falls_back_sequential () =
  let run domains =
    let d =
      Device.create ~domains
        ~fault:(Fault.config ~seed:0 ~rate:0.0 ~kills:[ (3, 2000.0) ] ())
        ()
    in
    let x = Device.of_array d Dtype.F16 ~name:"x" scan_input in
    let y, st = Scan.Mcscan.run d x in
    check_bool "kill fired" false (Health.alive (Device.health d) 3);
    (tensor_bits y (Array.length scan_input), st)
  in
  let y1, st1 = run 1 in
  let y4, st4 = run 4 in
  check_bool "degraded output independent of domains" true (y1 = y4);
  check_bool "degraded stats independent of domains" true
    (Stats.equal_simulated st1 st4)

(* ------------------------------------------------------------------ *)
(* Host wall-clock surface.                                           *)

let test_host_stats_surface () =
  let d = Device.create ~domains:2 () in
  let x = Device.of_array d Dtype.F16 ~name:"x" scan_input in
  let _, st = Scan.Mcscan.run d x in
  check_bool "host wall-clock measured" true (st.Stats.host_seconds > 0.0);
  (* equal_simulated deliberately ignores the host-side fields. *)
  let st' = { st with Stats.host_seconds = st.Stats.host_seconds *. 10.0 } in
  check_bool "host_seconds not part of simulated equality" true
    (Stats.equal_simulated st st');
  check_bool "simulated fields are" false
    (Stats.equal_simulated st { st with Stats.seconds = st.Stats.seconds +. 1.0 })

let test_device_domains_validation () =
  (match Device.create ~domains:0 () with
  | _ -> Alcotest.fail "domains=0 accepted"
  | exception Invalid_argument _ -> ());
  (* The device default follows ASCEND_SIM_DOMAINS (so CI can run the
     whole suite parallel); mirror the same parse here. *)
  let expected_default =
    match Sys.getenv_opt "ASCEND_SIM_DOMAINS" with
    | None -> 1
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some d when d >= 1 -> d
        | _ -> 1)
  in
  check_int "default follows ASCEND_SIM_DOMAINS" expected_default
    (Device.domains (Device.create ()))

let () =
  Alcotest.run "domains"
    [
      ( "pool",
        [
          Alcotest.test_case "coverage" `Quick test_pool_coverage;
          Alcotest.test_case "one slot is sequential" `Quick
            test_pool_sequential_when_one_slot;
          Alcotest.test_case "smallest-index error" `Quick
            test_pool_reraises_smallest_index;
          Alcotest.test_case "nested degrades" `Quick test_pool_nested_degrades;
          Alcotest.test_case "shutdown degrades" `Quick
            test_pool_shutdown_degrades;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "scan algorithms" `Quick
            test_scan_algos_domain_invariant;
          Alcotest.test_case "mcscan exclusive" `Quick
            test_mcscan_exclusive_domain_invariant;
          Alcotest.test_case "batched scans" `Quick test_batched_domain_invariant;
          Alcotest.test_case "segmented scan" `Quick
            test_segmented_domain_invariant;
          Alcotest.test_case "degraded run sequential fallback" `Quick
            test_degraded_falls_back_sequential;
        ] );
      ( "host-surface",
        [
          Alcotest.test_case "host stats" `Quick test_host_stats_surface;
          Alcotest.test_case "domains validation" `Quick
            test_device_domains_validation;
        ] );
    ]
