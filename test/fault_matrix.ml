(* Fault-matrix battery: one CI scenario per invocation.

   Usage:
     fault_matrix.exe [--inject-faults SEED:RATE] [--kill-core CORE[@CYCLE]]...

   Runs every multi-core operator under the requested fault regime
   through the resilient runner and checks the final outputs
   bit-identically against the host references. Exits 0 when every
   operator recovers, 1 on any mismatch or unrecovered failure, 2 on a
   malformed spec — so a CI matrix job is one flag set per cell. *)

open Ascend

let usage () =
  prerr_endline
    "usage: fault_matrix [--inject-faults SEED:RATE] [--kill-core \
     CORE[@CYCLE]]...";
  exit 2

let () =
  let faults = ref None in
  let kills = ref [] in
  let rec parse = function
    | [] -> ()
    | "--inject-faults" :: spec :: rest -> (
        match Fault.parse_spec spec with
        | Ok v ->
            faults := Some v;
            parse rest
        | Error msg ->
            prerr_endline ("fault_matrix: " ^ msg);
            exit 2)
    | "--kill-core" :: spec :: rest -> (
        match Health.parse_kill_spec spec with
        | Ok v ->
            kills := v :: !kills;
            parse rest
        | Error msg ->
            prerr_endline ("fault_matrix: " ^ msg);
            exit 2)
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let make_device () =
    let fault =
      match (!faults, !kills) with
      | None, [] -> None
      | _ ->
          let seed, rate = Option.value ~default:(0, 0.0) !faults in
          Some (Fault.config ~seed ~rate ~kills:!kills ())
    in
    Device.create ?fault ()
  in
  let n = 30000 in
  let input = Array.init n (fun i -> if i mod 37 = 0 then 1.0 else 0.0) in
  let failures = ref 0 in
  let report name ok detail =
    Printf.printf "%-28s %s%s\n%!" name
      (if ok then "ok" else "FAILED")
      (if detail = "" then "" else " (" ^ detail ^ ")");
    if not ok then incr failures
  in
  (* Scans through the resilient launcher: retries absorb transient
     corruption, the vector-only kernel is the degradation target for
     the sum-monoid entries (a different monoid gets no cross-kernel
     fallback — the sum fallback would compute the wrong function).
     The matrix enumerates the registry, so new scan entries are
     covered without edits here. *)
  let module R = Scan.Op_registry in
  List.iter
    (fun (algo : R.entry) ->
      let name = "scan/" ^ algo.R.name in
      let fallback = if R.is_sum algo then R.find "vec_only" else None in
      match
        Runtime.Resilient.scan
          ~ctl:Runtime.Degrade_ctl.(create ~policy:(fixed ~max_attempts:5 ()) ())
          ~oracle:Runtime.Resilient.Reference ?fallback ~algo (make_device ())
          ~input
      with
      | r ->
          report name r.Runtime.Resilient.ok
            (Printf.sprintf "%d attempts, %d detections"
               r.Runtime.Resilient.attempts r.Runtime.Resilient.detections)
      | exception (Health.All_cores_dead as e) ->
          report name false (Printexc.to_string e))
    (R.unary_scans ());
  (* Checkpointed batched scan. *)
  (let batch = 16 and len = 2048 in
   let binput =
     Array.init (batch * len) (fun i -> if i mod 41 = 0 then 1.0 else 0.0)
   in
   match
     Runtime.Resilient.batched_scan ~granularity:4
       ~ctl:Runtime.Degrade_ctl.(create ~policy:(fixed ~max_attempts:6 ()) ())
       (make_device ()) ~batch ~len ~input:binput
   with
   | r ->
       let identical =
         (Option.get (R.find "batched_u")).R.check
           { R.default_config with R.batch = Some batch; len = Some len }
           { R.x = binput; mask = None }
           { R.y = Some r.Runtime.Resilient.y; aux = [] }
         = Ok ()
       in
       report "batched/checkpointed" (r.Runtime.Resilient.bok && identical)
         (Printf.sprintf "%d group attempts, %d rows replayed"
            r.Runtime.Resilient.group_attempts
            r.Runtime.Resilient.replayed_rows)
   | exception (Health.All_cores_dead as e) ->
       report "batched/checkpointed" false (Printexc.to_string e));
  (* Radix sort: direct run (no oracle retry), order checked on host.
     Kills are absorbed by block replay; transient corruption would
     break the order, so only run it when the rate is zero. *)
  (match !faults with
  | Some (_, rate) when rate > 0.0 -> ()
  | _ ->
      let d = make_device () in
      let data =
        Array.init n (fun i -> float_of_int ((i * 2654435761) land 0x3FF))
      in
      let x = Device.of_array d Dtype.F16 ~name:"keys" data in
      let r = Ops.Radix_sort.run d x in
      let sorted = ref true in
      for i = 1 to n - 1 do
        if
          Global_tensor.get r.Ops.Radix_sort.values (i - 1)
          > Global_tensor.get r.Ops.Radix_sort.values i
        then sorted := false
      done;
      report "sort/radix" !sorted "");
  if !failures > 0 then begin
    Printf.printf "fault matrix: %d operator(s) FAILED\n" !failures;
    exit 1
  end;
  print_endline "fault matrix: all operators recovered"
