(* Pod crash harness: a REAL process death in the middle of a
   distributed, checkpointed pod run.

   Same shape as chaos_harness, one level up the hierarchy: the parent
   forks a child that runs a pod batched scan (device kill at launch 1,
   then a host crash) against a checkpoint store; the crash event makes
   the child SIGKILL itself mid-batch. The parent observes WSIGNALED,
   reopens the store exactly like `pod resume` does, and finishes the
   batch on a fresh pod — then proves:

   - the child was killed by SIGKILL (the crash was real);
   - the store held partial progress (0 < commits < groups);
   - the resumed output is byte-for-byte identical to an
     uninterrupted reference run of the same storyline — despite the
     reference losing a device mid-run and the resume running on a
     full pod (placement invariance);
   - no committed row-group was ever re-executed (resume commits are
     row-disjoint from the crashed run's);
   - no rows were lost.

   Runs under `dune runtest` via a rule in test/dune; exits 1 on any
   violation. *)

open Ascend
open Runtime

let batch = 16
let len = 1024
let devices = 3
let input = Array.init (batch * len) (fun i -> if i mod 53 = 0 then 1.0 else 0.0)

let scenario_text =
  "name pod-harness-crash\n\
   seed 17\n\
   at launch 1 kill device=2\n\
   at launch 2 crash\n"

let failures = ref 0

let check name ok =
  if ok then Printf.printf "  ok: %s\n%!" name
  else begin
    incr failures;
    Printf.printf "  FAILED: %s\n%!" name
  end

let scenario =
  match Chaos.parse scenario_text with
  | Ok sc -> sc
  | Error e ->
      Printf.printf "pod harness: scenario parse error: %s\n%!" e;
      exit 1

let run_batched ?store ?chaos () =
  let pod = Pod.create ~devices () in
  Pod_runner.batched_scan ?store ?chaos pod ~batch ~len ~input

let bytes_of r =
  Array.init (batch * len) (fun i ->
      Int64.bits_of_float (Global_tensor.get r.Resilient.y i))

let () =
  (* A fork-based harness cannot coexist with spawned domains (the
     runtime forbids [Unix.fork] once other domains exist, and the
     reference run below would lazily spawn the pool under
     ASCEND_SIM_DOMAINS > 1). Pin this process to sequential launches;
     host-domain parallelism is exercised by the regular suite. *)
  Unix.putenv "ASCEND_SIM_DOMAINS" "1";
  Printf.printf "pod harness: fork, SIGKILL mid-batch, resume\n%!";
  let store_path = Filename.temp_file "pod_harness_" ".ckpt" in
  (* Reference: the same storyline (device kill included, crash
     skipped) in this process, no store. *)
  let ref_r =
    run_batched
      ~chaos:(Chaos.arm ~skip_crashes:true ~on_crash:(fun _ -> ()) scenario)
      ()
  in
  check "reference run completes" ref_r.Resilient.bok;
  check "reference lost a device"
    ((Option.get ref_r.Resilient.pod).Resilient.devices_lost = 1);
  let ref_bytes = bytes_of ref_r in
  (* A clean full-pod run agrees with the attrition run bit for bit:
     the re-sharding rule is placement-invariant. *)
  let clean_r = run_batched () in
  check "device kill leaves bytes unchanged" (bytes_of clean_r = ref_bytes);
  (* Child: runs with the store and dies by its own hand. *)
  (match Unix.fork () with
  | 0 ->
      let store =
        Checkpoint_store.create ~path:store_path ~rows:batch ~len
          ~meta:"pod-harness" ()
      in
      let on_crash _ = Unix.kill (Unix.getpid ()) Sys.sigkill in
      let r =
        run_batched ~store
          ~chaos:(Chaos.arm ~skip_crashes:false ~on_crash scenario)
          ()
      in
      (* Reaching here means the crash event never fired. *)
      ignore r;
      Stdlib.exit 3
  | pid -> (
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WSIGNALED s when s = Sys.sigkill ->
          check "child died of SIGKILL" true
      | Unix.WEXITED 3 ->
          check "child died of SIGKILL (crash event never fired)" false
      | Unix.WEXITED c ->
          check (Printf.sprintf "child died of SIGKILL (exited %d)" c) false
      | Unix.WSIGNALED s ->
          check (Printf.sprintf "child died of SIGKILL (signal %d)" s) false
      | Unix.WSTOPPED _ -> check "child died of SIGKILL (stopped)" false);
      match Checkpoint_store.reopen ~path:store_path with
      | Error e -> check (Printf.sprintf "store reopens (%s)" e) false
      | Ok (store, l) ->
          check "store parsed with no torn tail (atomic commit)"
            (not l.Checkpoint_store.l_torn);
          check "store meta preserved"
            (l.Checkpoint_store.l_meta = "pod-harness");
          let commits_at_crash = Checkpoint_store.commits store in
          check
            (Printf.sprintf "partial progress durable (%d commits)"
               commits_at_crash)
            (commits_at_crash > 0);
          check "crash was mid-batch, not at the end"
            (List.fold_left
               (fun acc (lo, hi, _) -> acc + (hi - lo))
               0
               (Checkpoint_store.groups store)
            < batch);
          (* Parent: resume on a FRESH full pod — the store carries the
             progress, not the pod. *)
          let res_r =
            run_batched ~store
              ~chaos:(Chaos.arm ~skip_crashes:true ~on_crash:(fun _ -> ())
                        scenario)
              ()
          in
          check "resumed run completes" res_r.Resilient.bok;
          check "rows were restored from the store"
            (res_r.Resilient.restored_rows > 0);
          check "no rows lost"
            (Checkpoint.done_count res_r.Resilient.checkpoint = batch);
          check "resume equals replay, byte for byte"
            (bytes_of res_r = ref_bytes);
          (* Zero re-executed committed row-groups: the resume's new
             commits must be row-disjoint from the crashed run's. *)
          let all = Checkpoint_store.groups store in
          let restored = Array.make batch false in
          List.iteri
            (fun i (lo, hi, _) ->
              if i < commits_at_crash then
                for r = lo to hi - 1 do
                  restored.(r) <- true
                done)
            all;
          let reexec = ref 0 in
          List.iteri
            (fun i (lo, hi, _) ->
              if i >= commits_at_crash then
                for r = lo to hi - 1 do
                  if restored.(r) then incr reexec
                done)
            all;
          check "zero re-executed committed row-groups" (!reexec = 0)));
  (try Sys.remove store_path with Sys_error _ -> ());
  (try Sys.remove (store_path ^ ".tmp") with Sys_error _ -> ());
  if !failures > 0 then begin
    Printf.printf "pod harness: %d check(s) FAILED\n%!" !failures;
    exit 1
  end;
  Printf.printf "pod harness: all checks passed\n%!"
