(* Tests of the chaos subsystem: the scenario DSL parser (and a
   mutation fuzz of the committed scenario files), the
   deterministic armed scheduler, the adaptive degradation
   controller's state machine, and the in-process crash/resume
   storylines (resume-equals-replay, byte for byte, with no row lost
   and no committed row re-executed). *)

open Ascend
open Runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- scenario parser ------------------------------------------------ *)

let parse_ok text =
  match Chaos.parse text with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let parse_err text =
  match Chaos.parse text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

let test_parse_full_scenario () =
  let sc =
    parse_ok
      "# comment\n\
       name full\n\
       seed 9\n\
       rate 0.25\n\
       at launch 2 storm rate=0.8 kinds=bit_flip,dropped_copy scope=cube \
       factor=4 for=3\n\
       at launch 4 kill core=3\n\
       at launch 6 quarantine core=5 for=4\n\
       at time 2.5e-3 stall factor=16 for=2\n\
       at launch 9 crash\n"
  in
  check_string "name" "full" sc.Chaos.sc_name;
  check_int "seed" 9 sc.Chaos.sc_seed;
  Alcotest.(check (float 1e-9)) "rate" 0.25 sc.Chaos.sc_rate;
  check_int "events" 5 (List.length sc.Chaos.sc_events);
  (match (List.nth sc.Chaos.sc_events 0).Chaos.action with
  | Chaos.Storm { rate; kinds; scope; stall_factor; for_launches } ->
      Alcotest.(check (float 1e-9)) "storm rate" 0.8 rate;
      check_int "storm kinds" 2 (List.length kinds);
      check_bool "storm scope" true (scope = Fault.Cube_mtes);
      check_bool "storm factor" true (stall_factor = Some 4.0);
      check_int "storm window" 3 for_launches
  | a -> Alcotest.failf "expected storm, got %s" (Chaos.action_to_string a));
  match (List.nth sc.Chaos.sc_events 3).Chaos.action with
  | Chaos.Storm { rate; kinds; _ } ->
      (* stall desugars to a rate-1 engine_stall storm *)
      Alcotest.(check (float 1e-9)) "stall rate" 1.0 rate;
      check_bool "stall kind" true (kinds = [ Fault.Engine_stall ])
  | a -> Alcotest.failf "expected stall storm, got %s" (Chaos.action_to_string a)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_parse_errors_carry_line_numbers () =
  let cases =
    [
      ("at launch 1 explode core=1\n", "line 1");
      ("seed 1\nrate 2.0\n", "line 2");
      ("name x\nseed -3\n", "line 2");
      ("at launch 1 kill\n", "core");
      ("at launch 1 storm rate=0.5\n", "for");
      ("at launch 1 quarantine core=1 for=0\n", "for");
      ("at launch 1 storm rate=0.5 kinds=meteor for=1\n", "meteor");
      ("bogus directive\n", "bogus");
    ]
  in
  List.iter
    (fun (text, needle) ->
      let e = parse_err text in
      check_bool
        (Printf.sprintf "%S mentions %S (got %S)" text needle e)
        true (contains e needle))
    cases

(* --- armed scheduler ------------------------------------------------ *)

let storyline text ~launches =
  let sc = parse_ok text in
  let device =
    Device.create ~mode:Device.Functional ~fault:(Chaos.fault_config sc) ()
  in
  let ch = Chaos.arm ~skip_crashes:true sc in
  for i = 0 to launches - 1 do
    Chaos.before_launch ch device ~launch_index:i ~elapsed_s:0.0
  done;
  (Chaos.fired ch, device)

let test_scheduler_is_deterministic () =
  let text =
    "seed 5\n\
     at launch 1 kill core=2\n\
     at launch 2 storm rate=0.5 for=2\n\
     at launch 6 quarantine core=4 for=3\n"
  in
  let log_a, _ = storyline text ~launches:12 in
  let log_b, _ = storyline text ~launches:12 in
  check_bool "same storyline fires the same log" true (log_a = log_b);
  check_bool "something fired" true (log_a <> [])

let test_quarantine_revives () =
  let log, device =
    storyline "at launch 1 quarantine core=2 for=3\n" ~launches:8
  in
  let health = Device.health device in
  check_bool "core alive again" true (Health.alive health 2);
  check_bool "revive logged" true
    (List.exists (fun (_, m) -> m = "quarantine expired, core 2 revived") log);
  (* generation must distinguish dead->revived from never-touched *)
  check_bool "generation advanced" true (Health.generation health >= 2)

let test_storm_restores_base_policy () =
  let log, device =
    storyline "rate 0.001\nat launch 1 storm rate=0.9 for=2\n" ~launches:6
  in
  (match Device.fault device with
  | Some f ->
      Alcotest.(check (float 1e-9))
        "base rate restored" 0.001 (Fault.config_of f).Fault.rate
  | None -> Alcotest.fail "device has no fault model");
  check_bool "restore logged" true
    (List.exists
       (fun (_, m) -> m = "storm expired, base policy restored")
       log)

let test_crash_raises_host_crash () =
  let sc = parse_ok "at launch 2 crash\n" in
  let device =
    Device.create ~mode:Device.Functional ~fault:(Chaos.fault_config sc) ()
  in
  let ch = Chaos.arm sc in
  Chaos.before_launch ch device ~launch_index:0 ~elapsed_s:0.0;
  check_bool "not crashed yet" true (not (Chaos.crashed ch));
  (match Chaos.before_launch ch device ~launch_index:2 ~elapsed_s:0.0 with
  | () -> Alcotest.fail "expected Host_crash"
  | exception Chaos.Host_crash _ -> ());
  check_bool "crashed" true (Chaos.crashed ch)

(* --- degradation controller ---------------------------------------- *)

let feed ctl outcomes = List.iter (fun ok -> Degrade_ctl.record ctl ~ok) outcomes

let test_breaker_opens_and_recovers () =
  let decisions = ref [] in
  let ctl =
    Degrade_ctl.create ~on_decision:(fun d -> decisions := d :: !decisions) ()
  in
  check_bool "starts closed" true (Degrade_ctl.state ctl = Degrade_ctl.Closed);
  check_int "full budget when closed" 3 (Degrade_ctl.attempts_allowed ctl);
  (* 4 straight failures: rate 1.0 over >= min_samples trips it *)
  feed ctl [ false; false; false; false ];
  check_bool "open after failures" true (Degrade_ctl.state ctl = Degrade_ctl.Open);
  check_bool "escalated" true
    (Degrade_ctl.level ctl = Degrade_ctl.Shrink_groups);
  check_int "probe budget when open" 1 (Degrade_ctl.attempts_allowed ctl);
  (* before_attempt charges the cooldown and half-opens the breaker *)
  let cooldown = Degrade_ctl.before_attempt ctl ~attempt:1 in
  check_bool "cooldown charged" true (cooldown > 0.0);
  check_bool "half-open probe" true
    (Degrade_ctl.state ctl = Degrade_ctl.Half_open);
  (* a successful probe closes it *)
  Degrade_ctl.record ctl ~ok:true;
  check_bool "closed after good probe" true
    (Degrade_ctl.state ctl = Degrade_ctl.Closed);
  (* sustained success de-escalates back to Normal *)
  feed ctl [ true; true; true; true ];
  check_bool "recovered to normal" true
    (Degrade_ctl.level ctl = Degrade_ctl.Normal);
  check_bool "decisions were streamed" true (!decisions <> [])

let test_failed_probe_doubles_cooldown () =
  let ctl = Degrade_ctl.create () in
  feed ctl [ false; false; false; false ];
  let c1 = Degrade_ctl.before_attempt ctl ~attempt:1 in
  Degrade_ctl.record ctl ~ok:false;
  check_bool "re-opened" true (Degrade_ctl.state ctl = Degrade_ctl.Open);
  let c2 = Degrade_ctl.before_attempt ctl ~attempt:1 in
  check_bool
    (Printf.sprintf "cooldown doubled (%.2g -> %.2g)" c1 c2)
    true (c2 > c1)

let test_ladder_escalates_to_shedding () =
  let ctl = Degrade_ctl.create () in
  let trip () =
    feed ctl [ false; false; false; false ];
    (* half-open, then fail the probe to re-open and escalate *)
    ignore (Degrade_ctl.before_attempt ctl ~attempt:1);
    Degrade_ctl.record ctl ~ok:false
  in
  trip ();
  check_bool "level 2" true (Degrade_ctl.level ctl = Degrade_ctl.Switch_schedule);
  check_bool "schedule switched" true (Degrade_ctl.switch_schedule ctl);
  trip ();
  check_bool "level 3" true (Degrade_ctl.level ctl = Degrade_ctl.Shrink_exchange);
  check_bool "not yet shedding" true
    (not (Degrade_ctl.shed ctl ~group_attempts:7));
  trip ();
  check_bool "level 4" true (Degrade_ctl.level ctl = Degrade_ctl.Shed_rows);
  check_bool "sheds past budget" true
    (Degrade_ctl.shed ctl ~group_attempts:7);
  check_bool "keeps young groups" true
    (not (Degrade_ctl.shed ctl ~group_attempts:2));
  check_int "granularity quartered" 2 (Degrade_ctl.granularity ctl ~base:8)

let test_controller_is_deterministic () =
  let run () =
    let ctl = Degrade_ctl.create () in
    feed ctl [ false; false; true; false; false; false ];
    ignore (Degrade_ctl.before_attempt ctl ~attempt:2);
    feed ctl [ false; true; true; true; true; true ];
    List.map
      (fun (d : Degrade_ctl.decision) ->
        (d.Degrade_ctl.seq, d.Degrade_ctl.d_state, d.Degrade_ctl.d_level,
         d.Degrade_ctl.d_cooldown_s, d.Degrade_ctl.d_reason))
      (Degrade_ctl.decisions ctl)
  in
  check_bool "same outcome sequence, same decisions" true (run () = run ())

(* The fixed policy is the other case of the same controller: over
   any outcome sequence the breaker stays closed at [Normal], nothing
   is logged, the budget is [max_attempts] and the k-th retry of a
   group backs off [b * 2^(k-1)]. *)
let prop_fixed_policy =
  QCheck.Test.make ~name:"Degrade_ctl.fixed never opens" ~count:300
    QCheck.(
      triple (int_range 1 8)
        (oneofl [ 0.0; 1e-7; 1e-6; 2.5e-6 ])
        (list_of_size Gen.(0 -- 64) bool))
    (fun (max_attempts, b, outcomes) ->
      let ctl =
        Degrade_ctl.create
          ~policy:(Degrade_ctl.fixed ~max_attempts ~backoff_s:b ())
          ()
      in
      let attempt = ref 1 in
      List.for_all
        (fun ok ->
          let backoff = Degrade_ctl.before_attempt ctl ~attempt:!attempt in
          let want =
            if !attempt = 1 then 0.0
            else
              (* the k-th retry is attempt k + 1 *)
              let k = !attempt - 1 in
              b *. (2.0 ** float_of_int (k - 1))
          in
          Degrade_ctl.record ctl ~ok;
          attempt :=
            if ok || !attempt >= max_attempts then 1 else !attempt + 1;
          backoff = want
          && Degrade_ctl.state ctl = Degrade_ctl.Closed
          && Degrade_ctl.level ctl = Degrade_ctl.Normal
          && Degrade_ctl.decisions ctl = []
          && Degrade_ctl.attempts_allowed ctl = max_attempts
          && Degrade_ctl.opens ctl = 0)
        outcomes)

let test_fixed_validates () =
  let rejects what f =
    check_bool what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "zero attempts" (fun () -> Degrade_ctl.fixed ~max_attempts:0 ());
  rejects "negative backoff" (fun () ->
      Degrade_ctl.fixed ~backoff_s:(-1e-6) ());
  check_bool "defaults" true
    (Degrade_ctl.fixed () = Degrade_ctl.Fixed { max_attempts = 3; backoff_s = 0.0 })

(* The committed cube-storm scenario, run in process as [chaos run]
   runs it (32 rows of 4096, s = 128, workload seed 1), pins the
   adaptive controller's whole storyline: three openings climb the
   ladder to [Shrink_exchange], the storm expires, a probe validates
   there and sustained success walks back down. Without that rung the
   third opening would land on [Shed_rows]. *)
let test_cube_storm_storyline () =
  let sc =
    match Chaos.load "../scenarios/cube-storm.chaos" with
    | Ok sc -> sc
    | Error e -> Alcotest.failf "cube-storm: %s" e
  in
  let batch = 32 and len = 4096 in
  let device =
    Device.create ~mode:Device.Functional ~fault:(Chaos.fault_config sc) ()
  in
  let ctl = Degrade_ctl.create () in
  let r =
    Resilient.batched_scan ~s:128 ~ctl ~chaos:(Chaos.arm sc) device ~batch
      ~len ~input:(Workload.Generators.sparse_ones ~seed:1 (batch * len))
  in
  Alcotest.(check (list string))
    "decision log"
    [
      "#0 open/shrink_groups (4.0 us cooldown): failure rate 0.50 >= 0.50 \
       over 4";
      "#1 half_open/shrink_groups: cooldown elapsed, half-open probe";
      "#2 open/switch_schedule (8.0 us cooldown): half-open probe failed";
      "#3 half_open/switch_schedule: cooldown elapsed, half-open probe";
      "#4 open/shrink_exchange (16.0 us cooldown): half-open probe failed";
      "#5 half_open/shrink_exchange: cooldown elapsed, half-open probe";
      "#6 closed/shrink_exchange: half-open probe validated";
      "#7 closed/switch_schedule: 4 consecutive successes, de-escalating";
      "#8 closed/shrink_groups: 4 consecutive successes, de-escalating";
    ]
    (List.map
       (Format.asprintf "%a" Degrade_ctl.pp_decision)
       (Degrade_ctl.decisions ctl));
  check_int "openings" 3 (Degrade_ctl.opens ctl);
  check_int "group attempts" 14 r.Resilient.group_attempts;
  check_int "rows replayed" 16 r.Resilient.replayed_rows;
  check_int "rows shed" 0 r.Resilient.shed_rows;
  check_int "rows done" batch (Checkpoint.done_count r.Resilient.checkpoint);
  check_bool "completes" true r.Resilient.bok

(* --- crash + resume, in process ------------------------------------ *)

let batch = 32
let len = 2048
let input = Array.init (batch * len) (fun i -> if i mod 53 = 0 then 1.0 else 0.0)

(* The crash storylines: a storm then a crash, a cube-scoped storm on
   a faulty base rate then a crash, and core attrition then a crash. *)
let crash_storylines =
  [
    ( "crash_resume",
      "name crash_resume\n\
       seed 11\n\
       at launch 1 storm rate=0.3 kinds=dropped_copy for=2\n\
       at launch 4 crash\n" );
    ( "storm_then_crash",
      "name storm_then_crash\n\
       seed 42\n\
       rate 0.0005\n\
       at launch 0 storm rate=0.7 kinds=dropped_copy,truncated_copy \
       scope=cube for=3\n\
       at launch 5 crash\n" );
    ( "attrition_crash",
      "name attrition_crash\n\
       seed 7\n\
       at launch 1 kill core=3\n\
       at launch 2 quarantine core=5 for=2\n\
       at launch 3 crash\n" );
  ]

let run_batched ?store ~skip_crashes sc =
  let device =
    Device.create ~mode:Device.Functional ~fault:(Chaos.fault_config sc) ()
  in
  let ctl = Degrade_ctl.create () in
  let ch = Chaos.arm ~skip_crashes sc in
  (Resilient.batched_scan ?store ~ctl ~chaos:ch device ~batch ~len ~input, ch)

let bytes_of r =
  Array.init (batch * len) (Global_tensor.get r.Resilient.y)

(* Two fresh runs of each storyline fire the same log and write the
   same bytes. *)
let test_storylines_are_deterministic () =
  List.iter
    (fun (name, text) ->
      let sc = parse_ok text in
      let a, ch_a = run_batched ~skip_crashes:true sc in
      let b, ch_b = run_batched ~skip_crashes:true sc in
      check_bool (name ^ ": same fired log") true
        (Chaos.fired ch_a = Chaos.fired ch_b);
      check_bool (name ^ ": same bytes") true (bytes_of a = bytes_of b))
    crash_storylines

let crash_resume_is_byte_identical (name, text) =
  let sc = parse_ok text in
  let check_bool what = check_bool (name ^ ": " ^ what)
  and check_int what = check_int (name ^ ": " ^ what) in
  (* reference storyline without the crash *)
  let ref_r, _ = run_batched ~skip_crashes:true sc in
  check_bool "reference completes" true ref_r.Resilient.bok;
  let path = Filename.temp_file "test_chaos_" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    (fun () ->
      let store = Checkpoint_store.create ~path ~rows:batch ~len () in
      (match run_batched ~store ~skip_crashes:false sc with
      | _ -> Alcotest.failf "%s: expected Host_crash mid-batch" name
      | exception Chaos.Host_crash _ -> ());
      let commits_at_crash = Checkpoint_store.commits store in
      check_bool "partial progress durable" true
        (commits_at_crash > 0 && commits_at_crash < batch);
      (* a fresh process: reopen and resume *)
      let resumed, l =
        match Checkpoint_store.reopen ~path with
        | Ok v -> v
        | Error e -> Alcotest.failf "%s: reopen: %s" name e
      in
      check_bool "no torn tail (atomic rename)" true
        (not l.Checkpoint_store.l_torn);
      let res_r, _ = run_batched ~store:resumed ~skip_crashes:true sc in
      check_bool "resume completes" true res_r.Resilient.bok;
      check_bool "rows were restored, not recomputed" true
        (res_r.Resilient.restored_rows > 0);
      check_int "no rows lost" batch
        (Checkpoint.done_count res_r.Resilient.checkpoint);
      (* the acceptance bar: byte-for-byte equal to the uninterrupted run *)
      check_bool "resume equals replay, byte for byte" true
        (bytes_of ref_r = bytes_of res_r);
      (* committed rows are never re-executed: the resume's new commits
         are row-disjoint from what the crashed run persisted *)
      let all = Checkpoint_store.groups resumed in
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
      check_int "zero re-executed committed rows" 0 !reexec)

let test_crash_resume_is_byte_identical () =
  List.iter crash_resume_is_byte_identical crash_storylines

(* A crashed run's store with its first record appended again: the
   copy overlaps the original, so reopening drops it as a damaged
   tail, the store counts the crashed run's commits, and the resume
   restores each durable row once and ends on the reference bytes. *)
let test_duplicated_record_resumes () =
  let name, text = List.hd crash_storylines in
  let sc = parse_ok text in
  let ref_r, _ = run_batched ~skip_crashes:true sc in
  let path = Filename.temp_file "test_chaos_dup_" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    (fun () ->
      let store = Checkpoint_store.create ~path ~rows:batch ~len () in
      (match run_batched ~store ~skip_crashes:false sc with
      | _ -> Alcotest.failf "%s: expected Host_crash mid-batch" name
      | exception Chaos.Host_crash _ -> ());
      let groups = Checkpoint_store.groups store in
      let lo, hi, _ = List.hd groups in
      let full = In_channel.with_open_bin path In_channel.input_all in
      (* header: magic, version, rows, len, meta length, empty meta, crc *)
      let header = 6 + 2 + 4 + 4 + 4 + 4 in
      let first = String.sub full header (12 + ((hi - lo) * len * 8) + 4) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (full ^ first));
      let resumed, l =
        match Checkpoint_store.reopen ~path with
        | Ok v -> v
        | Error e -> Alcotest.failf "reopen: %s" e
      in
      check_bool "duplicate dropped as torn" true l.Checkpoint_store.l_torn;
      check_int "commits" (List.length groups)
        (Checkpoint_store.commits resumed);
      let distinct =
        List.fold_left (fun acc (lo, hi, _) -> acc + hi - lo) 0 groups
      in
      let res_r, _ = run_batched ~store:resumed ~skip_crashes:true sc in
      check_bool "resume completes" true res_r.Resilient.bok;
      check_int "restored rows = distinct durable rows" distinct
        res_r.Resilient.restored_rows;
      check_bool "resume equals replay, byte for byte" true
        (bytes_of ref_r = bytes_of res_r))

let test_fully_covered_store_launches_nothing () =
  let sc = parse_ok "seed 1\n" in
  let path = Filename.temp_file "test_chaos_full_" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    (fun () ->
      let store = Checkpoint_store.create ~path ~rows:batch ~len () in
      let full, _ = run_batched ~store ~skip_crashes:true sc in
      check_bool "first run completes" true full.Resilient.bok;
      let resumed =
        match Checkpoint_store.reopen ~path with
        | Ok (st, _) -> st
        | Error e -> Alcotest.failf "reopen: %s" e
      in
      let res, _ = run_batched ~store:resumed ~skip_crashes:true sc in
      check_bool "resume completes" true res.Resilient.bok;
      check_int "every row restored" batch res.Resilient.restored_rows;
      check_int "zero launches" 0 res.Resilient.bstats.Stats.launches;
      check_bool "bytes still identical" true (bytes_of full = bytes_of res))

let test_trace_stays_consistent_under_chaos () =
  let sc =
    parse_ok "seed 5\nat launch 1 kill core=2\nat launch 2 storm rate=0.4 \
              kinds=dropped_copy for=2\n"
  in
  let device =
    Device.create ~mode:Device.Functional ~fault:(Chaos.fault_config sc) ()
  in
  let tr = Device.arm_trace device in
  let ctl = Degrade_ctl.create () in
  let ch = Chaos.arm ~skip_crashes:true sc in
  let r = Resilient.batched_scan ~ctl ~chaos:ch device ~batch ~len ~input in
  check_bool "completes" true r.Resilient.bok;
  (match Trace.check tr with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace inconsistent: %s" e);
  check_bool "chaos events visible in trace" true (Trace.mark_count tr > 0)

(* The multi-device actions are gone from the DSL: each is a
   line-numbered parse error, not an event that is noted and skipped. *)
let test_kill_device_rejected () =
  List.iter
    (fun text ->
      let e = parse_err text in
      check_bool (e ^ ": line 3") true (contains e "line 3");
      check_bool (e ^ ": names kill device") true (contains e "kill device=D"))
    [
      "name x\nseed 1\nat launch 1 kill device=3\n";
      "name x\nseed 1\nat launch 1 kill core=1 device=2\n";
    ]

let test_link_rejected () =
  let e = parse_err "name x\n\nat launch 2 link src=0 dst=1 for=2\n" in
  check_bool (e ^ ": line 3") true (contains e "line 3");
  check_bool (e ^ ": names link") true (contains e "link:")

(* Mutations of the committed scenarios: byte flips, dropped lines and
   duplicated lines. [Chaos.parse] must answer [Ok] or [Error] and
   never raise. *)
let scenario_texts =
  lazy
    (Sys.readdir "../scenarios" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".chaos")
    |> List.sort compare
    |> List.map (fun f ->
           In_channel.with_open_bin (Filename.concat "../scenarios" f)
             In_channel.input_all))

type edit = Flip_byte of int * int | Drop_line of int | Dup_line of int

let apply_edit text = function
  | Flip_byte (i, bit) ->
      let b = Bytes.of_string text in
      if Bytes.length b > 0 then begin
        let i = i mod Bytes.length b in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)))
      end;
      Bytes.to_string b
  | Drop_line i ->
      let lines = String.split_on_char '\n' text in
      let i = i mod List.length lines in
      String.concat "\n" (List.filteri (fun j _ -> j <> i) lines)
  | Dup_line i ->
      let lines = String.split_on_char '\n' text in
      let i = i mod List.length lines in
      String.concat "\n"
        (List.concat (List.mapi (fun j l -> if j = i then [ l; l ] else [ l ]) lines))

let edit_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun i b -> Flip_byte (i, b)) (int_range 0 10_000) (int_range 0 7);
        map (fun i -> Drop_line i) (int_range 0 100);
        map (fun i -> Dup_line i) (int_range 0 100);
      ])

let prop_mutated_scenarios_parse =
  let arb =
    QCheck.make
      ~print:(fun (f, edits) ->
        Printf.sprintf "scenario %d, %d edits" f (List.length edits))
      QCheck.Gen.(pair (int_range 0 100) (list_size (int_range 1 4) edit_gen))
  in
  QCheck.Test.make ~name:"mutated scenarios parse to Ok or Error" ~count:300
    arb (fun (f, edits) ->
      let texts = Lazy.force scenario_texts in
      QCheck.assume (texts <> []);
      let text =
        List.fold_left apply_edit (List.nth texts (f mod List.length texts)) edits
      in
      match Chaos.parse text with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "parse raised %s on %S"
            (Printexc.to_string e) text)

let test_committed_scenarios_parse () =
  let texts = Lazy.force scenario_texts in
  check_int "four committed scenarios" 4 (List.length texts);
  List.iter (fun t -> ignore (parse_ok t)) texts

let () =
  Alcotest.run "chaos"
    [
      ( "parser",
        [
          Alcotest.test_case "full scenario" `Quick test_parse_full_scenario;
          Alcotest.test_case "errors carry line numbers" `Quick
            test_parse_errors_carry_line_numbers;
          Alcotest.test_case "kill device rejected" `Quick
            test_kill_device_rejected;
          Alcotest.test_case "link rejected" `Quick test_link_rejected;
          Alcotest.test_case "committed scenarios parse" `Quick
            test_committed_scenarios_parse;
          QCheck_alcotest.to_alcotest prop_mutated_scenarios_parse;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "deterministic" `Quick (fun () ->
              test_scheduler_is_deterministic ();
              test_storylines_are_deterministic ());
          Alcotest.test_case "quarantine revives" `Quick test_quarantine_revives;
          Alcotest.test_case "storm restores policy" `Quick
            test_storm_restores_base_policy;
          Alcotest.test_case "crash raises" `Quick test_crash_raises_host_crash;
        ] );
      ( "degrade_ctl",
        [
          Alcotest.test_case "breaker opens and recovers" `Quick
            test_breaker_opens_and_recovers;
          Alcotest.test_case "failed probe doubles cooldown" `Quick
            test_failed_probe_doubles_cooldown;
          Alcotest.test_case "ladder reaches shedding" `Quick
            test_ladder_escalates_to_shedding;
          Alcotest.test_case "deterministic decisions" `Quick
            test_controller_is_deterministic;
          QCheck_alcotest.to_alcotest prop_fixed_policy;
          Alcotest.test_case "fixed validates" `Quick test_fixed_validates;
          Alcotest.test_case "cube-storm storyline" `Quick
            test_cube_storm_storyline;
        ] );
      ( "crash_resume",
        [
          Alcotest.test_case "byte-identical resume" `Quick
            test_crash_resume_is_byte_identical;
          Alcotest.test_case "full store launches nothing" `Quick
            test_fully_covered_store_launches_nothing;
          Alcotest.test_case "duplicated record resumes" `Quick
            test_duplicated_record_resumes;
          Alcotest.test_case "trace stays consistent" `Quick
            test_trace_stays_consistent_under_chaos;
        ] );
    ]
