(* CLI harness: exit codes and error lines of ascend_scan_cli.

   - [run --op]: every [--list-ops] entry exits 0 functionally (with
     every device, fault and observability flag given), under [--check]
     at the default N, and on [--cost-only] (with every parameter it
     declares), and its [--trace] passes [trace validate]. [--check]
     exits 1 with [check: FAILED] when injected faults corrupt a
     split. [--check --cost-only], a per-op flag the entry does not
     declare, each out-of-range parameter, a [--batch] that does not
     divide N, and an output path that cannot be written ([--trace],
     [--stats-json], [--profile], [chaos run --store]) exits 2 with one
     error line (plus the usage pointer).
   - [profile] and [trace summary]: a small trace, then truncated and
     byte-flipped copies of it, an empty event list and a document of
     the retired pod-trace schema. Every rejection exits 2 the same
     way, never with an uncaught exception, and a flip the profiler
     accepts still exits 0.
   - Live = offline: [run --profile P --metrics] (the recorder's
     records, no export) writes the same bytes as [profile T -o Q] of
     the trace [run --trace T --metrics] writes, prints the same
     report, and its metrics text equals the traced run's, for mcscan
     and for scanu with core 0 killed at cycle 3000.
   - [chaos report]: a scenario using a retired multi-device action
     ([kill device=D], [link ...]) exits 2.
   - Argument mutations: 120 seeded cases, one process at a time, each
     a valid command with one token dropped, duplicated, swapped with
     another or replaced by a negative, huge, empty or non-numeric
     value. The commands are [run --op] for every entry with its
     declared parameters at N = 4096, and [chaos report] and [chaos run
     --crash-mode raise] on the committed scenarios. Each case must
     exit 0, 1 or 2 within 10 s, with no uncaught exception or
     backtrace.
   - Bad values that would run: a NaN [--theta] or [-p], [-p 0], and a
     tile size [-s] past the limit of every entry that declares it (and
     of [chaos run]) must each exit 2 like any other out-of-range
     parameter.

   Usage: cli_harness.exe PATH/TO/ascend_scan_cli.exe *)

let cli = Sys.argv.(1)
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("FAIL: " ^ s))
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* The child's status, or [None] once [timeout] seconds have passed
   (the child is then killed). *)
let wait_child ?timeout pid =
  match timeout with
  | None -> Some (snd (Unix.waitpid [] pid))
  | Some t ->
      let deadline = Unix.gettimeofday () +. t in
      let rec poll () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () > deadline ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            None
        | 0, _ ->
            Unix.sleepf 0.002;
            poll ()
        | _, st -> Some st
      in
      poll ()

(* Run the CLI; its exit code (-1 on a [timeout]), stdout and stderr
   lines. *)
let run_cli ?timeout args =
  let out = Filename.temp_file "cli_harness" ".out" in
  let err = Filename.temp_file "cli_harness" ".err" in
  let open_w f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fo = open_w out and fe = open_w err in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin fo fe
  in
  Unix.close fo;
  Unix.close fe;
  let code =
    match wait_child ?timeout pid with
    | Some (Unix.WEXITED c) -> c
    | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 128 + s
    | None -> -1
  in
  let stdout = read_file out in
  let lines =
    String.split_on_char '\n' (read_file err) |> List.filter (( <> ) "")
  in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, lines)

let is_error_line l =
  String.starts_with ~prefix:"ascend_scan_cli: error: " l

let is_usage_line l = String.starts_with ~prefix:"usage: " l

let expect_ok ~what args =
  match run_cli args with
  | 0, _, _ -> ()
  | c, _, lines ->
      fail "%s: exit %d, stderr:\n  %s" what c (String.concat "\n  " lines)

let expect_usage ~what args =
  match run_cli args with
  | 2, _, [ e; u ] when is_error_line e && is_usage_line u -> ()
  | c, _, lines ->
      fail "%s: exit %d, stderr:\n  %s" what c (String.concat "\n  " lines)

(* ------------------------------------------------------------------ *)
(* run --op                                                            *)

let n = "4096"

(* Every per-op parameter flag, with a value each declaring entry
   accepts at [n]. *)
let param_args =
  [
    ("s", [ "-s"; "64" ]);
    ("exclusive", [ "--exclusive" ]);
    ("bits", [ "--bits"; "16" ]);
    ("k", [ "-k"; "4" ]);
    ("p", [ "-p"; "0.5" ]);
    ("theta", [ "--theta"; "0.5" ]);
    ("devices", [ "--devices"; "2" ]);
    ("batch", [ "--batch"; "2" ]);
  ]

(* (name, declared params) per row of the --list-ops table. *)
let list_ops () =
  let code, out, _ = run_cli [ "--list-ops" ] in
  if code <> 0 then fail "--list-ops exited %d" code;
  String.split_on_char '\n' out
  |> List.filter_map (fun line ->
         match String.split_on_char '|' line |> List.map String.trim with
         | [ ""; name; _; _; _; _; params; _; "" ]
           when name <> "Operator" && name <> "---" ->
             let params =
               if params = "-" then []
               else List.map String.trim (String.split_on_char ',' params)
             in
             Some (name, params)
         | _ -> None)

let check_entry (name, params) =
  let run args = [ "run"; "--op"; name; "-n"; n ] @ args in
  let trace = Filename.temp_file "cli_harness" ".trace.json" in
  let stats = Filename.temp_file "cli_harness" ".stats.json" in
  let profile = Filename.temp_file "cli_harness" ".profile.json" in
  expect_ok ~what:(name ^ " functional, every shared flag")
    (run
       [ "--trace"; trace; "--stats-json"; stats; "--metrics"; "--profile";
         profile; "--sanitize"; "--inject-faults"; "7:0"; "--kill-core";
         "1@0"; "--quarantine"; "3"; "--deadline"; "1e12"; "--domains"; "2" ]);
  expect_ok ~what:(name ^ " trace validate") [ "trace"; "validate"; trace ];
  expect_ok ~what:(name ^ " --check") [ "run"; "--op"; name; "--check" ];
  List.iter Sys.remove [ trace; stats; profile ];
  expect_ok ~what:(name ^ " --cost-only, every declared param")
    (run ("--cost-only" :: List.concat_map (fun p -> List.assoc p param_args) params));
  match List.find_opt (fun (p, _) -> not (List.mem p params)) param_args with
  | Some (p, args) -> expect_usage ~what:(name ^ " undeclared " ^ p) (run args)
  | None -> fail "%s declares every parameter" name

(* Out-of-range parameters: usage errors, not runtime failures. *)
let out_of_range =
  [
    [ "--op"; "topp"; "-p"; "1.5" ];
    [ "--op"; "topp"; "--theta"; "2" ];
    [ "--op"; "weighted_sampling"; "--theta"; "2" ];
    [ "--op"; "topk"; "-k"; "0" ];
    [ "--op"; "topk"; "-n"; n; "-k"; "4097" ];
    [ "--op"; "radix_select"; "-n"; "100"; "-k"; "101" ];
    [ "--op"; "radix_sort"; "--bits"; "0" ];
    [ "--op"; "radix_sort"; "--bits"; "40" ];
    [ "--op"; "mcscan"; "-s"; "7" ];
    [ "--op"; "topp"; "-n"; "0" ];
    [ "--op"; "topk"; "-n"; "0" ];
    [ "--op"; "cube_reduce"; "-n"; "0" ];
    [ "--op"; "batched_u"; "--batch"; "0" ];
    [ "--op"; "dist_scan"; "--devices"; "0" ];
    [ "--op"; "dist_scan"; "-n"; "100"; "--devices"; "101" ];
    [ "--op"; "dist_scan"; "--devices"; "4611686018427387903" ];
    [ "--op"; "mcscan"; "-n"; "128"; "--deadline=-5" ];
    [ "--op"; "topp"; "--check"; "--cost-only" ];
    [ "--op"; "mcscan"; "--check"; "--cost-only" ];
    [ "--op"; "split"; "--resilient" ];
    [ "--op"; "batched_u"; "-n"; "100"; "--batch"; "3" ];
    (* Unwritable output paths. *)
    [ "--op"; "mcscan"; "-n"; "128"; "--trace"; "/nonexistent/x.json" ];
    [ "--op"; "mcscan"; "-n"; "128"; "--stats-json"; "/nonexistent/x.json" ];
    [ "--op"; "mcscan"; "-n"; "128"; "--profile"; "/nonexistent/x.json" ];
  ]

let check_run () =
  let entries = list_ops () in
  if List.length entries < 18 then
    fail "--list-ops lists %d entries" (List.length entries);
  List.iter check_entry entries;
  List.iter
    (fun args ->
      expect_usage ~what:(String.concat " " args) ("run" :: args))
    out_of_range;
  let scenario = Filename.temp_file "cli_harness" ".chaos" in
  write_file scenario "name unwritable-store\nseed 1\n";
  expect_usage ~what:"chaos run, unwritable --store"
    [ "chaos"; "run"; "--scenario"; scenario; "--store"; "/nonexistent/d/x" ];
  List.iter
    (fun action ->
      write_file scenario ("name retired\nseed 1\nat launch 1 " ^ action ^ "\n");
      expect_usage ~what:("chaos report, " ^ action)
        [ "chaos"; "report"; "--scenario"; scenario ])
    [ "kill device=1"; "link src=0 dst=1 for=2" ];
  Sys.remove scenario

(* ------------------------------------------------------------------ *)
(* profile and trace summary                                           *)

let index_of_opt ~sub s =
  let m = String.length sub in
  let rec go i =
    if i + m > String.length s then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let contains ~sub s = Option.is_some (index_of_opt ~sub s)

(* Feed [bytes] to [profile] and to [trace summary], which read a trace
   file the same way; [expect] is [`Reject] (exit 2) or [`Either] (exit
   0, or exit 2 as for [`Reject]); a [needle] must appear in the error
   line. *)
let profile ?(needle = "") ~what ~expect bytes =
  let file = Filename.temp_file "cli_harness" ".json" in
  write_file file bytes;
  List.iter
    (fun args ->
      let code, _, lines = run_cli args in
      match (code, lines) with
      | 0, _ when expect = `Either -> ()
      | 2, [ e; u ]
        when is_error_line e && is_usage_line u
             && (needle = "" || Option.is_some (index_of_opt ~sub:needle e)) ->
          ()
      | _ ->
          fail "%s, %s: exit %d, stderr:\n  %s" (List.hd args) what code
            (String.concat "\n  " lines))
    [ [ "profile"; file; "-o"; "none" ]; [ "trace"; "summary"; file ] ];
  Sys.remove file


let flip bytes i mask =
  let b = Bytes.of_string bytes in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
  Bytes.to_string b

let check_profile () =
  let trace = Filename.temp_file "cli_harness" ".trace.json" in
  expect_ok ~what:"recording the trace"
    [ "run"; "--op"; "mcscan"; "-n"; n; "--trace"; trace ];
  let good = read_file trace in
  Sys.remove trace;
  let len = String.length good in
  profile ~what:"intact trace" ~expect:`Either good;
  expect_usage ~what:"missing file" [ "profile"; "/nonexistent/trace.json" ];
  (* Truncations: every prefix is malformed JSON. *)
  List.iter
    (fun l ->
      profile ~what:(Printf.sprintf "truncated to %d bytes" l) ~expect:`Reject
        (String.sub good 0 l))
    [ 0; 1; len / 3; len / 2; len - 2; len - 1 ];
  (* Targeted flips: JSON syntax, and a launch span's "ph":"X" made
     "Y" — valid JSON that profiled as an empty DAG before the schema
     check. *)
  profile ~what:"flipped opening brace" ~expect:`Reject (flip good 0 0x01);
  profile ~what:"no events" ~expect:`Reject {|{"traceEvents":[]}|};
  let ph = {|"cat":"launch","ph":"|} in
  profile ~what:"launch span ph X->Y" ~expect:`Reject
    (flip good (Option.get (index_of_opt ~sub:ph good) + String.length ph) 0x01);
  (* A valid Chrome trace of the retired multi-device pod schema: a
     typed error naming the schema, not a profile of the wrong DAG. *)
  profile ~what:"pod-trace schema" ~expect:`Reject
    ~needle:{|schema "ascend-pod-trace-1"|}
    {|{"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"pod"}},
{"name":"local scans","cat":"phase","ph":"X","pid":0,"tid":0,"ts":0,"dur":1.5,
 "args":{"launch":"dist_scan","index":0,"bound":"compute"}},
{"name":"shard 0: local scan","cat":"local_scan","ph":"X","pid":1,"tid":0,"ts":0,"dur":1.5}],
"otherData":{"schema":"ascend-pod-trace-1"}}|};
  (* Seeded random single-bit flips: accepted or rejected cleanly. *)
  let st = Random.State.make [| 2025 |] in
  for k = 1 to 40 do
    let i = Random.State.int st len and bit = Random.State.int st 8 in
    profile
      ~what:(Printf.sprintf "random flip %d (byte %d, bit %d)" k i bit)
      ~expect:`Either (flip good i (1 lsl bit))
  done

(* A live run profiles the recorder's records; [profile] decodes the
   trace file a run writes. Both must print and write the same
   profile, and the --metrics text must not depend on --trace. *)
let check_live_profile () =
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let p = Filename.temp_file "cli_harness" ".live.json" in
      let t = Filename.temp_file "cli_harness" ".trace.json" in
      let q = Filename.temp_file "cli_harness" ".offline.json" in
      let run extra = run_cli (("run" :: args) @ extra) in
      (match
         ( run [ "--profile"; p; "--metrics" ],
           run [ "--trace"; t; "--metrics" ],
           run_cli [ "profile"; t; "-o"; q ] )
       with
      | (0, live, _), (0, traced, _), (0, offline, _) ->
          if read_file p <> read_file q then
            fail "%s: --profile document differs from profile of its --trace" what;
          (* The Prometheus text, less the host wall-clock. *)
          let metrics out =
            match index_of_opt ~sub:"# HELP " out with
            | Some i ->
                String.sub out i (String.length out - i)
                |> String.split_on_char '\n'
                |> List.filter (fun l -> not (contains ~sub:"host_seconds" l))
                |> String.concat "\n"
            | None -> ""
          in
          if metrics live = "" || metrics live <> metrics traced then
            fail "%s: --metrics text differs with and without --trace" what;
          (* The offline report, up to its "profile json -> FILE" line. *)
          let report =
            match index_of_opt ~sub:"profile json -> " offline with
            | Some i -> String.sub offline 0 i
            | None -> offline
          in
          if report = "" || not (contains ~sub:report live) then
            fail "%s: --profile report differs from profile of its --trace" what
      | (a, _, _), (b, _, _), (c, _, _) ->
          fail "%s: live and offline profile exit %d, %d, %d" what a b c);
      List.iter Sys.remove [ p; t; q ])
    [
      [ "--op"; "mcscan"; "-n"; n ];
      [ "--op"; "scanu"; "-n"; "30000"; "--kill-core"; "0@3000" ];
    ]

(* ------------------------------------------------------------------ *)
(* Argument mutations                                                  *)

type mutation =
  | Drop of int
  | Dup of int
  | Swap of int * int
  | Replace of int * string

(* A negative, huge, empty or non-numeric value. *)
let bad_values =
  [ "-1"; "-4096"; "4611686018427387903"; "1e308"; ""; "abc"; "nan" ]

(* A valid command: [head] is the subcommand, never mutated; [tail]
   is the flags and values a mutation edits. *)
let fuzz_bases entries scenarios =
  List.map
    (fun (name, params) ->
      ( [ "run" ],
        [ "--op"; name; "-n"; n ]
        @ List.concat_map (fun p -> List.assoc p param_args) params ))
    entries
  @ List.concat_map
      (fun file ->
        [
          ([ "chaos"; "report" ], [ "--scenario"; file ]);
          ([ "chaos"; "run" ], [ "--scenario"; file; "--crash-mode"; "raise" ]);
        ])
      scenarios

let mutation_gen st tail =
  let k = List.length tail in
  let i = Random.State.int st k in
  match Random.State.int st 4 with
  | 0 -> Drop i
  | 1 -> Dup i
  | 2 -> Swap (i, Random.State.int st k)
  | _ ->
      (* N stays at most 4096: a huge N is a long simulation, not a
         malformed argument. *)
      let values =
        if i > 0 && List.nth tail (i - 1) = "-n" then
          List.filter (fun v -> v <> "4611686018427387903" && v <> "1e308")
            bad_values
        else bad_values
      in
      Replace (i, List.nth values (Random.State.int st (List.length values)))

let apply tail = function
  | Drop i -> List.filteri (fun j _ -> j <> i) tail
  | Dup i -> List.concat (List.mapi (fun j t -> if j = i then [ t; t ] else [ t ]) tail)
  | Swap (i, j) ->
      let a = List.nth tail i and b = List.nth tail j in
      List.mapi (fun k t -> if k = i then b else if k = j then a else t) tail
  | Replace (i, v) -> List.mapi (fun j t -> if j = i then v else t) tail

(* Values a mutation can make that parse and used to run: each must be
   a usage error, exit 2. 182 is the smallest even tile size past every
   entry's limit (128 for f16 tiles, 180 for i8 flag scans), 4096 far
   past it at a small N. *)
let check_bad_values entries =
  let run args = "run" :: "--op" :: args in
  List.iter
    (fun args -> expect_usage ~what:(String.concat " " args) (run args))
    [
      [ "topp"; "-n"; n; "-p"; "0.9"; "--theta"; "nan" ];
      [ "topp"; "-n"; n; "-p"; "nan"; "--theta"; "0.3" ];
      [ "topp"; "-n"; n; "-p"; "0"; "--theta"; "0.3" ];
      [ "weighted_sampling"; "-n"; n; "--theta"; "nan" ];
    ];
  List.iter
    (fun (name, params) ->
      if List.mem "s" params then
        List.iter
          (fun (len, s) ->
            let args =
              [ name; "-n"; len; "-s"; s ]
              @ List.concat_map
                  (fun p -> if p = "s" then [] else List.assoc p param_args)
                  params
            in
            expect_usage ~what:(String.concat " " args) (run args))
          [ (n, "182"); ("64", "4096") ])
    entries;
  expect_usage ~what:"chaos run -s 182"
    [ "chaos"; "run"; "--scenario"; "../scenarios/cube-storm.chaos";
      "--crash-mode"; "raise"; "-s"; "182" ]

let check_fuzz () =
  let entries = list_ops () in
  check_bad_values entries;
  let scenarios =
    Sys.readdir "../scenarios" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".chaos")
    |> List.sort compare
    |> List.map (Filename.concat "../scenarios")
  in
  if scenarios = [] then fail "fuzz: no committed scenarios";
  let bases = Array.of_list (fuzz_bases entries scenarios) in
  let st = Random.State.make [| 28 |] in
  for case = 0 to 119 do
    let head, tail = bases.(case mod Array.length bases) in
    let args = head @ apply tail (mutation_gen st tail) in
    let code, stdout, lines = run_cli ~timeout:10.0 args in
    let out = stdout ^ String.concat "\n" lines in
    let what = String.concat " " (List.map (Printf.sprintf "%S") args) in
    if code = -1 then fail "fuzz %d (%s): no exit within 10 s" case what
    else if code < 0 || code > 2 then
      fail "fuzz %d (%s): exit %d, stderr:\n  %s" case what code
        (String.concat "\n  " lines)
    else if
      List.exists (fun sub -> contains ~sub out)
        [ "Fatal error"; "Raised at"; "Called from"; "Re-raised at" ]
    then
      fail "fuzz %d (%s): exception or backtrace:\n  %s" case what
        (String.concat "\n  " lines)
  done

(* A fault that corrupts a non-scan entry's output: its oracle catches
   it. *)
let check_catches_fault () =
  match
    run_cli
      [ "run"; "--op"; "split"; "-n"; n; "--inject-faults"; "2:0.01"; "--check" ]
  with
  | 1, out, _ when contains ~sub:"check: FAILED" out -> ()
  | c, _, lines ->
      fail "split --inject-faults 2:0.01 --check: exit %d, stderr:\n  %s" c
        (String.concat "\n  " lines)

let () =
  check_run ();
  check_catches_fault ();
  check_profile ();
  check_live_profile ();
  check_fuzz ();
  if !failures > 0 then begin
    Printf.eprintf "cli_harness: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline
    "cli_harness: every operator runs; bad flags and corrupted traces exit 2"
