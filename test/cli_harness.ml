(* CLI harness: exit codes and error lines of ascend_scan_cli.

   - [run --op]: every [--list-ops] entry exits 0 functionally (with
     every device, fault and observability flag given) and on
     [--cost-only] (with every parameter it declares), and its [--trace]
     passes [trace validate]. A per-op flag the entry does not declare,
     and each out-of-range parameter, exits 2 with one error line (plus
     the usage pointer).
   - [profile]: a small trace, then truncated and byte-flipped copies of
     it. Every rejection exits 2 the same way, never with an uncaught
     exception, and a flip the profiler accepts still exits 0.

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

(* Run the CLI; its exit code, stdout and stderr lines. *)
let run_cli args =
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
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
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
    [ "--op"; "topp"; "--check" ];
    [ "--op"; "split"; "--resilient" ];
  ]

let check_run () =
  let entries = list_ops () in
  if List.length entries < 18 then
    fail "--list-ops lists %d entries" (List.length entries);
  List.iter check_entry entries;
  List.iter
    (fun args ->
      expect_usage ~what:(String.concat " " args) ("run" :: args))
    out_of_range

(* ------------------------------------------------------------------ *)
(* profile                                                             *)

(* Profile [bytes]; [expect] is [`Reject] (exit 2) or [`Either] (exit 0,
   or exit 2 as for [`Reject]). *)
let profile ~what ~expect bytes =
  let file = Filename.temp_file "cli_harness" ".json" in
  write_file file bytes;
  let code, _, lines = run_cli [ "profile"; file; "-o"; "none" ] in
  Sys.remove file;
  match (code, lines) with
  | 0, _ when expect = `Either -> ()
  | 2, [ e; u ] when is_error_line e && is_usage_line u -> ()
  | _ ->
      fail "%s: exit %d, stderr:\n  %s" what code (String.concat "\n  " lines)

let index_of ~sub s =
  let m = String.length sub in
  let rec go i =
    if i + m > String.length s then raise Not_found
    else if String.sub s i m = sub then i
    else go (i + 1)
  in
  go 0

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
  let ph = {|"cat":"launch","ph":"|} in
  profile ~what:"launch span ph X->Y" ~expect:`Reject
    (flip good (index_of ~sub:ph good + String.length ph) 0x01);
  (* Seeded random single-bit flips: accepted or rejected cleanly. *)
  let st = Random.State.make [| 2025 |] in
  for k = 1 to 40 do
    let i = Random.State.int st len and bit = Random.State.int st 8 in
    profile
      ~what:(Printf.sprintf "random flip %d (byte %d, bit %d)" k i bit)
      ~expect:`Either (flip good i (1 lsl bit))
  done

let () =
  check_run ();
  check_profile ();
  if !failures > 0 then begin
    Printf.eprintf "cli_harness: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline
    "cli_harness: every operator runs; bad flags and corrupted traces exit 2"
