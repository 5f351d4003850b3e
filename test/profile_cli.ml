(* The CLI's offline [profile] on corrupted trace files. Records a
   small trace with [scan --trace], then profiles truncated and
   byte-flipped copies of it: every rejection must exit 2 with one
   error line (plus the usage pointer), never an uncaught exception,
   and a flip the profiler accepts must still exit 0.

   Usage: profile_cli.exe PATH/TO/ascend_scan_cli.exe *)

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

(* Run the CLI with stdout discarded; its exit code and stderr lines. *)
let run_cli args =
  let err = Filename.temp_file "profile_cli" ".err" in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin null fd
  in
  Unix.close null;
  Unix.close fd;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
  in
  let lines =
    String.split_on_char '\n' (read_file err) |> List.filter (( <> ) "")
  in
  Sys.remove err;
  (code, lines)

let is_error_line l =
  String.starts_with ~prefix:"ascend_scan_cli: error: " l

let is_usage_line l = String.starts_with ~prefix:"usage: " l

(* Profile [bytes]; [expect] is [`Reject] (exit 2) or [`Either] (exit 0,
   or exit 2 as for [`Reject]). *)
let profile ~what ~expect bytes =
  let file = Filename.temp_file "profile_cli" ".json" in
  write_file file bytes;
  let code, lines = run_cli [ "profile"; file; "-o"; "none" ] in
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

let () =
  let trace = Filename.temp_file "profile_cli" ".trace.json" in
  let code, _ =
    run_cli [ "scan"; "--algo"; "mcscan"; "-n"; "4096"; "--trace"; trace ]
  in
  if code <> 0 then fail "recording the trace exited %d" code;
  let good = read_file trace in
  Sys.remove trace;
  let n = String.length good in
  profile ~what:"intact trace" ~expect:`Either good;
  (match run_cli [ "profile"; "/nonexistent/trace.json" ] with
  | 2, [ e; u ] when is_error_line e && is_usage_line u -> ()
  | c, _ -> fail "missing file: exit %d" c);
  (* Truncations: every prefix is malformed JSON. *)
  List.iter
    (fun len ->
      profile ~what:(Printf.sprintf "truncated to %d bytes" len) ~expect:`Reject
        (String.sub good 0 len))
    [ 0; 1; n / 3; n / 2; n - 2; n - 1 ];
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
    let i = Random.State.int st n and bit = Random.State.int st 8 in
    profile
      ~what:(Printf.sprintf "random flip %d (byte %d, bit %d)" k i bit)
      ~expect:`Either (flip good i (1 lsl bit))
  done;
  if !failures > 0 then begin
    Printf.eprintf "profile_cli: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "profile_cli: corrupted traces rejected with exit 2"
