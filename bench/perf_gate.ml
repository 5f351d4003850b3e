(* Perf-regression gate: compare a fresh BENCH_8 smoke run against the
   committed baseline JSON and fail (exit 1) when the host-normalised
   MCScan ns_per_run regressed by more than the threshold.

   Usage: perf_gate BASELINE.json CURRENT.json [--threshold-pct N]
   (a malformed command line exits 2 with the usage line)

   Both files are BENCH_8.json documents from bench/bench_domains.ml
   (the current one typically produced with --smoke). Machine speed is
   factored out by dividing each ns_per_run by its file's
   calibration_ns — the fixed pure-OCaml loop both runs timed on their
   own host — so a slower CI machine does not register as a
   regression and a faster one does not mask a real slowdown.

   Both documents are read through Obs.Jsonw. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let parse_doc path text =
  match Obs.Jsonw.parse text with
  | Ok doc -> doc
  | Error e -> fail "%s: invalid JSON: %s" path e

let number doc ~path key =
  match Option.bind (Obs.Jsonw.member key doc) Obs.Jsonw.number_opt with
  | Some v -> v
  | None -> fail "%s: numeric field \"%s\" not found" path key

(* ns_per_run of the domains=1 row: the first row bench_domains emits. *)
let mcscan_d1 doc ~path =
  match Option.bind (Obs.Jsonw.member "mcscan" doc) Obs.Jsonw.to_list_opt with
  | Some (row :: _) -> number row ~path "ns_per_run"
  | _ -> fail "%s: field \"mcscan\" has no rows" path

let usage () =
  prerr_endline
    "usage: perf_gate BASELINE.json CURRENT.json [--threshold-pct N]";
  exit 2

let () =
  let threshold = ref None in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold-pct" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when Float.is_finite t -> threshold := Some t
        | _ ->
            prerr_endline ("perf_gate: bad --threshold-pct value " ^ v);
            usage ());
        parse rest
    | x :: rest ->
        files := x :: !files;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path, current_path =
    match List.rev !files with [ b; c ] -> (b, c) | _ -> usage ()
  in
  let baseline = parse_doc baseline_path (read_file baseline_path) in
  let current = parse_doc current_path (read_file current_path) in
  let threshold_pct = Option.value ~default:25.0 !threshold in
  let norm doc path =
    let cal = number doc ~path "calibration_ns" in
    if cal <= 0.0 then fail "%s: calibration_ns must be positive" path;
    let ns = mcscan_d1 doc ~path in
    (ns, cal, ns /. cal)
  in
  let base_ns, base_cal, base_norm = norm baseline baseline_path in
  let cur_ns, cur_cal, cur_norm = norm current current_path in
  let change_pct = (cur_norm /. base_norm -. 1.0) *. 100.0 in
  Printf.printf
    "perf gate: mcscan d=1\n\
    \  baseline  %12.0f ns/run  (calibration %8.0f ns, normalised %8.3f)\n\
    \  current   %12.0f ns/run  (calibration %8.0f ns, normalised %8.3f)\n\
    \  change    %+.1f%%  (threshold +%.0f%%)\n%!"
    base_ns base_cal base_norm cur_ns cur_cal cur_norm change_pct threshold_pct;
  if change_pct > threshold_pct then
    fail
      "perf gate FAILED: normalised mcscan ns_per_run regressed %.1f%% (> \
       %.0f%% threshold)"
      change_pct threshold_pct;
  print_endline "perf gate OK"
