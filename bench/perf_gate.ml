(* Perf-regression gate: compare a fresh BENCH_8 smoke run against the
   committed baseline JSON and fail (exit 1) when the host-normalised
   MCScan ns_per_run regressed by more than the threshold.

   Usage: perf_gate BASELINE.json CURRENT.json [--threshold-pct N]

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

(* --sim mode: simulated-cycle regression over BENCH_9 / BENCH_10
   documents. Cycles are deterministic model outputs — the same commit
   always produces the same numbers on any host — so the default
   threshold is 0: any increase in any cycles field is a regression.
   Rows are paired positionally; both files must come from the same
   bench (the emitters are deterministic, so equal row counts and
   order are guaranteed for the same bench version). *)

(* Every numeric member whose key ends in "cycles", in document
   order. *)
let all_cycles doc =
  let rec walk acc = function
    | Obs.Jsonw.Obj members ->
        List.fold_left
          (fun acc (key, v) ->
            let acc =
              match Obs.Jsonw.number_opt v with
              | Some x when String.ends_with ~suffix:"cycles" key ->
                  (key, x) :: acc
              | _ -> acc
            in
            walk acc v)
          acc members
    | Obs.Jsonw.List items -> List.fold_left walk acc items
    | _ -> acc
  in
  List.rev (walk [] doc)

let sim_gate ~threshold_pct baseline baseline_path current current_path =
  let base = all_cycles baseline and cur = all_cycles current in
  if base = [] then fail "%s: no cycles fields found" baseline_path;
  if List.length base <> List.length cur then
    fail "%s vs %s: row mismatch (%d vs %d cycles fields) -- same bench?"
      baseline_path current_path (List.length base) (List.length cur);
  (* A current run that failed its own internal gate is a regression
     regardless of the baseline. *)
  if Obs.Jsonw.member "gate_ok" current = Some (Obs.Jsonw.Bool false) then
    fail "%s: gate_ok is false" current_path;
  let worst = ref 0.0 in
  let failures = ref 0 in
  List.iter2
    (fun (bk, bv) (ck, cv) ->
      if bk <> ck then
        fail "%s vs %s: field order differs (%s vs %s)" baseline_path
          current_path bk ck;
      let change_pct = if bv > 0.0 then (cv /. bv -. 1.0) *. 100.0 else 0.0 in
      if change_pct > !worst then worst := change_pct;
      if change_pct > threshold_pct then begin
        incr failures;
        Printf.printf "  REGRESSED %-18s %12.0f -> %12.0f  (%+.2f%%)\n" bk bv
          cv change_pct
      end)
    base cur;
  Printf.printf
    "perf gate (sim): %d cycles fields compared, worst change %+.2f%% \
     (threshold +%g%%)\n"
    (List.length base) !worst threshold_pct;
  if !failures > 0 then
    fail "perf gate FAILED: %d simulated-cycle field(s) regressed" !failures;
  print_endline "perf gate OK"

let () =
  let threshold = ref None in
  let sim = ref false in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold-pct" :: v :: rest ->
        threshold := Some (float_of_string v);
        parse rest
    | "--sim" :: rest ->
        sim := true;
        parse rest
    | x :: rest ->
        files := x :: !files;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path, current_path =
    match List.rev !files with
    | [ b; c ] -> (b, c)
    | _ ->
        fail
          "usage: perf_gate [--sim] BASELINE.json CURRENT.json \
           [--threshold-pct N]"
  in
  let baseline = parse_doc baseline_path (read_file baseline_path) in
  let current = parse_doc current_path (read_file current_path) in
  if !sim then begin
    (* Deterministic cycles: exact match expected by default. *)
    let threshold_pct = Option.value ~default:0.0 !threshold in
    sim_gate ~threshold_pct baseline baseline_path current current_path;
    exit 0
  end;
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
