(* Profiler prediction benchmark (BENCH_10): does the critical-path
   profiler's structural "pipelined overlap" what-if, computed from a
   SERIAL trace alone, predict the measured serial -> triple MCScan
   improvement of BENCH_9?

   For each size: run MCScan under the Serial schedule with tracing,
   reconstruct the launch DAG from the trace JSON bytes
   (Critical_path.of_json on the exact Chrome export — no simulator
   state crosses over), re-time it under Whatif.Pipeline, and compare
   the predicted gain against the gain measured by actually running
   the Triple schedule. Everything is deterministic simulated cycles,
   so the gate is exact: the prediction must land within
   [tolerance_pts] percentage points of the measurement at every size,
   else exit 1.

   The measured quantity matches BENCH_9: sum of per-phase compute
   cycles (launch latency and SyncAll are schedule-invariant).

   Usage: bench_profile.exe [BENCH_10.json] [--tolerance-pts 5] *)

open Ascend

let sizes = [ 65536; 262144; 1048576 ]
let data n = Array.init n (fun i -> if i mod 37 = 0 then 1.0 else 0.0)

let compute_cycles (st : Stats.t) clock_hz =
  List.fold_left
    (fun acc (p : Stats.phase) -> acc +. (p.Stats.compute_seconds *. clock_hz))
    0.0 st.Stats.phases

let run_mcscan ~sched ~traced n =
  Scan.Scan_core.with_schedule sched (fun () ->
      let dev = Device.create () in
      if traced then ignore (Device.arm_trace dev);
      let clock_hz = (Device.cost dev).Cost_model.clock_hz in
      let x = Device.of_array dev Dtype.F16 ~name:"bx" (data n) in
      let st = snd (Scan.Mcscan.run dev x) in
      (compute_cycles st clock_hz, Device.trace dev))

type row = {
  n : int;
  serial_cycles : float;
  triple_cycles : float;
  predicted_cycles : float;
  measured_gain_pct : float;
  predicted_gain_pct : float;
}

let profile_of_trace tr =
  (* Round-trip through the actual bytes: the profiler must work from
     the trace file alone. *)
  match Obs.Critical_path.of_json (Obs.Chrome_trace.json tr) with
  | Error e -> failwith ("BENCH_10: profile failed: " ^ e)
  | Ok p -> p

let run_rows () =
  List.map
    (fun n ->
      let serial_cycles, tr = run_mcscan ~sched:Scan.Scan_core.Serial ~traced:true n in
      let triple_cycles, _ = run_mcscan ~sched:Scan.Scan_core.Triple ~traced:false n in
      let p =
        profile_of_trace
          (match tr with
          | Some tr -> tr
          | None -> failwith "BENCH_10: serial run recorded no trace")
      in
      (* Cross-check: the profiler's reconstruction of the serial
         compute cycles must agree with the engine model. *)
      let reconstructed =
        Obs.Whatif.predict_compute_cycles p
          (Obs.Whatif.Speedup { label = "baseline"; queues = []; factor = 1.0 })
      in
      if Float.abs (reconstructed -. serial_cycles) > 0.5 then
        failwith
          (Printf.sprintf
             "BENCH_10: reconstructed serial compute %.1f <> measured %.1f"
             reconstructed serial_cycles);
      let predicted_cycles =
        Obs.Whatif.predict_compute_cycles p Obs.Whatif.Pipeline
      in
      {
        n;
        serial_cycles;
        triple_cycles;
        predicted_cycles;
        measured_gain_pct = 100.0 *. (1.0 -. (triple_cycles /. serial_cycles));
        predicted_gain_pct =
          100.0 *. (1.0 -. (predicted_cycles /. serial_cycles));
      })
    sizes

let json_of_rows rows ~tolerance_pts ~gate_ok =
  let b = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "{\n";
  pr "  \"bench\": \"profiler_prediction\",\n";
  pr "  \"metric\": \"predicted vs measured serial->triple mcscan gain (pct \
      of serial compute cycles)\",\n";
  pr "  \"tolerance_pts\": %g,\n" tolerance_pts;
  pr "  \"gate_ok\": %b,\n" gate_ok;
  pr "  \"rows\": [\n";
  let n_rows = List.length rows in
  List.iteri
    (fun i r ->
      pr
        "    {\"kernel\": \"mcscan\", \"n\": %d, \"serial_cycles\": %.0f, \
         \"triple_cycles\": %.0f, \"predicted_cycles\": %.0f, \
         \"measured_gain_pct\": %.2f, \"predicted_gain_pct\": %.2f, \
         \"delta_pts\": %.2f}%s\n"
        r.n r.serial_cycles r.triple_cycles r.predicted_cycles
        r.measured_gain_pct r.predicted_gain_pct
        (Float.abs (r.predicted_gain_pct -. r.measured_gain_pct))
        (if i = n_rows - 1 then "" else ","))
    rows;
  pr "  ]\n}\n";
  Buffer.contents b

let () =
  let args = Array.to_list Sys.argv in
  let rec parse out tol = function
    | [] -> (out, tol)
    | "--tolerance-pts" :: v :: rest -> parse out (float_of_string v) rest
    | a :: rest when String.length a > 0 && a.[0] <> '-' -> parse (Some a) tol rest
    | a :: _ -> failwith ("bench_profile: unknown argument " ^ a)
  in
  let out, tolerance_pts = parse None 5.0 (List.tl args) in
  let rows = run_rows () in
  List.iter
    (fun r ->
      Printf.printf
        "mcscan n=%7d: serial %8.0f cy, triple %8.0f cy (measured %.1f%%), \
         predicted %8.0f cy (%.1f%%), delta %.1f pts\n"
        r.n r.serial_cycles r.triple_cycles r.measured_gain_pct
        r.predicted_cycles r.predicted_gain_pct
        (Float.abs (r.predicted_gain_pct -. r.measured_gain_pct)))
    rows;
  let gate_ok =
    List.for_all
      (fun r ->
        Float.abs (r.predicted_gain_pct -. r.measured_gain_pct)
        <= tolerance_pts)
      rows
  in
  let doc = json_of_rows rows ~tolerance_pts ~gate_ok in
  (match out with
  | Some path ->
      let oc = open_out path in
      output_string oc doc;
      close_out oc;
      Printf.printf "wrote %s\n" path
  | None -> print_string doc);
  if not gate_ok then begin
    Printf.printf
      "GATE FAILED: profiler prediction off by more than %g points\n"
      tolerance_pts;
    exit 1
  end;
  Printf.printf "gate ok: prediction within %g points at every size\n"
    tolerance_pts
