(* Counterfactual re-timing of a reconstructed launch DAG.

   Given a {!Critical_path.t} profile, re-run the forward pass over
   every block's DAG with modified span durations (engine-queue
   speedups), a scaled HBM roof, or a restructured edge set (the
   [Pipeline] scenario: replace the serial schedule's per-item
   barriers with double-buffered load pacing), and recompose phase and
   launch times from the launch-composition args the trace carries.
   The ranked report answers "which resource, sped up, buys the most
   makespan" — and the pipeline prediction is gated in
   test/test_critical_path.ml against the measured serial->triple
   gain. *)

module Cp = Critical_path
module Trace = Ascend.Trace

type scenario =
  | Speedup of { label : string; queues : string list; factor : float }
      (* [factor = infinity] zeroes the matching spans. *)
  | Hbm of float (* scale the HBM/L2 bandwidth roof *)
  | Pipeline (* structural: serial barriers -> double-buffered overlap *)

let label = function
  | Speedup { label; _ } -> label
  | Hbm f -> Printf.sprintf "HBM %gx" f
  | Pipeline -> "pipelined overlap"

let scenarios =
  [
    Pipeline;
    Speedup { label = "MTE 2x"; queues = [ "MTE2"; "MTE3" ]; factor = 2.0 };
    Speedup
      { label = "MTE inf"; queues = [ "MTE2"; "MTE3" ]; factor = infinity };
    Speedup { label = "vector 2x"; queues = [ "V" ]; factor = 2.0 };
    Speedup { label = "vector inf"; queues = [ "V" ]; factor = infinity };
    Speedup { label = "cube 2x"; queues = [ "M" ]; factor = 2.0 };
    Speedup { label = "cube inf"; queues = [ "M" ]; factor = infinity };
    Speedup { label = "scalar inf"; queues = [ "S" ]; factor = infinity };
    Hbm 2.0;
  ]

(* ------------------------------------------------------------------ *)
(* Block re-timing. *)

let dur_scale scenario (s : Trace.span) =
  match scenario with
  | Speedup { queues; factor; _ } when List.mem s.Trace.sp_queue queues -> factor
  | _ -> 1.0

(* Forward pass over (possibly restructured) edges with scaled
   durations; returns the new block makespan. Topological order is id
   order (edges always point forward). *)
let retime_block scenario (b : Cp.block) =
  let spans = b.Cp.bk_spans in
  let n = Array.length spans in
  let preds = Array.make n [] in
  let add src dst =
    if src >= 0 && src < dst && dst < n then preds.(dst) <- src :: preds.(dst)
  in
  let is_load i = spans.(i).Trace.sp_queue = "MTE2" in
  (match scenario with
  | Pipeline ->
      (* Load positions per MTE2 engine (track, not queue class — each
         engine paces its own slots; mixing engines would serialise
         independent lanes against each other). *)
      let qpos : (string, int list) Hashtbl.t = Hashtbl.create 8 in
      Array.iteri
        (fun i (s : Trace.span) ->
          if is_load i then
            let q = s.Trace.sp_engine in
            Hashtbl.replace qpos q
              (i :: Option.value ~default:[] (Hashtbl.find_opt qpos q)))
        spans;
      (* First non-MTE2 consumer of each span, via lane/group edges:
         the compute span that reads the loaded tile. *)
      let consumer = Array.make n (-1) in
      Array.iter
        (fun { Trace.e_src = si; e_dst = di; e_kind } ->
          match e_kind with
          | Trace.Lane | Trace.Group ->
              if
                si >= 0 && si < n && di >= 0 && di < n
                && (not (is_load di))
                && (consumer.(si) < 0 || di < consumer.(si))
              then consumer.(si) <- di
          | Trace.Queue | Trace.Await | Trace.Join -> ())
        b.Cp.bk_edges;
      (* Keep RAW structure, drop serial artifacts:
         - every queue edge stays (engines issue in order);
         - lane/group/await edges into non-load spans stay
           (work needs its load, store needs its work);
         - join barriers and lane edges into loads go
           (those are the serial schedule, not the dataflow). *)
      Array.iter
        (fun { Trace.e_src = si; e_dst = di; e_kind } ->
          let dst_is_load = di >= 0 && di < n && is_load di in
          match e_kind with
          | Trace.Join -> ()
          | Trace.Queue -> add si di
          | Trace.Lane | Trace.Group | Trace.Await ->
              if not dst_is_load then add si di)
        b.Cp.bk_edges;
      (* Double-buffer pacing: load k reuses the slot load k-2 filled,
         so it waits for load k-2's consumer. *)
      Hashtbl.iter
        (fun _track rev_members ->
          let members = Array.of_list (List.rev rev_members) in
          Array.iteri
            (fun k i ->
              if k >= 2 then
                let c = consumer.(members.(k - 2)) in
                if c >= 0 && c < i then add c i)
            members)
        qpos
  | _ -> Array.iter (fun e -> add e.Trace.e_src e.Trace.e_dst) b.Cp.bk_edges);
  let finish = Array.make n 0.0 in
  let makespan = ref 0.0 in
  for i = 0 to n - 1 do
    let s = spans.(i) in
    let scale = dur_scale scenario s in
    let dur =
      if scale = infinity then 0.0 else (s.Trace.sp_end -. s.Trace.sp_start) /. scale
    in
    let start = List.fold_left (fun m p -> Float.max m finish.(p)) 0.0 preds.(i) in
    finish.(i) <- start +. dur;
    if finish.(i) > !makespan then makespan := finish.(i)
  done;
  !makespan

(* ------------------------------------------------------------------ *)
(* Phase / launch recomposition. *)

(* The retimed serialised block chain of each core; the slowest core
   bounds the phase. *)
let chain_cycles scenario blocks =
  let cores = Hashtbl.create 16 in
  List.iter
    (fun (b : Cp.block) ->
      Hashtbl.replace cores b.Cp.bk_core
        (retime_block scenario b
        +. Option.value ~default:0.0 (Hashtbl.find_opt cores b.Cp.bk_core)))
    blocks;
  Hashtbl.fold (fun _ cy m -> Float.max m cy) cores 0.0

let predict_cycles (t : Cp.t) scenario =
  let clock = t.Cp.clock_hz in
  List.fold_left
    (fun acc (l : Cp.launch) ->
      let nph = List.length l.Cp.ln_phases in
      let phases' =
        List.fold_left
          (fun acc (p : Cp.phase) ->
            let compute' =
              match p.Cp.ph_blocks with
              | [] -> p.Cp.ph_compute_seconds
              | blocks -> chain_cycles scenario blocks /. clock
            in
            let bandwidth' =
              match scenario with
              | Hbm f -> p.Cp.ph_bandwidth_seconds /. f
              | _ -> p.Cp.ph_bandwidth_seconds
            in
            let base =
              Float.max p.Cp.ph_compute_seconds p.Cp.ph_bandwidth_seconds
            in
            (* Preserve whatever the phase spent beyond its roofline
               terms (replay delays, padding). *)
            let overhead = p.Cp.ph_seconds -. base in
            acc +. Float.max compute' bandwidth' +. overhead)
          0.0 l.Cp.ln_phases
      in
      let covered =
        l.Cp.ln_latency_cycles
        +. (if nph > 1 then float_of_int (nph - 1) *. l.Cp.ln_sync_cycles
            else 0.0)
        +. List.fold_left
             (fun a (p : Cp.phase) -> a +. (p.Cp.ph_seconds *. clock))
             0.0 l.Cp.ln_phases
      in
      let residual = l.Cp.ln_cycles -. covered in
      acc +. l.Cp.ln_latency_cycles
      +. (if nph > 1 then float_of_int (nph - 1) *. l.Cp.ln_sync_cycles
          else 0.0)
      +. (phases' *. clock) +. residual)
    0.0 t.Cp.launches

(* Compute-only prediction: the sum over phases of the retimed
   bounding-core chain, in cycles — the same quantity test_pipeline pins
   (sum of per-phase compute_seconds x clock), so test_critical_path
   can compare the profiler's pipeline prediction directly against the
   measured schedule gain. *)
let predict_compute_cycles (t : Cp.t) scenario =
  List.fold_left
    (fun acc (l : Cp.launch) ->
      List.fold_left
        (fun acc (p : Cp.phase) ->
          match p.Cp.ph_blocks with
          | [] -> acc +. (p.Cp.ph_compute_seconds *. t.Cp.clock_hz)
          | blocks -> acc +. chain_cycles scenario blocks)
        acc l.Cp.ln_phases)
    0.0 t.Cp.launches

type prediction = {
  wi_label : string;
  wi_cycles : float;
  wi_gain : float; (* fraction of baseline makespan saved *)
}

let predict t scenario =
  let cycles = predict_cycles t scenario in
  {
    wi_label = label scenario;
    wi_cycles = cycles;
    wi_gain =
      (if t.Cp.total_cycles > 0.0 then
         1.0 -. (cycles /. t.Cp.total_cycles)
       else 0.0);
  }

let rank t =
  List.sort
    (fun a b ->
      let c = Float.compare b.wi_gain a.wi_gain in
      if c <> 0 then c else String.compare a.wi_label b.wi_label)
    (List.map (predict t) scenarios)

(* ------------------------------------------------------------------ *)
(* Roofline: achieved bytes/cycle per engine track vs the cost-model
   ceiling for its queue class, plus the device-level HBM roof. *)

type roof = {
  rf_name : string;
  rf_bytes : int;
  rf_busy_cycles : float;
  rf_achieved : float; (* bytes / busy cycle *)
  rf_peak : float; (* cost-model ceiling, bytes / cycle *)
}

let cm = Ascend.Cost_model.default

let peak_of_queue = function
  | "MTE2" | "MTE3" ->
      Some (cm.Ascend.Cost_model.mte_stream_bandwidth /. cm.Ascend.Cost_model.clock_hz)
  | "V" -> Some cm.Ascend.Cost_model.vec_bytes_per_cycle
  | _ -> None

let roofline (t : Cp.t) =
  let tracks : (string, string * int * float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (l : Cp.launch) ->
      List.iter
        (fun (p : Cp.phase) ->
          List.iter
            (fun (b : Cp.block) ->
              Array.iter
                (fun (s : Trace.span) ->
                  if s.Trace.sp_bytes > 0 then
                    let q, by, cy =
                      Option.value
                        ~default:(s.Trace.sp_queue, 0, 0.0)
                        (Hashtbl.find_opt tracks s.Trace.sp_engine)
                    in
                    Hashtbl.replace tracks s.Trace.sp_engine
                      (q, by + s.Trace.sp_bytes, cy +. (s.Trace.sp_end -. s.Trace.sp_start)))
                b.Cp.bk_spans)
            p.Cp.ph_blocks)
        l.Cp.ln_phases)
    t.Cp.launches;
  let rows =
    Hashtbl.fold
      (fun name (q, bytes, busy) acc ->
        match peak_of_queue q with
        | Some peak when busy > 0.0 ->
            {
              rf_name = name;
              rf_bytes = bytes;
              rf_busy_cycles = busy;
              rf_achieved = float_of_int bytes /. busy;
              rf_peak = peak;
            }
            :: acc
        | _ -> acc)
      tracks []
  in
  let rows =
    List.sort (fun a b -> String.compare a.rf_name b.rf_name) rows
  in
  (* Device-level HBM roof: global-memory traffic of every phase over
     the end-to-end makespan. *)
  let gm_bytes =
    List.fold_left
      (fun a (l : Cp.launch) ->
        List.fold_left
          (fun a (p : Cp.phase) -> a + p.Cp.ph_gm_bytes)
          a l.Cp.ln_phases)
      0 t.Cp.launches
  in
  if gm_bytes > 0 && t.Cp.total_cycles > 0.0 then
    rows
    @ [
        {
          rf_name = "HBM (device)";
          rf_bytes = gm_bytes;
          rf_busy_cycles = t.Cp.total_cycles;
          rf_achieved = float_of_int gm_bytes /. t.Cp.total_cycles;
          rf_peak =
            cm.Ascend.Cost_model.hbm_bandwidth /. cm.Ascend.Cost_model.clock_hz;
        };
      ]
  else rows

(* ------------------------------------------------------------------ *)
(* Reports. *)

let report t =
  (* A profile without launch spans has nothing to re-time. *)
  if t.Cp.launches = [] then Jsonw.Obj []
  else
  let preds = rank t in
  let roofs = roofline t in
  Jsonw.Obj
    [
      ("baseline_cycles", Jsonw.Float t.Cp.total_cycles);
      ( "whatif",
        Jsonw.List
          (List.map
             (fun w ->
               Jsonw.Obj
                 [
                   ("scenario", Jsonw.String w.wi_label);
                   ("predicted_cycles", Jsonw.Float w.wi_cycles);
                   ("gain", Jsonw.Float w.wi_gain);
                 ])
             preds) );
      ( "roofline",
        Jsonw.List
          (List.map
             (fun r ->
               Jsonw.Obj
                 [
                   ("name", Jsonw.String r.rf_name);
                   ("bytes", Jsonw.Int r.rf_bytes);
                   ("busy_cycles", Jsonw.Float r.rf_busy_cycles);
                   ("achieved_bytes_per_cycle", Jsonw.Float r.rf_achieved);
                   ("peak_bytes_per_cycle", Jsonw.Float r.rf_peak);
                   ( "utilization",
                     Jsonw.Float
                       (if r.rf_peak > 0.0 then r.rf_achieved /. r.rf_peak
                        else 0.0) );
                 ])
             roofs) );
    ]

let pp ppf t =
  if t.Cp.launches = [] then ()
  else
  let preds = rank t in
  Format.fprintf ppf "what-if (predicted from the reconstructed DAG):@.";
  List.iter
    (fun w ->
      Format.fprintf ppf "  %-20s %14.0f cycles  %+6.1f%%@." w.wi_label
        w.wi_cycles (-100.0 *. w.wi_gain))
    preds;
  match roofline t with
  | [] -> ()
  | roofs ->
      Format.fprintf ppf "roofline (achieved vs peak bytes/cycle):@.";
      List.iter
        (fun r ->
          Format.fprintf ppf "  %-20s %8.1f / %-8.1f  %5.1f%%@." r.rf_name
            r.rf_achieved r.rf_peak
            (if r.rf_peak > 0.0 then 100.0 *. r.rf_achieved /. r.rf_peak
             else 0.0))
        roofs
