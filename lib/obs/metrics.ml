module Stats = Ascend.Stats
module Trace = Ascend.Trace

type series =
  | Counter of float ref
  | Gauge of float ref
  | Histogram of {
      bounds : float array;
      counts : int array; (* length = Array.length bounds + 1 (+Inf) *)
      mutable sum : float;
      mutable count : int;
    }

type metric = {
  help : string;
  mutable series : ((string * string) list * series) list; (* insertion order *)
}

type t = {
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list; (* reversed registration order *)
}

let create () = { tbl = Hashtbl.create 32; order = [] }

let sort_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

let metric t ~help name =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> m
  | None ->
      let m = { help; series = [] } in
      Hashtbl.add t.tbl name m;
      t.order <- name :: t.order;
      m

let series m ~labels ~make =
  match List.assoc_opt labels m.series with
  | Some s -> s
  | None ->
      let s = make () in
      m.series <- m.series @ [ (labels, s) ];
      s

(* Add to a counter, created on first use; negative increments clamp to
   0, since counters are monotonic. *)
let inc t ?(labels = []) ?(help = "") name v =
  let labels = sort_labels labels in
  let m = metric t ~help name in
  match series m ~labels ~make:(fun () -> Counter (ref 0.0)) with
  | Counter r -> r := !r +. Float.max 0.0 v
  | Gauge _ | Histogram _ ->
      invalid_arg (Printf.sprintf "Metrics.inc: %s is not a counter" name)

(* Set a gauge, created on first use: the last write wins. *)
let set t ?(labels = []) ?(help = "") name v =
  let labels = sort_labels labels in
  let m = metric t ~help name in
  match series m ~labels ~make:(fun () -> Gauge (ref v)) with
  | Gauge r -> r := v
  | Counter _ | Histogram _ ->
      invalid_arg (Printf.sprintf "Metrics.set: %s is not a gauge" name)

(* Record one observation into a histogram with ascending upper bounds
   (a +Inf bucket is implicit); the first call's [buckets] win. *)
let observe t ?(labels = []) ?(help = "") ~buckets name v =
  let labels = sort_labels labels in
  let m = metric t ~help name in
  match
    series m ~labels ~make:(fun () ->
        Histogram
          {
            bounds = buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            sum = 0.0;
            count = 0;
          })
  with
  | Counter _ | Gauge _ ->
      invalid_arg (Printf.sprintf "Metrics.observe: %s is not a histogram" name)
  | Histogram h ->
      let n = Array.length h.bounds in
      let i = ref 0 in
      while !i < n && v > h.bounds.(!i) do
        incr i
      done;
      h.counts.(!i) <- h.counts.(!i) + 1;
      h.sum <- h.sum +. v;
      h.count <- h.count + 1

(* Bucket ladders: phase durations span sub-microsecond reductions to
   millisecond sweeps; transfer sizes span a cache line to a UB tile. *)
let seconds_buckets =
  [| 1e-7; 3e-7; 1e-6; 3e-6; 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2 |]

let bytes_buckets =
  [| 64.; 256.; 1024.; 4096.; 16384.; 65536.; 262144.; 1048576.; 4194304.;
     16777216. |]

let observe_stats t (st : Stats.t) =
  inc t "ascend_launches_total" ~help:"Device launches folded into the stats"
    (float_of_int st.Stats.launches);
  inc t "ascend_simulated_seconds_total"
    ~help:"End-to-end simulated device time" st.Stats.seconds;
  inc t "ascend_host_seconds_total"
    ~help:"Host wall-clock spent simulating" st.Stats.host_seconds;
  inc t "ascend_gm_bytes_total" ~help:"Global-memory traffic"
    ~labels:[ ("dir", "read") ]
    (float_of_int st.Stats.gm_read_bytes);
  inc t "ascend_gm_bytes_total" ~help:"Global-memory traffic"
    ~labels:[ ("dir", "write") ]
    (float_of_int st.Stats.gm_write_bytes);
  List.iter
    (fun (op, c) ->
      inc t "ascend_op_issues_total" ~help:"Instructions issued, by op"
        ~labels:[ ("op", op) ] (float_of_int c))
    st.Stats.op_counts;
  List.iter
    (fun (e, cycles) ->
      if cycles > 0.0 then
        inc t "ascend_engine_busy_cycles_total"
          ~help:"Busy cycles per engine, summed over blocks"
          ~labels:[ ("engine", e) ] cycles)
    st.Stats.engine_busy;
  inc t "ascend_faults_injected_total" ~help:"Faults injected"
    (float_of_int (List.length st.Stats.faults));
  inc t "ascend_retries_total" ~help:"Resilient-runner re-executions"
    (float_of_int st.Stats.retries);
  inc t "ascend_degraded_total" ~help:"Resilient-runner fallback switches"
    (float_of_int st.Stats.degraded);
  List.iter
    (fun (p : Stats.phase) ->
      inc t "ascend_phases_total" ~help:"Launch phases executed"
        ~labels:
          [ ("bound", if p.Stats.bandwidth_bound then "bandwidth" else "compute") ]
        1.0;
      observe t "ascend_phase_seconds" ~help:"Per-phase simulated duration"
        ~buckets:seconds_buckets p.Stats.seconds;
      observe t "ascend_phase_gm_bytes" ~help:"Per-phase GM traffic"
        ~buckets:bytes_buckets
        (float_of_int p.Stats.gm_bytes))
    st.Stats.phases

(* Resilience counters: the retry/degrade/fallback story of the
   resilient runners and the degradation controller, as monotonic
   Prometheus series. *)
let observe_report t (r : _ Runtime.Resilient.report) =
  inc t "resilient_attempts_total" ~help:"Kernel executions incl. fallback"
    (float_of_int r.Runtime.Resilient.attempts);
  inc t "resilient_detections_total" ~help:"Validation failures observed"
    (float_of_int r.Runtime.Resilient.detections);
  inc t "resilient_retries_total" ~help:"Re-executions after a detection"
    (float_of_int (max 0 (r.Runtime.Resilient.attempts - 1)));
  inc t "resilient_fallbacks_total" ~help:"Fallback-path switches"
    (if r.Runtime.Resilient.degraded then 1.0 else 0.0);
  inc t "resilient_backoff_seconds_total"
    ~help:"Simulated retry backoff charged"
    r.Runtime.Resilient.backoff_seconds;
  inc t "resilient_runs_total" ~help:"Resilient runs, by outcome"
    ~labels:[ ("ok", if r.Runtime.Resilient.ok then "true" else "false") ]
    1.0

let observe_batched_report t (r : Runtime.Resilient.batched_report) =
  let open Runtime.Resilient in
  inc t "resilient_group_attempts_total"
    ~help:"Batched-scan group launches incl. replays"
    (float_of_int r.group_attempts);
  inc t "resilient_replayed_rows_total"
    ~help:"Rows re-executed after a failed group attempt"
    (float_of_int r.replayed_rows);
  inc t "resilient_restored_rows_total"
    ~help:"Rows recovered from the checkpoint store on resume"
    (float_of_int r.restored_rows);
  inc t "resilient_shed_rows_total"
    ~help:"Rows abandoned by the brownout floor"
    (float_of_int r.shed_rows);
  inc t "resilient_committed_rows_total" ~help:"Rows validated and committed"
    (float_of_int (Runtime.Checkpoint.done_count r.checkpoint));
  inc t "resilient_backoff_seconds_total"
    ~help:"Simulated retry backoff charged" r.backoff_seconds;
  inc t "resilient_runs_total" ~help:"Resilient runs, by outcome"
    ~labels:[ ("ok", if r.bok then "true" else "false") ]
    1.0

let observe_decision t (d : Runtime.Degrade_ctl.decision) =
  inc t "degrade_ctl_decisions_total"
    ~help:"Degradation-controller transitions, by resulting state and level"
    ~labels:
      [
        ("state", Runtime.Degrade_ctl.state_to_string d.Runtime.Degrade_ctl.d_state);
        ("level", Runtime.Degrade_ctl.level_to_string d.Runtime.Degrade_ctl.d_level);
      ]
    1.0;
  if d.Runtime.Degrade_ctl.d_cooldown_s > 0.0 then
    inc t "degrade_ctl_cooldown_seconds_total"
      ~help:"Simulated breaker cooldown charged"
      d.Runtime.Degrade_ctl.d_cooldown_s

let observe_ctl t ctl =
  List.iter (observe_decision t) (Runtime.Degrade_ctl.decisions ctl);
  inc t "degrade_ctl_opens_total" ~help:"Times the breaker opened"
    (float_of_int (Runtime.Degrade_ctl.opens ctl))

let observe_trace t tr =
  List.iter
    (fun (l : Trace.launch_rec) ->
      List.iter
        (fun (p : Trace.phase_rec) ->
          List.iter
            (fun (b : Trace.block_rec) ->
              List.iter
                (fun (s : Trace.span) ->
                  inc t "ascend_trace_spans_total"
                    ~help:"Recorded instruction spans, by issue queue"
                    ~labels:[ ("queue", s.Trace.sp_queue) ] 1.0;
                  if s.Trace.sp_bytes > 0 then
                    observe t "ascend_transfer_bytes"
                      ~help:"MTE transfer payload sizes (tile sizes)"
                      ~buckets:bytes_buckets
                      (float_of_int s.Trace.sp_bytes))
                b.Trace.b_spans;
              List.iter
                (fun (m : Trace.mark) ->
                  inc t "ascend_trace_instants_total"
                    ~help:"Recorded instant events, by kind"
                    ~labels:[ ("kind", Trace.kind_to_string m.Trace.mk_kind) ]
                    1.0)
                b.Trace.b_marks)
            p.Trace.ph_blocks)
        l.Trace.ln_phases)
    (Trace.launches tr)

(* Critical-path profile gauges: makespan blame per resource and the
   per-phase MTE/compute overlap ratio ({!Critical_path.overlap}). *)
let observe_profile t (p : Critical_path.t) =
  let module Cp = Critical_path in
  set t "ascend_cp_total_cycles"
    ~help:"End-to-end makespan of the profiled trace (simulated cycles)"
    p.Cp.total_cycles;
  List.iter
    (fun (resource, cycles) ->
      set t "ascend_cp_blame_cycles"
        ~help:"Critical-path cycles of the makespan attributed to each resource"
        ~labels:[ ("resource", resource) ]
        cycles)
    p.Cp.blame;
  List.iteri
    (fun li (l : Cp.launch) ->
      List.iter
        (fun (ph : Cp.phase) ->
          set t "ascend_phase_mte_compute_overlap_ratio"
            ~help:
              "Per-phase MTE/compute overlap: busy-interval intersection \
               over the smaller busy union (0 = serial, 1 = data movement \
               fully hidden)"
            ~labels:
              [
                ("launch", l.Cp.ln_name);
                ("seq", string_of_int li);
                ("phase", string_of_int ph.Cp.ph_index);
              ]
            (Cp.overlap ph))
        l.Cp.ln_phases)
    p.Cp.launches

let value_str = Jsonw.float_to_string

let labels_str labels =
  match labels with
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

let pp_prometheus ppf t =
  List.iter
    (fun name ->
      let m = Hashtbl.find t.tbl name in
      if m.help <> "" then Format.fprintf ppf "# HELP %s %s@." name m.help;
      let kind =
        match m.series with
        | (_, Counter _) :: _ -> "counter"
        | (_, Gauge _) :: _ -> "gauge"
        | (_, Histogram _) :: _ -> "histogram"
        | [] -> "untyped"
      in
      Format.fprintf ppf "# TYPE %s %s@." name kind;
      List.iter
        (fun (labels, s) ->
          match s with
          | Counter r | Gauge r ->
              Format.fprintf ppf "%s%s %s@." name (labels_str labels)
                (value_str !r)
          | Histogram h ->
              let cum = ref 0 in
              Array.iteri
                (fun i c ->
                  cum := !cum + c;
                  let le =
                    if i < Array.length h.bounds then value_str h.bounds.(i)
                    else "+Inf"
                  in
                  Format.fprintf ppf "%s_bucket%s %d@." name
                    (labels_str (labels @ [ ("le", le) ]))
                    !cum)
                h.counts;
              Format.fprintf ppf "%s_sum%s %s@." name (labels_str labels)
                (value_str h.sum);
              Format.fprintf ppf "%s_count%s %d@." name (labels_str labels)
                h.count)
        m.series)
    (List.rev t.order)
