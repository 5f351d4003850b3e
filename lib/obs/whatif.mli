(** Counterfactual re-timing of a reconstructed launch DAG: "which
    resource, sped up, buys the most makespan?"

    Each scenario re-runs the forward pass over every block's DAG with
    modified span durations or a restructured edge set, then
    recomposes phase and launch times from the launch-composition args
    the trace carries (latency, SyncAll, compute vs bandwidth roof,
    residual overheads preserved). Everything is computed from the
    {!Critical_path.t} profile alone — no re-simulation. *)

type scenario =
  | Speedup of { label : string; queues : string list; factor : float }
      (** Scale the duration of every span on the named queue classes
          (["MTE2"], ["MTE3"], ["V"], ["M"], ["S"]) by [1/factor];
          [infinity] zeroes them. *)
  | Hbm of float  (** Scale the HBM/L2 bandwidth roof of every phase. *)
  | Pipeline
      (** Structural: drop the serial schedule's per-item barriers
          (join edges and lane edges into loads), keep the RAW
          dataflow (queue order, load->compute->store), and pace loads
          by double-buffer slot reuse (load k waits for load k-2's
          consumer). Predicts what the Double/Triple walker schedules
          buy over Serial — gated against the measured gain in
          test/test_critical_path.ml. *)

val predict_compute_cycles : Critical_path.t -> scenario -> float
(** Sum over phases of the retimed bounding-core block chain, in
    cycles — the quantity test/test_pipeline.ml pins (per-phase
    [compute_seconds] x clock, no launch latency or SyncAll), so the
    pipeline prediction can be compared directly against a measured
    schedule gain. *)

val report : Critical_path.t -> Jsonw.t
(** Deterministic what-if + roofline document, embedded in the CLI's
    [profile.json]: the predicted cycles and gain of [Pipeline], 2x/inf
    speedups of MTE, vector and cube, scalar inf and HBM 2x, best
    first, and achieved vs peak bytes/cycle per MTE and vector track
    plus the device-level HBM roof, with the peaks of
    {!Ascend.Cost_model.default}. *)

val pp : Format.formatter -> Critical_path.t -> unit
(** The same report as text. *)
