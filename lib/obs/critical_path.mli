(** Critical-path reconstruction and bottleneck attribution from trace
    JSON alone.

    The engine model records, for every span, the dependency edges
    (lane program order, engine queue order, commit/wait-group
    retirement, [await_engine], [wait_all] joins) that
    explain its issue time, and the
    Chrome export carries them as flow events together with exact
    block-local cycle endpoints ([args.c0]/[args.c1]). This module
    parses those bytes back, re-runs the forward pass over the DAG and
    insists the recomputed issue times match the recorded ones
    {e bitwise} — the reconstruction contract — then extracts the
    critical path of every block, per-span slack, and a blame table
    attributing cycles of the end-to-end makespan to engines, ops and
    queues alongside the launch-latency, SyncAll and HBM-bandwidth
    terms of the launch composition. *)

type span = {
  x_sid : int;  (** Trace-unique span id (issue order within block). *)
  x_binst : int;  (** Block occurrence the span belongs to. *)
  x_pid : int;  (** Trace process: core + 1. *)
  x_tid : int;  (** Trace track: engine index. *)
  x_track : string;  (** Engine name from thread_name metadata. *)
  x_queue : string;  (** Queue class (event [cat]): MTE2, V, M, ... *)
  x_op : string;  (** Op label (event name). *)
  x_c0 : float;  (** Exact block-local issue cycle. *)
  x_c1 : float;  (** Exact block-local completion cycle. *)
  x_bytes : int;  (** Bytes moved (data ops), else 0. *)
  x_ts : float;  (** File timestamp (us), for phase attribution. *)
}

type edge = { ed_src : int; ed_dst : int; ed_kind : string }

type block = {
  bk_binst : int;
  bk_core : int;
  bk_spans : span array;  (** Ascending sid — a topological order. *)
  bk_edges : edge array;
  bk_cycles : float;  (** Reconstructed critical-path length; equals the
                          engine-model block makespan bitwise. *)
  bk_cp : int list;  (** Sids on the critical path, in time order. The
                         path is temporally contiguous from cycle 0 to
                         the makespan. *)
  bk_slack : float array;  (** Per-span slack (cycles each span could
                               slip without growing the makespan),
                               aligned with [bk_spans]. *)
}

type phase = {
  ph_launch : string;
  ph_index : int;
  ph_seconds : float;
  ph_compute_seconds : float;
  ph_bandwidth_seconds : float;
  ph_bound : string;  (** ["compute"] or ["bandwidth"]. *)
  ph_dur_us : float;  (** Length of the phase span's window in the trace
                          (us). *)
  ph_gm_bytes : int;
  ph_blocks : block list;
  ph_cores : (int * float) list;
      (** Core -> serialised block-chain cycles, ascending core. *)
  ph_bounding_core : int;  (** Slowest core; [-1] if no blocks. *)
}

type launch = {
  ln_name : string;
  ln_cycles : float;
  ln_latency_cycles : float;
  ln_sync_cycles : float;
  ln_phases : phase list;
}

type t = {
  schema : string;
  clock_hz : float;
  total_cycles : float;
  launches : launch list;
  blame : (string * float) list;
      (** Resource -> cycles of makespan, descending. Engine tracks for
          compute-bound phases' critical paths, plus ["HBM/L2
          bandwidth"], ["launch latency"], ["sync_all"], ["phase
          overhead"] and ["launch overhead"] aggregates. *)
  op_blame : (string * float) list;
  queue_blame : (string * float) list;
  spans_total : int;
  edges_total : int;
  cp_spans : int;
}

val of_json : Jsonw.t -> (t, string) result
(** Profile a parsed trace document. Fails if the trace is not a
    simulator trace, if [otherData.schema] names the retired
    multi-device pod trace (["ascend-pod-trace-1"]; the error names the
    schema), or if any span's recomputed issue time differs bitwise
    from the recorded one (a corrupted or hand-edited trace). *)

val report : t -> Jsonw.t
(** Deterministic profile document (schema ["ascend-profile-1"]) — the
    bytes of [Jsonw.to_string (report t)] are identical for traces of
    the same kernel at any [--domains] setting. *)

val pp : Format.formatter -> t -> unit
(** Human-readable report: blame table, top critical-path ops, and
    per-phase bounding cores. *)

(** {2 Per-phase occupancy (the CLI's [trace summary])}

    Computed on demand from a profile: {!of_json} does none of this
    work. *)

val overlap : phase -> float
(** MTE/compute overlap of a phase in [0, 1], the one definition behind
    [trace summary] and the [--metrics] gauge. Within each block, take
    the union of its MTE-queue (MTE2/MTE3) spans and the union of its
    other spans, in block-local cycles; sum the length of their
    intersection over blocks, and divide by the sum over blocks of the
    smaller union. Intervals never pool across blocks: overlap is only
    physical inside one core's pipeline. [0] under a serial schedule or
    when no block uses both sides; [1] when data movement hides
    entirely behind compute. *)

type summary = {
  engines : (string * float) list;
      (** Busy time per engine name as a fraction of the phase window,
          averaged over every track of that name in the trace; sorted
          descending. *)
  bounding : string;
      (** What limits the phase: ["HBM/L2 bandwidth"] for
          bandwidth-bound phases, else the busiest engine (["launch
          overhead"] when no engine ran). *)
  overlap : float;  (** {!overlap} of the phase. *)
}

val summaries : t -> (phase * summary) list
(** Every phase of the trace in file order (each launch's phases)
    with its summary. *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable {!summaries}: one block per launch, one line per
    phase with its bounding resource, then occupancy percentages and
    the overlap. *)
