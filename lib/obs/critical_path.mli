(** Critical-path reconstruction and bottleneck attribution over the
    recorder's own records.

    The engine model records, for every span, the dependency edges
    (lane program order, engine queue order, commit/wait-group
    retirement, [await_engine], [wait_all] joins) that explain its
    issue time ({!Ascend.Trace}). The builder ({!of_trace}) re-runs the
    forward pass over each block's DAG and insists the recomputed
    issue times match the recorded ones {e bitwise} — the
    reconstruction contract — then extracts the critical path of every
    block, per-span slack, and a blame table attributing cycles of the
    end-to-end makespan to engines, ops and queues alongside the
    launch-latency, SyncAll and HBM-bandwidth terms of the launch
    composition.

    JSON is read only at the file boundary: {!of_json} decodes a Chrome
    trace (spans with their exact block-local cycle endpoints
    [args.c0]/[args.c1], flow events as edges) back into the same
    records and builds from them, so a live run and an offline profile
    of the trace it wrote are the same value. *)

type block = {
  bk_core : int;
  bk_spans : Ascend.Trace.span array;
      (** In issue order — a topological order — with block-local ids:
          [bk_spans.(i).sp_id = i]. *)
  bk_edges : Ascend.Trace.edge array;
      (** Block-local ids, in recording order. *)
  bk_cycles : float;  (** Reconstructed critical-path length; equals the
                          engine-model block makespan bitwise. *)
  bk_cp : int list;  (** Span ids on the critical path, in time order.
                         The path is temporally contiguous from cycle 0
                         to the makespan. *)
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
  ph_gm_bytes : int;
  ph_blocks : block list;  (** By occurrence; blocks that issued
                               nothing are left out. *)
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

val of_trace : Ascend.Trace.t -> (t, string) result
(** Profile a live recording. Fails only on a recording that breaks the
    reconstruction contract, a recorder bug {!Ascend.Trace.check} also
    reports. *)

val of_json : Jsonw.t -> (t, string) result
(** Decode a parsed trace document into the recorder's records and
    profile them. Fails if the trace is not a simulator trace, if
    [otherData.schema] names the retired multi-device pod trace
    (["ascend-pod-trace-1"]; the error names the schema), if the span
    ids do not number the spans 0, 1, ... once each, contiguously per
    block, if a flow's kind is not an edge kind
    or its id does not number the flows [0, 1, ...] once, or if any
    span's recomputed issue time differs bitwise from the recorded one
    (a corrupted or hand-edited trace). On the export of a recording
    it equals {!of_trace} of that recording. *)

val report : t -> Jsonw.t
(** Deterministic profile document (schema ["ascend-profile-1"]) — the
    bytes of [Jsonw.to_string (report t)] are identical for traces of
    the same kernel at any [--domains] setting. *)

val pp : Format.formatter -> t -> unit
(** Human-readable report: blame table, top critical-path ops, and
    per-phase bounding cores. *)

(** {2 Per-phase occupancy (the CLI's [trace summary])}

    Computed on demand from a profile: building one does none of this
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
      (** Busy time per engine name as a fraction of the phase window
          ([ph_seconds]),
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
