(** A small metrics registry: monotonic counters, gauges and
    fixed-bucket histograms with labels, rendered as Prometheus text
    exposition (the CLI's [--metrics]).

    Series are keyed by (metric name, sorted label set); observing the
    same key twice accumulates. {!pp_prometheus} prints metrics in
    registration order and label sets in sorted order, so the output
    is deterministic for a given observation sequence. *)

type t

val create : unit -> t

val observe_stats : t -> Ascend.Stats.t -> unit
(** Fold one launch's (or combined) statistics in: launch/seconds/GM
    byte counters, per-op issue counters, per-engine busy-cycle
    counters, fault/retry/degrade counters and per-phase seconds +
    GM-byte histograms. *)

val observe_report : t -> _ Runtime.Resilient.report -> unit
(** Fold one resilient run's retry/detection/fallback/backoff story
    into [resilient_*_total] counters (runs labelled by outcome). *)

val observe_batched_report : t -> Runtime.Resilient.batched_report -> unit
(** Fold one checkpointed batched scan in: group attempts, replayed /
    restored / shed / committed row counters, backoff and outcome. *)

val observe_ctl : t -> Runtime.Degrade_ctl.t -> unit
(** A controller's whole decision log: one count per transition,
    labelled by the resulting breaker state and brownout level, with
    cooldown seconds accumulated separately, plus the breaker-open
    counter. *)

val observe_profile : t -> Critical_path.t -> unit
(** Fold a critical-path profile in as gauges:
    [ascend_cp_total_cycles], per-resource [ascend_cp_blame_cycles],
    and [ascend_phase_mte_compute_overlap_ratio] per launch phase
    (labels [launch]/[seq]/[phase]) — {!Critical_path.overlap}, the
    same number [trace summary] prints. *)

val observe_trace : t -> Ascend.Trace.t -> unit
(** Fold a recording in: span/instant counters per issue queue and
    instant kind, and an MTE transfer-size histogram (the tile-size
    distribution the paper tunes). *)

val pp_prometheus : Format.formatter -> t -> unit
(** Prometheus text exposition format: [# HELP]/[# TYPE] headers,
    [name{labels} value] samples, [_bucket]/[_sum]/[_count] triplets
    for histograms. *)
