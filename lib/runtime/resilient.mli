(** Self-checking resilient kernel execution.

    A production accelerator fleet cannot assume fault-free hardware:
    silent data corruption on the wire, ECC events and stalled engines
    all happen at scale. This module wraps kernel launches with a
    validate / retry / degrade loop:

    + run the kernel and validate its output against a cheap oracle;
    + on detected corruption, retry with a bounded attempt budget
      (transient faults — e.g. an injected bit flip — are drawn
      independently per attempt, so retries usually recover);
    + when corruption persists past the budget, gracefully degrade to a
      fallback implementation (e.g. from the cube [tcu]/[scanu] path to
      the vector-only CumSum kernel, surviving a faulty cube MTE).

    Retry and degradation counts, and the time overhead of every extra
    attempt, are folded into the returned {!Ascend.Stats.t}
    ([retries]/[degraded] fields; seconds accumulate over attempts).
    With no faults detected the first attempt is the only one, and the
    stats are identical to a plain {!Ascend.Launch} run. *)

type oracle =
  | Checksum
      (** One host pass chaining the dtype rounding, compared at 64
          strided sample positions plus the last element. O(1) space. *)
  | Reference  (** Full element-wise comparison against {!Scan.Reference}. *)

type 'a report = {
  value : 'a;  (** Result of the last attempt (the validated one if [ok]). *)
  stats : Ascend.Stats.t;
      (** Combined over all attempts; [retries] and [degraded] set and
          backoff folded into [seconds]. *)
  attempts : int;  (** Total kernel executions, including the fallback. *)
  detections : int;  (** Validation failures observed. *)
  degraded : bool;  (** Whether the fallback path produced [value]. *)
  backoff_seconds : float;  (** Simulated retry backoff folded in. *)
  ok : bool;  (** Whether the final output validated. *)
}

val run :
  ?name:string ->
  ?ctl:Degrade_ctl.t ->
  ?fallback:(unit -> 'a * Ascend.Stats.t) ->
  ?on_event:([ `Retry | `Degrade ] -> unit) ->
  validate:('a -> (unit, string) result) ->
  (unit -> 'a * Ascend.Stats.t) ->
  'a report
(** [run ~validate attempt] executes [attempt] until it validates or
    [ctl]'s attempt budget is spent (default: a fresh controller on
    {!Degrade_ctl.fixed}[ ()]), then tries [fallback] once if
    provided. A structured degraded-mode abort escaping an attempt
    ({!Ascend.Launch.Deadline_exceeded} or
    {!Ascend.Health.All_cores_dead}) counts as a detection against the
    same budget; the last one is re-raised only when {e no} attempt
    ever produced a value. The backoff [ctl] charges before each
    attempt is added to the combined stats, and every attempt outcome
    is recorded with it. [on_event] fires just before each
    re-execution ([`Retry]) and before the fallback runs ([`Degrade])
    — the tracing hook ({!Ascend.Trace.note}); it defaults to a
    no-op. *)

val scan :
  ?s:int ->
  ?ctl:Degrade_ctl.t ->
  ?oracle:oracle ->
  ?fallback:Scan.Scan_api.algo ->
  ?exclusive:bool ->
  algo:Scan.Scan_api.algo ->
  Ascend.Device.t ->
  input:float array ->
  Ascend.Global_tensor.t report
(** Resilient scan: each attempt loads [input] into a fresh f16 global
    tensor and dispatches {!Scan.Scan_api.run}; outputs validate
    against the selected oracle (default [Checksum]). A [fallback]
    algorithm (typically [Vec_only]) is tried once when all primary
    attempts fail. Requires a functional-mode device. *)

val pp_report :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a report -> unit

(** {2 Checkpointed batched scans}

    The batched-scan runners partition the batch into row groups and
    commit each validated group to a {!Checkpoint}. A mid-batch
    failure — a core death absorbed by the launch replay, a watchdog
    abort, or corruption caught by the per-row oracle — replays only
    the unfinished rows with retry/backoff; checkpointed rows are never
    re-executed. *)

type batched_schedule = U  (** {!Scan.Batched_scan.run_u}. *) | Ul1

type batched_report = {
  y : Ascend.Global_tensor.t;  (** The [(batch * len)] output tensor. *)
  bstats : Ascend.Stats.t;
      (** Combined over all group launches, backoff folded into
          [seconds] and failed group attempts into [retries]. *)
  checkpoint : Checkpoint.t;
  group_attempts : int;  (** Group launches, including replays. *)
  replayed_rows : int;  (** Rows re-executed after a failed attempt. *)
  restored_rows : int;
      (** Rows recovered from the {!Checkpoint_store} before any
          launch — 0 on a fresh (non-resumed) run. *)
  shed_rows : int;
      (** Rows abandoned by the degradation controller's brownout
          floor; they stay pending in [checkpoint]. *)
  backoff_seconds : float;  (** Simulated retry backoff folded in. *)
  bok : bool;  (** Whether every row checkpointed. *)
}

val batched_scan :
  ?s:int ->
  ?granularity:int ->
  ?schedule:batched_schedule ->
  ?store:Checkpoint_store.t ->
  ?ctl:Degrade_ctl.t ->
  ?chaos:Chaos.t ->
  Ascend.Device.t ->
  batch:int ->
  len:int ->
  input:float array ->
  batched_report
(** Checkpointed batched scan of [input] (row-major [(batch, len)])
    on one device. [granularity] caps the rows per group (default:
    quarter batches). Requires a functional-mode device; raises
    [Invalid_argument] on bad dimensions and
    {!Ascend.Health.All_cores_dead} when every core dies before any
    launch and nothing was restored.

    [store] makes the run crash-consistent: the store's surviving
    groups are replayed into the output {e before} any launch (their
    rows are never re-executed), and every newly validated group is
    durably committed, so a process killed at any instant resumes to a
    bit-identical final output. The store's [rows]/[len] must match
    [batch]/[len] ([Invalid_argument] otherwise).

    [ctl] is the retry policy (default: a fresh controller on
    {!Degrade_ctl.fixed}[ ()], 3 attempts and no backoff): attempt
    budgets, backoff, group granularity, schedule switching and row
    shedding all come from it, and it observes every attempt outcome.

    [chaos] arms a {!Chaos} scheduler: its due events are applied at
    every group-launch boundary, making an injected storyline a
    deterministic function of the attempt sequence. *)

val pp_batched_report : Format.formatter -> batched_report -> unit
