(** Checkpointed distributed batched scan over a {!Pod}: the pod
    target of {!Resilient.run_groups}.

    Each checkpoint group's rows run as {!Scan.Dist_scan} across the
    pod at the next chaos boundary, are validated against the fp16
    host reference, and commit to the optional {!Checkpoint_store}.
    On top of the shared retry/validate/commit loop this adds the pod
    failure modes:

    - {b device death} — a [kill device] chaos event, or a device
      whose last core dies, permanently retires the device; the
      failed group's retry re-runs the distributed scan, whose
      failover rule re-shards around the dead device, and because
      shard geometry is fixed by the pod's creation geometry the
      retried output is bit-identical;
    - {b partition} — a send that fails on the direct link and every
      relay counts as a failed group attempt (quarantine plus the
      brownout ladder take it from there);
    - {b pod brownout} — at {!Degrade_ctl.level}[Shrink_exchange] the
      runner halves the exchange group ([shards]), shedding link
      traffic before it sheds rows. *)

val batched_scan :
  ?s:int ->
  ?granularity:int ->
  ?schedule:Scan.Dist_scan.schedule ->
  ?store:Checkpoint_store.t ->
  ?ctl:Degrade_ctl.t ->
  ?chaos:Chaos.t ->
  Pod.t ->
  batch:int ->
  len:int ->
  input:float array ->
  Resilient.batched_report
(** Scan [batch] independent rows of [len] fp16 values across the
    pod. [schedule] defaults to the pod topology's schedule;
    [granularity] defaults to quarter-batch groups; [ctl] defaults to
    {!Resilient.fixed_ctl}. With [store], already-committed groups are
    restored (never re-executed) and every newly validated group is
    durably committed. The report's [pod] field carries the link
    counters and the devices lost. Raises
    [Ascend.Health.All_cores_dead] when the pod dies before anything
    ran or was restored; [Invalid_argument] on a non-functional pod
    or bad dimensions. *)
