(** Distributed scan across a {!Pod}: local scan per device →
    device-prefix exchange over the links → local fixup.

    The input (resident on the pod's primary device) is split into one
    contiguous shard per {e logical} shard slot — by default one slot
    per pod device, fixed by the pod's creation geometry, {e not} by
    which devices currently survive. Shard [i] runs on device [i] when
    it is alive, otherwise on the next alive device in ascending cyclic
    order (the same deterministic failover rule {!Ascend.Health} /
    the scheduler apply to cores). Because every device is an identical
    simulated instance, the kernel launches — and therefore the output
    bytes and the combined {!Ascend.Stats} — are bit-identical for any
    surviving subset; only the link-time side channel
    ([link_seconds], retries) depends on placement, which is why it is
    reported separately and {e not} folded into [stats].

    Two exchange schedules move the shard totals:

    - {b Ring}: the running prefix hops executor-to-executor in shard
      order (d-1 sequential sends);
    - {b All-gather}: every executor broadcasts its total and each
      receiver folds the prefix chain locally (d(d-1) sends, one
      round).

    Both schedules fold totals in ascending shard order with one fp16
    rounding per step, so they are numerically identical; they differ
    only in link traffic and critical path. The fixup is a real vector
    kernel ([Vec.adds] of the shard prefix) on the executing device.

    Exactness: like the in-device blocked scans, [dist_scan] equals the
    chained sequential reference bit-for-bit whenever the partial sums
    are exactly representable in fp16 (the 0/1 and ternary inputs every
    enumerating test uses); for general data it carries the standard
    blocked-scan rounding caveat. *)

open Ascend

type schedule = Ring | All_gather

val default_schedule : Pod.t -> schedule
(** Ring pods exchange in a ring; fully-connected pods all-gather. *)

type report = {
  y : Global_tensor.t;  (** gathered output, on the primary device *)
  stats : Stats.t;
  (** combined local-scan + fixup launch stats — placement-invariant *)
  shards : (int * int * int) list;
  (** [(lo, hi, executing device)] per shard slot, in slot order *)
  link_seconds : float;  (** link time charged for the exchange *)
  exchange_sends : int;  (** link sends issued (excl. same-device) *)
  exchange_retries : int;  (** link attempts beyond the first *)
  rerouted : int;  (** sends delivered through a relay *)
}

val run :
  ?s:int ->
  ?schedule:schedule ->
  ?shards:int ->
  ?local:(Device.t -> Global_tensor.t -> Global_tensor.t * Stats.t) ->
  Pod.t ->
  Global_tensor.t ->
  report
(** Scan [x] (on the pod's primary) across the pod. [shards] defaults
    to the pod's device count; the brownout ladder shrinks it to cut
    exchange traffic. [local] defaults to {!Mcscan.run} and runs each
    shard on its executing device. Raises
    [Ascend.Health.All_cores_dead] when no pod device is alive, and
    propagates {!Pod.Partitioned} when the exchange cannot be
    delivered. *)
