(** Sharded scan over [devices] simulated devices: a local
    {!Mcscan.run} per shard, an fp16 prefix chain over the shard
    totals, a fixup kernel per shard, and a gather onto the primary.

    The input (resident on the primary) is split into [devices]
    contiguous shards with bounds [i * n / devices]. Shard [i] runs on
    device [i]: device 0 is the primary (its trace, faults and deadline
    apply to shard 0), and devices [1 .. devices - 1] are fresh devices
    with the primary's mode and domain count. The shard totals fold in
    ascending shard order with one fp16 rounding per step, and the
    fixup is a real vector kernel ([Vec.adds] of the shard prefix).

    Exactness: like the in-device blocked scans, the result equals the
    chained sequential reference bit-for-bit whenever the partial sums
    are exactly representable in fp16 (the 0/1 and ternary inputs every
    enumerating test uses); for general data it carries the standard
    blocked-scan rounding caveat. *)

open Ascend

val run :
  ?s:int -> devices:int -> Device.t -> Global_tensor.t -> Global_tensor.t * Stats.t
(** [run ~devices primary x] scans the f16 tensor [x] and returns the
    gathered output (on [primary]) and the combined local-scan and
    fixup launch stats, in shard order. Raises [Invalid_argument] if
    [devices < 1] or [x] is not f16. *)
