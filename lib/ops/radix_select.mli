(** Radix top-k selection (RadiK-style, Li et al. 2024 — cited by the
    paper as the scalable-k direction; an extension over its
    quickselect attempt).

    Scans the bits of the order-preserving-encoded fp16 keys from most
    to least significant. At each bit one stable {!Split} partitions
    the surviving candidates into the set-bit (larger) and clear-bit
    halves: if the larger half holds at least [k] candidates it becomes
    the new candidate set, otherwise it is emitted wholesale into the
    answer and the search continues for the remainder in the smaller
    half. The candidate set shrinks geometrically, so total traffic is
    about two passes over the input plus the per-round launch overhead
    — which is exactly why, like the paper's quickselect, it cannot
    beat the streaming vector-sort baseline at small [k], while scaling
    much better in [k]. *)

val run :
  ?s:int ->
  Ascend.Device.t ->
  Ascend.Global_tensor.t ->
  k:int ->
  Ascend.Global_tensor.t * Ascend.Stats.t
(** The [k] largest values ([F16]) in descending order; [k] in
    [1 .. min n 4096]. On a [Cost_only] device each bit is modelled as
    splitting the candidates evenly. *)
