(** Top-k selection via partial quickselect over {!Split}.

    Repeatedly splits the candidate set on a pivot ([>= pivot] first);
    sides that belong entirely to the answer are set aside, and the
    side containing the k-th element is recursed on. Each round costs a
    full SplitInd pass (mask pass + exclusive MCScan + gather), so —
    exactly as the paper reports — the operator does {e not} beat the
    streaming vector-sort baseline for small [k] ([k <= 4096]); it is
    retained for completeness and as a SplitInd stress test.

    The recursion is data-dependent: on a [Cost_only] device each round
    keeps half the candidates, a random pivot's expected rank. *)

val run :
  ?s:int ->
  ?seed:int ->
  Ascend.Device.t ->
  Ascend.Global_tensor.t ->
  k:int ->
  Ascend.Global_tensor.t * Ascend.Stats.t
(** The [k] largest values ([F16]) in descending order. [seed] drives
    pivot selection. Raises [Invalid_argument] for [k] outside
    [1 .. min n 4096]. *)
