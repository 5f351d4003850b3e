(** Multi-core running-maximum scan (vector cores only).

    Maximum has no matrix-multiplication formulation, so this kernel is
    purely vectorial: it is exactly
    {!Scan_core.run_vec_blocks}[ (module Scan_op.Max)] — within each UB
    tile a log-step Hillis-Steele network (see
    {!Ascend.Vec.hillis_steele}), across tiles and blocks the
    same two-phase recomputation structure as MCScan with
    max-reductions instead of sums.

    Used by {!Segmented_scan} to locate each position's most recent
    segment boundary, and generally useful for running-max features. *)

val run :
  ?blocks:int ->
  Ascend.Device.t ->
  Ascend.Global_tensor.t ->
  Ascend.Global_tensor.t * Ascend.Stats.t
(** Inclusive running maximum. Input must be [F16], [F32] or [I32];
    the output has the same data type. *)
