(** ScanU (Algorithm 1): single-cube scan via [A @ U].

    Views each consecutive tile of length [s^2] of the input as an
    [s x s] row-major matrix [A]; one Mmad against the upper-triangular
    ones matrix [U_s] computes [s] consecutive local scans of size [s].
    The result streams through global memory to a vector core that adds
    the running partial to each [s]-row and tracks the last entry
    (pipelined over tiles).

    The critical path is linear in the input length (sequential partial
    dependency), so this kernel targets short-to-medium inputs and is
    the building block of the batched and multi-core variants. *)

val run :
  ?s:int ->
  Ascend.Device.t ->
  Ascend.Global_tensor.t ->
  Ascend.Global_tensor.t * Ascend.Stats.t
(** Default [s = 128]. Input must be [F16]; output is [F16]. The tile
    loop runs under {!Scan_core.current_schedule}; the
    double-buffering ablation of DESIGN.md (bench A2) runs it under
    {!Scan_core.with_schedule}[ Serial]. *)
