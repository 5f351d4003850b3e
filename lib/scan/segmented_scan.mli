(** Multi-core segmented scan: independent prefix sums over segments
    delimited by an int8 start-flag array.

    [y.(i)] is the sum of [x.(j)] for all [j <= i] belonging to the
    same segment as [i]; a new segment starts wherever [flags.(j) <> 0]
    (position 0 always starts a segment). This is the classic ragged /
    variable-length-batch primitive (Blelloch 1990, section 1.5) and an
    extension over the paper's kernels.

    The segmented combine [(v2,f2) . (v1,f1)] is not a matrix product,
    so the in-tile scans run on the vector cores as a log-step network
    over (value, flag) pairs ({!Ascend.Vec.segmented_hillis_steele});
    across tiles and blocks the kernel keeps MCScan's two-phase
    recomputation structure, with per-sub-block carries (end value, had
    boundary) in place of plain sums. *)

val run :
  ?blocks:int ->
  Ascend.Device.t ->
  x:Ascend.Global_tensor.t ->
  flags:Ascend.Global_tensor.t ->
  unit ->
  Ascend.Global_tensor.t * Ascend.Stats.t
(** [x] must be [F16], [flags] an [I8] 0/1 array of the same length;
    the output is [F16]. *)
