(** Building blocks shared by the scan kernels. *)

val hillis_steele_tile :
  Ascend.Block.t ->
  vec:int ->
  op:Ascend.Vec.binop ->
  buf:Ascend.Local_tensor.t ->
  tmp:Ascend.Local_tensor.t ->
  len:int ->
  unit
(** In-UB inclusive scan of [buf.(0 .. len)] under [op] (Add, Max, ...)
    with the log-step Hillis-Steele network: [ceil (log2 len)] rounds of
    one shifted {!Ascend.Vec.binop} plus one stitch copy. [tmp] is a
    scratch tile of the same data type and at least [len] elements.
    This is the vector-only building block the cube-based scans replace
    (and the inner loop of the {!Max_scan} and {!Segmented_scan}
    kernels, which have no matmul formulation). *)

val segmented_hillis_steele_tile :
  Ascend.Block.t ->
  vec:int ->
  v:Ascend.Local_tensor.t ->
  f:Ascend.Local_tensor.t ->
  tmp_v:Ascend.Local_tensor.t ->
  tmp_f:Ascend.Local_tensor.t ->
  zero:Ascend.Local_tensor.t ->
  len:int ->
  unit
(** In-UB inclusive {e segmented} scan of the (value, segment-start
    flag) pairs under the standard segmented-sum operator
    [(v2,f2) . (v1,f1) = ((if f2 then v2 else v1+v2), f1 or f2)]:
    per round, the shifted contribution is masked by the current flags
    with a vector select. [f] and [tmp_f] are int8; [zero] is a
    zero-filled value tile. After the call [v] holds the segmented
    inclusive scan and [f.(i)] is non-zero iff a segment boundary lies
    in [(0, i\]]. *)

val ceil_div : int -> int -> int
(** [ceil_div a b = (a + b - 1) / b] for positive [b]. *)

val round_up : int -> int -> int
(** Smallest multiple of [m] that is [>= a]. *)
