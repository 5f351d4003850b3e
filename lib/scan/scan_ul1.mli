(** ScanUL1 (Algorithm 2): single-cube scan via Equation 1.

    For each tile [z] of length [s^2], viewed as the [s x s] row-major
    matrix [A], the cube unit evaluates

    {[ scan(z) = A @ U_s + L_s^- @ A @ 1_s ]}

    as the sequence [C1 = A @ 1], [C2 = A @ U], [C2 += L^- @ C1]: the
    first two multiplications share the left operand [A] in L0A, and the
    third uses the cube accumulation buffer, so each input element is
    loaded into the cube core exactly once. A single vector core then
    only adds one scalar (the previous tile's last value) per whole
    tile, an [s]-fold reduction of vector work compared to ScanU. *)

val run :
  ?s:int ->
  Ascend.Device.t ->
  Ascend.Global_tensor.t ->
  Ascend.Global_tensor.t * Ascend.Stats.t
(** Default [s = 128]. Input must be [F16]; output is [F16]. *)

(** {2 Building blocks} (reused by the batched kernel) *)

type bufs
(** The per-block cube-side buffer set: ping-pong L0A input slots, the
    L0B operand, the C1 accumulator and ping-pong C2 result slots in
    L0C, and the U / L^- / 1 constants plus a C1 staging area in L1. *)

val alloc_bufs : Ascend.Block.t -> s:int -> bufs

val load_tile :
  Ascend.Block.t ->
  schedule:Scan_core.schedule ->
  x:Ascend.Global_tensor.t ->
  off:int ->
  len:int ->
  bufs:bufs ->
  slot:int ->
  unit
(** Stage tile [x\[off, off+len)] into L0A slot [slot] (async under a
    pipelined schedule) — the load stage of the walker. *)

val compute_tile :
  Ascend.Block.t ->
  schedule:Scan_core.schedule ->
  y:Ascend.Global_tensor.t ->
  off:int ->
  len:int ->
  s:int ->
  bufs:bufs ->
  slot:int ->
  unit
(** Evaluate Equation 1 over the staged slot and store C2 slot [slot]
    to [y\[off, off+len)] — the work stage of the walker. *)
