(** Generic multi-core element-wise pass over global tensors.

    Streams aligned UB tiles of every input through all vector cores of
    the device, applies a user-supplied sequence of vector instructions
    per tile, and writes one output tile back. Used for the radix mask
    extraction, the float encode/decode passes, and the top-p masking
    step. *)

val run :
  ?name:string ->
  ?scratch:Ascend.Dtype.t list ->
  Ascend.Device.t ->
  inputs:Ascend.Global_tensor.t list ->
  output:Ascend.Global_tensor.t ->
  f:
    (Ascend.Block.t ->
    vec:int ->
    ins:Ascend.Local_tensor.t list ->
    out:Ascend.Local_tensor.t ->
    scratch:Ascend.Local_tensor.t list ->
    len:int ->
    unit) ->
  Ascend.Stats.t
(** All inputs and the output must have the same length. [f] is called
    once per tile and must only issue {!Ascend.Vec} operations on the
    given vector core [vec]; the tile buffers ([ins], [out]) and the
    requested [scratch] tiles all hold [len] valid elements.
    [scratch] data types are given by the [scratch] argument. *)
