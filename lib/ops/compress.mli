(** Compress / compact: the [torch.masked_select] equivalent.

    Returns the input elements whose int8 mask entry is non-zero, in
    order, using an exclusive MCScan on the mask followed by per-tile
    [GatherMask] writes (the true-only special case of {!Split}). *)

type result = {
  values : Ascend.Global_tensor.t;
      (** Full-length tensor whose first [count] entries are the
          compacted elements. *)
  count : int;  (** Number of selected elements (0 in cost-only mode). *)
  stats : Ascend.Stats.t;
}

val run :
  ?s:int ->
  Ascend.Device.t ->
  x:Ascend.Global_tensor.t ->
  mask:Ascend.Global_tensor.t ->
  unit ->
  result
(** [x] must be a 16-bit data type, [mask] an [I8] 0/1 tensor of the
    same length. Default [s = 128]; cost-only mode sizes the output
    at {!Split.run}'s default density of 0.5. *)
