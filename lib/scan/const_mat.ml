open Ascend

type which = Upper | Lower | Strict_lower | Ones | Ident

let expected ~s:_ which ~i ~j =
  match which with
  | Upper -> if i <= j then 1.0 else 0.0
  | Lower -> if i >= j then 1.0 else 0.0
  | Strict_lower -> if i > j then 1.0 else 0.0
  | Ones -> 1.0
  | Ident -> if i = j then 1.0 else 0.0

let structure_of = function
  | Upper -> Local_tensor.Upper_ones
  | Lower -> Local_tensor.Lower_ones
  | Strict_lower -> Local_tensor.Strict_lower_ones
  | Ones -> Local_tensor.All_ones
  | Ident -> Local_tensor.Identity

(* Bulk structured fill: zero the tile, then write each row's span of
   ones — the stored values match the historical per-element loop
   exactly (0.0 and 1.0 are exact in every dtype). [zeroed] skips the
   zeroing pass when the caller knows the tensor is already
   all-zero (a fresh {!Block.alloc}). *)
let fill_into ~zeroed lt ~s which =
  Local_tensor.touch lt;
  let buf = Local_tensor.buffer lt in
  if not zeroed then Host_buffer.fill_range buf ~off:0 ~len:(s * s) 0.0;
  (match which with
  | Upper ->
      for i = 0 to s - 1 do
        Host_buffer.fill_range buf ~off:((i * s) + i) ~len:(s - i) 1.0
      done
  | Lower ->
      for i = 0 to s - 1 do
        Host_buffer.fill_range buf ~off:(i * s) ~len:(i + 1) 1.0
      done
  | Strict_lower ->
      for i = 1 to s - 1 do
        Host_buffer.fill_range buf ~off:(i * s) ~len:i 1.0
      done
  | Ones -> Host_buffer.fill_range buf ~off:0 ~len:(s * s) 1.0
  | Ident ->
      for i = 0 to s - 1 do
        Host_buffer.set buf ((i * s) + i) 1.0
      done);
  Local_tensor.set_structure lt (structure_of which)

let fill lt ~s which =
  if lt.Local_tensor.length < s * s then
    invalid_arg "Const_mat.fill: tensor shorter than s*s";
  fill_into ~zeroed:false lt ~s which

let load ctx ~engine ~kind ~dtype ~s which =
  if s <= 0 then invalid_arg "Const_mat.load: s must be positive";
  let lt = Block.alloc ctx kind dtype (s * s) in
  (* Charged as one DataCopy of the statically pre-allocated GM
     constant into the cube hierarchy. *)
  Block.const_copy ctx engine ~bytes:(s * s * Dtype.size_bytes dtype);
  if Block.functional ctx then fill_into ~zeroed:true lt ~s which
  else Local_tensor.set_structure lt (structure_of which);
  lt
