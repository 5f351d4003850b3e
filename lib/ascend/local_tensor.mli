(** A tensor in one of an AI core's local scratchpads.

    Mirrors AscendC's [LocalTensor]. Local tensors are always backed by
    host storage (they are at most a few hundred KiB), even in cost-only
    device mode; in that mode the engine ops simply skip computing their
    contents.

    A local tensor additionally carries a {e structure} tag used by the
    simulator to evaluate matrix products against the scan constant
    matrices (U, L, strict-L, all-ones) in O(s^2) host time instead of
    O(s^3). The tag is purely an evaluation shortcut: it never changes
    results or costs, and any engine write through the normal ops resets
    it to [General]. *)

type structure =
  | General
  | Upper_ones  (** U_s: upper-triangular all-ones incl. diagonal. *)
  | Lower_ones  (** L_s: lower-triangular all-ones incl. diagonal. *)
  | Strict_lower_ones  (** L_s^-: zero diagonal. *)
  | All_ones  (** 1_s. *)
  | Identity

(** Private, so the engine ops' per-operand checks read fields rather
    than call accessors; the tag changes through {!set_structure}. *)
type t = private {
  kind : Mem_kind.t;
  dtype : Dtype.t;
  length : int;
  buf : Host_buffer.t;  (** {!buffer}. *)
  mutable structure : structure;
}

val make : kind:Mem_kind.t -> dtype:Dtype.t -> length:int -> t
(** Used by {!Block.alloc}; not intended for direct use. *)

val buffer : t -> Host_buffer.t

val structure : t -> structure
val set_structure : t -> structure -> unit

val touch : t -> unit
(** Record an engine write: resets the structure tag to [General]. *)

val retire : t -> unit
(** Recycle the backing storage ({!Host_buffer.retire}). Called by
    {!Block} on every tile that no later block of the phase takes
    over; the tensor must not be used afterwards. *)

val recycle : t -> unit
(** Make the tensor read as fresh from {!make}: zero its dirty extent
    ({!Host_buffer.clear}) and reset the structure tag to [General].
    How {!Block.alloc} hands a tile of the previous block on the same
    context to the next block, which the previous block must no longer
    use. *)

val get : t -> int -> float
val set : t -> int -> float -> unit
