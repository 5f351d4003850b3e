(** A tensor resident in simulated global memory (HBM).

    Mirrors AscendC's [GlobalTensor]: kernel inputs and outputs always
    live here, and compute engines can only reach the data through MTE
    copies into local buffers.

    When the owning device runs in [Cost_only] mode (see {!Device}) the
    tensor carries no backing storage, allowing benchmarks to model
    multi-hundred-megabyte inputs; host-side accessors then raise. *)

(** Private, like {!Local_tensor.t}: an MTE copy reads fields. *)
type t = private {
  id : int;
  name : string;
  dtype : Dtype.t;
  length : int;
  data : Host_buffer.t option;  (** [None] on a cost-only device. *)
}

val make :
  id:int -> name:string -> dtype:Dtype.t -> length:int -> backed:bool -> t
(** Used by {!Device.alloc}; not intended for direct use. *)

val id : t -> int
val name : t -> string
val dtype : t -> Dtype.t
val length : t -> int
val size_bytes : t -> int

val is_backed : t -> bool
(** [false] for cost-only tensors without storage. *)

val buffer : t -> Host_buffer.t
(** Backing storage; raises [Invalid_argument] on a cost-only tensor. *)

val get : t -> int -> float
(** Host-side read (outside any kernel timing). *)

val set : t -> int -> float -> unit
(** Host-side write (outside any kernel timing). *)

val load : t -> float array -> unit
(** Host-side bulk initialisation from index 0. *)

val fill : t -> float -> unit
(** Host-side fill of the whole tensor with one (rounded) value. *)

val retire : t -> unit
(** Recycle the backing storage through the {!Host_buffer} pool (no-op
    on cost-only tensors). For kernel-internal intermediates that never
    escape their kernel — e.g. McScan's tile-local-scan and block-sum
    tensors — so repeated launches reuse instead of reallocating. The
    tensor must not be used afterwards. Only the written prefix is
    re-zeroed; the blocks of a domain-parallel launch that wrote it
    concurrently raise its extent atomically (see
    {!Host_buffer.retire}). *)

val to_array : t -> float array
