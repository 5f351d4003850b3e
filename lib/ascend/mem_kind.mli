(** The local scratchpad memories of one simulated AI core.

    The cube core owns the hierarchical L1 / L0A / L0B / L0C buffers;
    each vector core owns one Unified Buffer (UB). Sizes follow the
    910B DaVinci architecture description. *)

type t =
  | Ub of int  (** Unified Buffer of vector core [i]. *)
  | L1  (** Cube-core staging buffer. *)
  | L0a  (** Left matrix operand buffer. *)
  | L0b  (** Right matrix operand buffer. *)
  | L0c  (** Accumulator / output buffer (fp32 or int32). *)

val capacity_bytes : t -> int

val owner : vec_per_core:int -> t -> Engine.t
(** Compute engine co-located with the memory: [Vec i] for [Ub i],
    [Cube] for the L1/L0 hierarchy. *)

val equal : t -> t -> bool
val to_string : t -> string
