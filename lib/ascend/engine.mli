(** The hardware engines of one simulated AI core.

    An Ascend 910B AI core couples one AI Cube (AIC) core with
    [vec_per_core] AI Vector (AIV) cores. Each of these sub-cores has a
    compute engine and inbound/outbound Memory Transfer Engines (MTEs)
    with independent instruction queues, so within a software pipeline
    they all run in parallel (see {!Block.charge_async} and
    {!Block.wait_group}). *)

type t =
  | Cube_mte_in  (** MTE queue moving GM/L1 data into the cube core. *)
  | Cube  (** Cube compute engine; also executes L1/L0 fixed-function moves. *)
  | Cube_mte_out  (** MTE queue moving L0C results out to GM. *)
  | Scalar  (** Scalar unit of the AI core (program flow, addresses). *)
  | Vec_mte_in of int  (** Inbound MTE of vector core [i]. *)
  | Vec of int  (** Vector compute engine of vector core [i]. *)
  | Vec_mte_out of int  (** Outbound MTE of vector core [i]. *)

val count : vec_per_core:int -> int
(** Number of distinct engines on one AI core. *)

val index : vec_per_core:int -> t -> int
(** Dense index in [\[0, count - 1\]]; raises [Invalid_argument] for a
    vector-core index outside [\[0, vec_per_core - 1\]]. *)

val lane_count : vec_per_core:int -> int
(** Number of program lanes (instruction streams) on one AI core:
    [1 + vec_per_core]. *)

val lane : vec_per_core:int -> t -> int
(** The program lane an engine's instructions are issued from: the
    cube core and scalar unit share lane 0 (the AI core's stream);
    vector core [i]'s engines live on lane [1 + i]. Lanes advance
    independently in the {!Block} event timeline, so engines on
    different lanes overlap without any pipelining annotation. *)

val is_mte : t -> bool

val queue : t -> string
(** AscendC issue-queue name of the engine — ["MTE2"] (GM -> local
    moves), ["MTE3"] (local -> GM), ["M"] (cube), ["V"] (vector),
    ["S"] (scalar) — used as the span category in traces. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val all : vec_per_core:int -> t list
(** All engines of one AI core, in {!index} order. *)

val names : vec_per_core:int -> string array
(** [to_string] of every engine in {!index} order, built once per
    [vec_per_core] and shared: the caller must not mutate it. *)
