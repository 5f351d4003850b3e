(** Topology-aware work partitioning over the surviving core set.

    Kernels used to hard-wire their [parfor] width to
    [Device.num_cores]; they now request a plan, which sizes the launch
    to the cores the {!Health} monitor still considers alive. Because
    every kernel partitions its work purely from [(Block.idx,
    num_blocks)], shrinking the plan re-shards the same computation over
    fewer cores without changing the arithmetic: results are
    bit-identical for {e any} surviving subset, only the timeline
    stretches.

    On a fully healthy device the plan is [num_cores] blocks mapped
    round-robin in core order — exactly the historical launch shape, so
    the zero-failure path is bit- and time-identical. *)

type t

val plan : Device.t -> n:int -> t
(** [plan device ~n] partitions [n] work items over the surviving
    cores. Raises {!Health.All_cores_dead} when no core is alive and
    [Invalid_argument] when [n < 0]. *)

val blocks : t -> int
(** Launch width: the number of surviving cores (>= 1). *)

val alive : t -> int list
(** The surviving physical core ids behind the plan, ascending. *)

val degraded : t -> bool

val chunk : t -> n:int -> grain:int -> int
(** Per-block contiguous chunk: [ceil (n / blocks)] rounded up to a
    multiple of [grain] (a tile size or vector width). *)
