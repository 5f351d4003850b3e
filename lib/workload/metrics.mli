(** The performance metrics used by the paper's figures. *)

val scan_bandwidth : Ascend.Stats.t -> n:int -> esize:int -> float
(** Effective scan bandwidth in bytes/s: [2 * n * esize / time] —
    [n] elements read plus [n] written, regardless of the algorithm's
    internal traffic (the paper's GB/s metric). *)

val giga_elements_per_second : Ascend.Stats.t -> n:int -> float

val speedup : baseline:Ascend.Stats.t -> Ascend.Stats.t -> float
(** [baseline.seconds / this.seconds]. *)


val percent_of_peak : float -> float
(** Bandwidth as a percentage of the 800 GB/s device peak. *)
