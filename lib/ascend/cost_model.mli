(** Performance model of an Ascend 910B4-class accelerator.

    All compute costs are expressed in core clock cycles; all memory
    throughputs in bytes per second. {!default} is calibrated once
    against the anchor points published in the paper (see DESIGN.md §4)
    and shared by every benchmark; the ablation benches construct
    variants with {!with_} style record updates. The cycle formulas
    over these constants live in {!Block}, next to the charges, so an
    instruction's cost takes no call into this module. *)

type t = {
  clock_hz : float;  (** Core clock of AIC/AIV cores (1.8 GHz). *)
  num_ai_cores : int;  (** AI cores; each has 1 cube + 2 vector cores (20). *)
  vec_per_core : int;  (** Vector cores per AI core (2 on 910B). *)
  hbm_bandwidth : float;  (** Aggregate HBM bandwidth, bytes/s (800e9). *)
  l2_bandwidth : float;  (** Aggregate bandwidth when the working set is L2-resident. *)
  l2_capacity_bytes : int;  (** L2 cache capacity. *)
  mte_stream_bandwidth : float;
      (** Peak bandwidth of one MTE transfer queue (single-core ceiling). *)
  local_stream_bandwidth : float;
      (** Bandwidth of on-chip moves (L1 <-> L0x, L0C -> L1) that never
          touch global memory. *)
  mte_issue_cycles : float;  (** Fixed cost to issue one DataCopy. *)
  vec_bytes_per_cycle : float;
      (** Vector engine datapath width (256 B = 128 fp16 lanes). *)
  vec_issue_cycles : float;  (** Fixed cost to issue one vector instruction. *)
  scalar_access_cycles : float;
      (** Cost of moving one element between UB and a scalar register;
          serialises the issuing engine's pipeline. *)
  scalar_op_cycles : float;  (** One scalar-unit arithmetic operation. *)
  scalar_gm_cycles_per_access : float;
      (** Latency of one element-granular global-memory access from the
          scalar unit; dominates unvectorised baseline operators. *)
  cube_macs_per_cycle_f16 : float;
      (** fp16 multiply-accumulates per cycle (16x16x16 = 4096). *)
  cube_macs_per_cycle_i8 : float;  (** int8 MACs per cycle (double rate). *)
  mmad_issue_cycles : float;  (** Fixed cost to start one Mmad. *)
  cumsum_instrs_per_row : float;
      (** Vector instructions the CumSum AscendC API spends per matrix
          row of its (128,128) tile, including the log-step intra-row
          adds and the inter-row propagation. *)
  sync_all_seconds : float;  (** Latency of a SyncAll global barrier. *)
  kernel_launch_seconds : float;
      (** Host-side launch latency of one kernel (one Launch.run). *)
}

val default : t
(** 910B4 calibration used by all experiments. *)

val cycles_to_seconds : t -> float -> float
val seconds_to_cycles : t -> float -> float

val pp : Format.formatter -> t -> unit
