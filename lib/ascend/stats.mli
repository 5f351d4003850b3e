(** Execution statistics of one kernel launch. *)

type phase = {
  compute_seconds : float;
      (** Critical-path time of the slowest core (before the bandwidth cap). *)
  bandwidth_seconds : float;
      (** Lower bound from aggregate GM traffic / effective bandwidth. *)
  seconds : float;  (** max of the two. *)
  gm_bytes : int;  (** GM traffic of this phase (read + write). *)
  footprint_bytes : int;
      (** Distinct global-tensor bytes touched; decides L2 vs HBM
          effective bandwidth. *)
  bandwidth_bound : bool;
}

type t = {
  name : string;
  seconds : float;  (** End-to-end launch time incl. launch + barriers. *)
  phases : phase list;
  blocks : int;
  cores_used : int;
  gm_read_bytes : int;
  gm_write_bytes : int;
  engine_busy : (string * float) list;
      (** Aggregate busy cycles per engine name, summed over blocks. *)
  core_busy : float array;
      (** Busy cycles per {e physical} AI core (index = core id, length
          = [num_cores]), summed over the engines of the blocks the
          core executed — including the partial work of blocks replayed
          after a core death. Dead or idle cores read 0, making
          degraded runs visible. *)
  op_counts : (string * int) list;
      (** Instructions issued per op name, summed over blocks (sorted
          descending by count). *)
  faults : Fault.event list;
      (** Faults injected during this launch (empty without a device
          fault model). *)
  retries : int;
      (** Re-executions folded in by the resilient launcher. *)
  degraded : int;
      (** Fallback switches (e.g. cube path -> vector-only) folded in
          by the resilient launcher. *)
  host_seconds : float;
      (** Host wall-clock spent executing the launch (the simulator's
          own runtime, not simulated device time). Sums under
          {!combine}. *)
  domains : int;
      (** Host execution width the launch ran with (see
          {!Device.create}'s [domains]); max under {!combine}. *)
  launches : int;
      (** Number of device launches folded into these stats: 1 from
          {!Launch.run_phases}, the sum under {!combine}. Divides the
          summed host metrics into per-launch averages (see
          {!host_seconds_per_launch}), which would otherwise be
          ill-defined for combined stats. *)
}

val op_count : t -> string -> int
(** Count for one op name (0 when absent). *)

val core_utilization : t -> float array
(** Per-core busy cycles divided by the launch's simulated seconds.

    {b Units: cycles per second, not a ratio.} A fully busy engine
    contributes [clock_hz] cycles/second, so a core with its cube and
    two vector cores (plus MTEs) saturated reads a multiple of
    [clock_hz]; divide by it to get an occupancy factor. When the
    launch took no simulated time ([seconds <= 0.]) every entry is 0
    (the array keeps its per-core length instead of collapsing to
    [[||]]). *)

val phase_occupancy : phase -> busy_cycles:float -> clock_hz:float -> float
(** [busy_cycles / (phase.seconds * clock_hz)]: occupancy of one engine
    (or engine group) over one phase as a dimensionless fraction of the
    phase duration, 0 when the phase took no time or the clock is
    invalid — the per-phase analogue of {!core_utilization} with the
    zero-duration divide guarded. *)

val host_seconds_per_launch : t -> float
(** [host_seconds / launches]: average host wall-clock per device
    launch — well-defined for combined stats because both fields sum
    under {!combine}; 0 when no launches were recorded. *)

val gm_bytes : t -> int

val equal_simulated : t -> t -> bool
(** Equality of every simulation-determined field — all of them except
    [host_seconds] and [domains], which depend on the host machine.
    Two runs of the same kernel at different [--domains] settings must
    satisfy this exactly (the determinism contract of {!Launch}). *)

val empty : name:string -> t
(** All-zero statistics with no launches folded in — the honest result
    of a resumed job whose checkpoint store already covered every row,
    so nothing was launched at all. *)

val combine : name:string -> t list -> t
(** Aggregate the statistics of a multi-launch operator (e.g. the 17
    scans inside a radix-sorted top-p): seconds and traffic add up,
    phases concatenate, and per-engine busy cycles sum. Raises
    [Invalid_argument] on an empty list. *)

val pp : Format.formatter -> t -> unit
val pp_summary : Format.formatter -> t -> unit
