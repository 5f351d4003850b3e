(** Per-core health tracking: the monitor behind degraded-mode runs.

    Every device owns one [Health.t] covering its AI cores. The launch
    path consults it to map blocks onto the {e surviving} core set, and
    {!Scheduler.plan} sizes kernel partitions from it, so a dead core
    shifts work to the survivors instead of failing the run.

    Two persistent failure modes feed the monitor (configured through
    {!Fault.config} or the CLI):

    - a {e seeded kill}: core [c] dies once its cumulative charged busy
      cycles reach a configured threshold (cycle 0 = dead on arrival).
      {!Block.charge} raises {!Core_dead} at the crossing, so the death
      lands mid-block and the launch replays that block elsewhere;
    - {e quarantine}: when [quarantine_after] is set, the [n]-th
      injected fault attributed to a core permanently retires it (the
      score is the per-core fault count across the device's lifetime).

    Deaths are permanent for the life of the device. With no kills
    configured and no quarantine threshold the monitor is inert and the
    launch path is bit- and time-identical to a healthy device. *)

exception Core_dead of { core : int; cycle : float }
(** Raised (from {!Block.charge} / the fault hook) at the moment a core
    crosses its kill threshold or trips quarantine; caught by
    {!Launch.run_phases}, which replays the block on a surviving core. *)

exception All_cores_dead
(** Raised when work is scheduled but no core is left alive. *)

type reason = Killed | Quarantined of int | Marked

type t

val create :
  num_cores:int ->
  ?kills:(int * float) list ->
  ?quarantine_after:int ->
  unit ->
  t
(** [kills] lists [(core, cycle)] seeded deaths; [quarantine_after] is
    the per-core injected-fault budget. Raises [Invalid_argument] on an
    out-of-range core, a negative cycle or a quarantine budget < 1. *)

val num_cores : t -> int

val alive : t -> int -> bool
val alive_cores : t -> int list
(** Surviving physical core ids, ascending. *)

val num_alive : t -> int

val kill_threshold : t -> int -> float
(** The seeded kill cycle of a core ([infinity] when none). *)

val cycles_done : t -> int -> float
(** Cumulative charged busy cycles executed on a core (the clock the
    kill thresholds are measured against). *)

val note_cycles : t -> core:int -> float -> unit
(** Advance a core's cycle clock by one finished block's busy cycles;
    marks the core dead if the clock crossed its kill threshold. *)

val note_fault : t -> core:int -> cycle:float -> unit
(** Attribute one injected fault to a core. Raises {!Core_dead} when
    this trips the quarantine budget. *)

val mark_dead : ?reason:reason -> t -> core:int -> unit
(** Retire a core immediately (idempotent). *)

val revive : t -> core:int -> unit
(** Return a dead core to service (idempotent) — the substrate of
    {e transient} quarantines scheduled by [Runtime.Chaos]. A core
    retired past its seeded kill cycle comes back with the threshold
    cleared, so it does not instantly re-die. Only call between
    launches: the launch path snapshots the alive set per phase and
    refreshes it on {!generation} changes, not mid-block. *)

val deaths : t -> (int * float * reason) list
(** [(core, cycle, reason)] per death, in death order. *)

val generation : t -> int
(** O(1) alive-set generation stamp: bumps on every death {e and}
    every {!revive}, so the launch path can cheaply detect that an
    alive-core snapshot went stale in either direction. *)

val inert : t -> bool
(** O(1): the monitor can never raise {!Core_dead} nor shrink the
    alive set — no seeded kills, no quarantine budget, no core dead.
    The launch engine requires this (plus no fault model and no
    sanitizer) before dispatching a phase's blocks across host
    domains; any stateful monitor forces the sequential path. *)

val parse_kill_spec : string -> (int * float, string) result
(** Parse a CLI [CORE@CYCLE] kill spec (plain [CORE] = cycle 0). *)

val pp : Format.formatter -> t -> unit
