(** Deterministic, seeded chaos scheduling: failure storylines as
    replayable artifacts.

    PR 1–2 gave the simulator the {e mechanisms} of failure — seeded
    MTE faults, core kills, quarantine, watchdog deadlines. This
    module adds the {e storyline}: a declarative scenario compiled
    into {!Ascend.Fault} / {!Ascend.Health} injections applied at
    group-launch boundaries of a checkpointed batched run. The same
    scenario file and seed reproduce the exact same fault schedule,
    recovery decisions and metrics, so a failure mode seen once can be
    committed to the repo and replayed forever (the CI chaos suite).

    {2 Scenario DSL}

    Line-based; [#] starts a comment. Header directives, then events:

    {v
    name cube-storm          # optional scenario name
    seed 42                  # splitmix64 stream seed (default 0)
    rate 0.001               # base per-transfer fault rate (default 0)
    at launch 2 storm rate=0.8 kinds=bit_flip,dropped_copy scope=cube for=3
    at launch 4 kill core=3
    at launch 6 quarantine core=5 for=4
    at time 2.5e-3 stall factor=16 for=2
    at launch 9 crash
    v}

    Triggers are [launch N] (the N-th group launch, 0-based) or
    [time T] (simulated seconds elapsed reaches T); each event fires
    once. Actions:

    - [kill core=C] — permanent core death;
    - [quarantine core=C for=K] — {e transient} quarantine: the core
      is retired now and revived K launches later;
    - [storm rate=R \[kinds=..\] \[scope=all|cube|vec\] \[factor=F\]
      for=K] — raise the MTE fault-injection policy for K launches,
      then restore the base policy (the stream position is never
      reset, so storms do not perturb later draws);
    - [stall factor=F for=K] — a watchdog-stall storm: sugar for
      [storm rate=1 kinds=engine_stall] with the given latency factor;
    - [crash] — a simulated host crash (see {!arm}). *)

exception Host_crash of string
(** Raised (by default) when a [crash] event fires; the process dies
    mid-batch from the runner's point of view. The CLI's [chaos run]
    turns it into a real [SIGKILL] instead. *)

type action =
  | Kill of { core : int }
  | Quarantine of { core : int; for_launches : int }
  | Storm of {
      rate : float;
      kinds : Ascend.Fault.kind list;
      scope : Ascend.Fault.scope;
      stall_factor : float option;
      for_launches : int;
    }
  | Crash

type trigger = At_launch of int | At_time of float

type event = { trigger : trigger; action : action }

type scenario = {
  sc_name : string;
  sc_seed : int;
  sc_rate : float;
  sc_events : event list;
}

val parse : string -> (scenario, string) result
(** Parse scenario file contents; [Error] carries the offending line
    number and a usage hint (the CLI maps it to exit 2, consistent
    with {!Ascend.Fault.parse_spec}). The device-level actions of the
    retired multi-device runner, [kill device=D] and
    [link src=D dst=E for=K], are parse errors. *)

val load : string -> (scenario, string) result
(** {!parse} the file at a path; unreadable files are [Error]s. *)

val action_to_string : action -> string
val pp_scenario : Format.formatter -> scenario -> unit

val fault_config : scenario -> Ascend.Fault.config
(** The base fault config a chaos device must be created with: the
    scenario seed and base rate, all kinds, all MTEs. Storms override
    it in place through {!Ascend.Fault.set_config}. *)

type t
(** An armed scheduler: the scenario plus firing state. Arm a fresh
    one per run — replays need a fresh cursor. *)

val arm : ?skip_crashes:bool -> ?on_crash:(string -> unit) -> scenario -> t
(** [skip_crashes] (used by resume: one storyline, one host crash)
    logs crash events instead of firing them. [on_crash] defaults to
    raising {!Host_crash}; the CLI substitutes a self-[SIGKILL]. *)

val scenario : t -> scenario

val before_launch :
  t -> Ascend.Device.t -> launch_index:int -> elapsed_s:float -> unit
(** Apply every due event, in file order: expire storm/quarantine
    windows first, then fire events whose launch index or simulated
    time has arrived. Mutates the device's fault model and health
    monitor; notes each application on the device trace. Called by
    [Resilient.batched_scan] before every group launch. *)

val fired : t -> (int * string) list
(** [(launch_index, description)] log of applied events, oldest
    first — the scenario's replayable evidence. *)

val crashed : t -> bool
(** Whether a crash event fired (even when [skip_crashes] ate it). *)
