(** Degradation controller: a circuit breaker plus a brownout ladder,
    the one retry policy of the resilient runners. Every attempt
    budget and backoff in {!Resilient} comes from
    here; the plain fixed-budget policy is the {!fixed} configuration
    (a breaker that cannot open).

    The Ascend serving field study (PAPERS.md) finds that recovery and
    degradation {e policy} — not raw kernel speed — dominates tail
    behaviour under failures. This module makes that policy explicit
    and testable:

    {2 Circuit breaker}

    Group-attempt outcomes feed a sliding window. While the failure
    rate stays under [open_threshold] the breaker is {e closed} and
    retries run with the full attempt budget and an exponential
    backoff. When the rate trips the threshold the breaker {e opens}:
    the next attempt is preceded by a cooldown pause (simulated
    seconds, charged to the run's stats and doubling on every re-open)
    and executes as a single {e half-open} probe. A successful probe
    closes the breaker and clears the window; a failed one re-opens it
    with a longer cooldown.

    {2 Brownout ladder}

    Every breaker opening escalates one brownout level:

    + [Normal] — full granularity, primary schedule;
    + [Shrink_groups] — halve the checkpoint group granularity, so a
      failure replays fewer rows;
    + [Switch_schedule] — also switch the batched schedule to the
      alternate kernel (a failing cube path is routed around);
    + [Shrink_exchange] — changes no runner behaviour (the
      [Switch_schedule] granularity and schedule hold). It stays
      because it delays [Shed_rows] by one breaker opening: removing
      it would change chaos decision logs and metrics;
    + [Shed_rows] — also give up on groups that keep failing past
      [shed_attempts] total attempts, shedding their rows so the rest
      of the batch completes.

    Sustained success ([recover_after] consecutive validated groups)
    walks the ladder back down one level at a time.

    Everything is deterministic: no wall clock, no randomness — the
    controller is a pure function of the outcome sequence, so chaos
    scenarios replay to identical decision logs. Every transition is
    appended to {!decisions} and fed to the [on_decision] hook, which
    the resilient runner forwards to trace instant marks and the
    Prometheus registry. *)

type state = Closed | Open | Half_open

val state_to_string : state -> string

type level =
  | Normal
  | Shrink_groups
  | Switch_schedule
  | Shrink_exchange
  | Shed_rows

val level_to_string : level -> string

type config = {
  window : int;  (** Sliding outcome window size. *)
  min_samples : int;  (** Outcomes required before the breaker can trip. *)
  open_threshold : float;  (** Window failure rate in [0,1] that opens it. *)
  cooldown_s : float;  (** First-open cooldown, simulated seconds. *)
  max_cooldown_s : float;  (** Cap for the doubling cooldown. *)
  base_backoff_s : float;  (** Adaptive retry backoff base. *)
  max_backoff_s : float;  (** Per-retry backoff cap. *)
  max_attempts : int;  (** Per-group attempt budget, breaker closed. *)
  probe_attempts : int;  (** Per-group budget for a half-open probe. *)
  shed_attempts : int;  (** Group attempts before [Shed_rows] sheds it. *)
  recover_after : int;  (** Consecutive successes per de-escalation. *)
}

val default_config : config
(** window 8, min_samples 4, open_threshold 0.5, cooldown 4us (cap
    1ms), base backoff 1us (cap 100us), 3 attempts, 1 probe, shed
    after 6, recover after 4. *)

val config :
  ?window:int ->
  ?min_samples:int ->
  ?open_threshold:float ->
  ?cooldown_s:float ->
  ?max_cooldown_s:float ->
  ?base_backoff_s:float ->
  ?max_backoff_s:float ->
  ?max_attempts:int ->
  ?probe_attempts:int ->
  ?shed_attempts:int ->
  ?recover_after:int ->
  unit ->
  config
(** {!default_config} with overrides; raises [Invalid_argument] on a
    non-positive window/budget, a threshold outside (0,1], or a
    negative time. *)

val fixed : ?max_attempts:int -> ?backoff_s:float -> unit -> config
(** The fixed retry policy as a configuration: a breaker that can
    never open (so no cooldown, probe or brownout), a per-group budget
    of [max_attempts] (default 3) and an uncapped [backoff_s * 2^(k-1)]
    backoff before the k-th retry ([backoff_s] defaults to 0). It is
    the runners' default controller. *)

type decision = {
  seq : int;  (** 0-based decision order. *)
  d_state : state;  (** Breaker state after the decision. *)
  d_level : level;  (** Brownout level after the decision. *)
  d_cooldown_s : float;  (** Cooldown charged by this decision (0 if none). *)
  d_reason : string;  (** e.g. ["failure rate 0.63 >= 0.50 over 8"]. *)
}

type t

val create : ?config:config -> ?on_decision:(decision -> unit) -> unit -> t

val state : t -> state
val level : t -> level

val can_open : t -> bool
(** Whether the configured breaker can ever open ([min_samples <=
    window]); false for {!fixed}. The batched runners grant grace
    sweeps only to a controller that can. *)

val record : t -> ok:bool -> unit
(** Feed one group-attempt outcome; drives every transition. *)

val before_attempt : t -> attempt:int -> float
(** Simulated backoff seconds the caller must charge before [attempt]
    (1-based, counted within one group or one run): the pending
    open-state cooldown (the call moves an [Open] breaker to
    [Half_open]) plus, from the second attempt on,
    [base_backoff_s * 2^(attempt-2)] capped at [max_backoff_s]. *)

val attempts_allowed : t -> int
(** The per-group budget under the current state: [max_attempts]
    closed, [probe_attempts] otherwise. *)

val granularity : t -> base:int -> int
(** The brownout-adjusted checkpoint granularity: [base] at [Normal],
    halved at [Shrink_groups], quartered beyond (never below 1). *)

val switch_schedule : t -> bool
(** Whether the ladder has reached [Switch_schedule]. *)

val shed : t -> group_attempts:int -> bool
(** Whether a group that has burned [group_attempts] attempts should
    be shed ([Shed_rows] level and past the [shed_attempts] budget). *)

val decisions : t -> decision list
(** All transitions, oldest first. *)

val opens : t -> int
(** Times the breaker opened. *)

val pp_decision : Format.formatter -> decision -> unit
val pp : Format.formatter -> t -> unit
