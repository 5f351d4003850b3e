(** Degradation controller: the one retry policy of the resilient
    runners. Every attempt budget and backoff in {!Resilient} comes
    from here. A {!policy} has two cases: [Adaptive], a circuit
    breaker plus a brownout ladder (below), and [Fixed], a plain
    attempt budget with no breaker.

    The Ascend serving field study (PAPERS.md) finds that recovery and
    degradation {e policy} — not raw kernel speed — dominates tail
    behaviour under failures. This module makes that policy explicit
    and testable:

    {2 Circuit breaker}

    Group-attempt outcomes feed a sliding window. While the failure
    rate stays under the threshold the breaker is {e closed} and
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
      [Switch_schedule] granularity and schedule hold). It delays
      [Shed_rows] by one breaker opening: the committed cube-storm
      scenario reaches it at its third opening and recovers there
      with no row shed, where without it the run would shed;
    + [Shed_rows] — also give up on groups that keep failing past
      the shed budget of total attempts, shedding their rows so the
      rest of the batch completes.

    Sustained success (a run of consecutive validated groups) walks
    the ladder back down one level at a time.

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

type policy =
  | Adaptive
      (** The circuit breaker and brownout ladder above, with these
          constants: a window of 8 outcomes, which can trip once it
          holds 4 samples, at a failure rate of 0.5; a 4 us first
          cooldown that doubles on every re-open, capped at 1 ms; a
          retry backoff of [1 us * 2^(k-1)] before the k-th retry,
          capped at 100 us; 3 attempts per group while closed and 1
          probe while open or half-open; groups shed after 6 attempts
          at [Shed_rows]; one level of de-escalation per 4 consecutive
          successes. *)
  | Fixed of { max_attempts : int; backoff_s : float }
      (** A fixed budget of [max_attempts] attempts per group and an
          uncapped [backoff_s * 2^(k-1)] backoff before the k-th
          retry. Its breaker never opens: no cooldown, probe,
          brownout or decision. *)

val fixed : ?max_attempts:int -> ?backoff_s:float -> unit -> policy
(** [Fixed] with [max_attempts] (default 3) and [backoff_s] (default
    0); raises [Invalid_argument] when [max_attempts < 1] or
    [backoff_s < 0]. The resilient runners default to [fixed ()]. *)

type decision = {
  seq : int;  (** 0-based decision order. *)
  d_state : state;  (** Breaker state after the decision. *)
  d_level : level;  (** Brownout level after the decision. *)
  d_cooldown_s : float;  (** Cooldown charged by this decision (0 if none). *)
  d_reason : string;  (** e.g. ["failure rate 0.63 >= 0.50 over 8"]. *)
}

type t

val create : ?policy:policy -> ?on_decision:(decision -> unit) -> unit -> t
(** A fresh controller on [policy] (default [Adaptive]). [on_decision]
    sees every transition; a [Fixed] controller makes none. *)

val policy : t -> policy

val state : t -> state
val level : t -> level

val record : t -> ok:bool -> unit
(** Feed one group-attempt outcome; drives every transition. *)

val before_attempt : t -> attempt:int -> float
(** Simulated backoff seconds the caller must charge before [attempt]
    (1-based, counted within one group or one run): the pending
    open-state cooldown (the call moves an [Open] breaker to
    [Half_open]) plus, from the second attempt on, the policy's
    backoff. *)

val attempts_allowed : t -> int
(** The per-group budget under the current state: the full budget
    while closed, one probe otherwise. *)

val granularity : t -> base:int -> int
(** The brownout-adjusted checkpoint granularity: [base] at [Normal],
    halved at [Shrink_groups], quartered beyond (never below 1). *)

val switch_schedule : t -> bool
(** Whether the ladder has reached [Switch_schedule]. *)

val shed : t -> group_attempts:int -> bool
(** Whether a group that has burned [group_attempts] attempts should
    be shed ([Shed_rows] level and at least 6 attempts). *)

val decisions : t -> decision list
(** All transitions, oldest first. *)

val opens : t -> int
(** Times the breaker opened. *)

val pp_decision : Format.formatter -> decision -> unit
val pp : Format.formatter -> t -> unit
