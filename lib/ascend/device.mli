(** A simulated Ascend accelerator: global memory plus a grid of AI
    cores described by a {!Cost_model.t}.

    The device owns tensor allocation and the execution mode:

    - [Functional] (default): every engine op computes numerically
      faithful results in host memory {e and} charges costs. Used by
      tests, examples and moderate-size benchmark points.
    - [Cost_only]: tensors above are unbacked and ops only charge
      costs. Used to model inputs far larger than host memory allows;
      kernels with data-dependent control flow document the analytic
      expectation they substitute (see e.g. {!val:Device.mode}). *)

type mode = Functional | Cost_only

type t

val create :
  ?cost:Cost_model.t ->
  ?mode:mode ->
  ?fault:Fault.config ->
  ?sanitize:bool ->
  ?deadline_cycles:float ->
  ?domains:int ->
  unit ->
  t
(** Defaults: {!Cost_model.default}, [Functional], no fault injection,
    no sanitizer, no deadline. [fault] attaches a seeded {!Fault} model
    consulted by the MTEs on every GM<->UB [DataCopy]; its [kills] and
    [quarantine_after] fields seed the device {!Health} monitor.
    [sanitize] enables the {!Sanitizer} (out-of-bounds, queue and
    missing-[SyncAll] hazard diagnostics). [deadline_cycles] arms the
    launch watchdog: a launch whose cumulative compute critical path
    exceeds the budget raises {!Launch.Deadline_exceeded}. Raises
    [Invalid_argument] on a non-positive deadline.

    [domains] sets the host-side execution width: with [domains > 1] a
    launch dispatches a phase's blocks across that many OCaml domains
    (results stay bit- and Stats-identical to [domains = 1]; see
    {!Launch}); it defaults to the [ASCEND_SIM_DOMAINS] environment
    variable when set to a positive integer, else 1. Raises
    [Invalid_argument] when [domains < 1] is passed explicitly. *)

val cost : t -> Cost_model.t
val mode : t -> mode
val functional : t -> bool

val fault : t -> Fault.t option
(** The device fault model, if fault injection is enabled. *)

val sanitizer : t -> Sanitizer.t option
(** The device sanitizer, if validation mode is enabled. *)

val health : t -> Health.t
(** The per-core health monitor (always present; inert when no kills or
    quarantine are configured and no core has been marked dead). *)

val deadline_cycles : t -> float option
(** The watchdog budget, if armed. *)

val domains : t -> int
(** Host execution width used by {!Launch} (>= 1; 1 = sequential). *)

val trace : t -> Trace.t option
(** The armed event recorder, if any. When present, {!Block} records a
    span per issued instruction and {!Launch} folds each completed
    launch into it. *)

val arm_trace : t -> Trace.t
(** Attach (and return) a fresh {!Trace.t} using the device clock.
    Replaces any previously armed recorder. *)

val num_cores : t -> int

val alloc : t -> Dtype.t -> int -> name:string -> Global_tensor.t
(** Allocate a global tensor (zero-initialised when backed). *)

val of_array : t -> Dtype.t -> name:string -> float array -> Global_tensor.t
(** Allocate and initialise; raises in cost-only mode. *)

val allocated_bytes : t -> int
(** Total global memory footprint allocated so far. *)

val pp : Format.formatter -> t -> unit
