(** Deterministic, seeded fault injection for the simulated device.

    Real accelerator fleets see silent data corruption, ECC events and
    stalled engines; this module turns the simulator into a testbed for
    detecting and surviving them. A fault model is attached to a device
    at {!Device.create} time and consulted by the MTEs on every
    [DataCopy] between global memory and the scratchpads:

    - {!Bit_flip}: one payload bit of one transferred element flips (in
      the binary16 encoding for fp16 lanes, in the two's-complement
      field for integer lanes);
    - {!Dropped_copy}: the transfer never lands (destination keeps its
      previous contents) but is still charged;
    - {!Truncated_copy}: only a prefix of the burst lands;
    - {!Engine_stall}: the transfer completes correctly but at a
      multiple of its normal latency.

    Faults are drawn from a seeded splitmix64 stream, so a given seed
    reproduces the exact same fault schedule. Every injected fault is
    appended to a log; {!Launch.run_phases} snapshots the log so each
    {!Stats.t} carries the faults injected during that launch. *)

type kind = Bit_flip | Dropped_copy | Truncated_copy | Engine_stall

val kind_to_string : kind -> string
val all_kinds : kind list

val corrupts_data : kind -> bool
(** Whether the kind corrupts payload data (everything except
    [Engine_stall], which only costs time). *)

type scope =
  | All_mtes  (** Inject on every MTE transfer. *)
  | Cube_mtes  (** Only cube-side MTEs (models a failing cube engine). *)
  | Vec_mtes  (** Only vector-side MTEs. *)

type config = {
  seed : int;
  rate : float;  (** Per-transfer injection probability in [0,1]. *)
  kinds : kind list;
  scope : scope;
  stall_factor : float;  (** Latency multiplier of an injected stall. *)
  kills : (int * float) list;
      (** Persistent mode 1 — seeded core deaths: [(core, cycle)] kills
          the core once its cumulative busy cycles reach [cycle]
          (cycle 0 = dead on arrival). Tracked by {!Health}. *)
  quarantine_after : int option;
      (** Persistent mode 2 — a core is permanently quarantined by
          {!Health} after this many injected faults land on it. *)
}

val config :
  ?kinds:kind list ->
  ?scope:scope ->
  ?stall_factor:float ->
  ?kills:(int * float) list ->
  ?quarantine_after:int ->
  seed:int ->
  rate:float ->
  unit ->
  config
(** Defaults: all kinds, [All_mtes], stall factor 8, no kills, no
    quarantine. Raises [Invalid_argument] on a rate outside [0,1], an
    empty kind list, a stall factor below 1, a negative kill core or
    cycle, or a quarantine budget below 1. *)

val parse_spec : string -> (int * float, string) result
(** Parse a CLI [SEED:RATE] fault spec: the seed must be a non-negative
    integer and the rate a probability in [0,1]; anything else (negative
    or fractional seeds, rates outside [0,1], nan, extra fields) is an
    [Error] with a usage message. *)

type event = {
  seq : int;  (** Injection order, 0-based. *)
  kind : kind;
  op : string;  (** The MTE op, e.g. ["datacopy_in"]. *)
  engine : string;
  tensor : string;  (** Name of the global tensor of the transfer. *)
  index : int;  (** Element index hit (flip/truncation point), -1 if n/a. *)
  bit : int;  (** Flipped bit, -1 if n/a. *)
  detail : string;
}

type action =
  | No_fault
  | Flip of { index : int; bit : int }
      (** [index] is relative to the copied range. *)
  | Drop
  | Truncate of int  (** Number of leading elements that still land. *)
  | Stall of float  (** Latency multiplier. *)

type t

val create : config -> t

val config_of : t -> config
(** The {e currently active} config (see {!set_config}). *)

val set_config : t -> config -> unit
(** Replace the active injection policy (rate/kinds/scope/stall
    factor) without resetting the random stream or the event log —
    the mechanism behind [Runtime.Chaos] fault storms. The [seed],
    [kills] and [quarantine_after] fields of the new config are
    ignored: the stream keeps its position and the {!Health} monitor
    keeps the wiring it was created with. *)

val draw :
  t ->
  engine:Engine.t ->
  op:string ->
  tensor:string ->
  dst_off:int ->
  len:int ->
  elem_bits:int ->
  action
(** Decide the fate of one transfer of [len] elements landing at
    [dst_off]; records an event when a fault is injected. Out-of-scope
    engines and empty transfers never fault. *)

val flip_in_buffer : Host_buffer.t -> index:int -> bit:int -> unit
(** Apply a bit flip to one element, respecting the buffer's dtype. *)

val events : t -> event list
(** All events, in injection order. *)

val events_since : t -> int -> event list
(** [events_since t n] returns events with [seq >= n], in order. *)

val count : t -> int
val count_kind : t -> kind -> int

val pp_event : Format.formatter -> event -> unit
val pp_summary : Format.formatter -> t -> unit
