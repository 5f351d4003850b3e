(** A deterministic multi-NPU pod: N {!Ascend.Device} instances plus a
    full matrix of directed {!Link}s.

    Device 0 is the {e primary}: it owns the caller-facing tensors,
    carries the armed trace, and keeps whatever fault/deadline config
    the caller gave it. Devices 1..N-1 are internal — same mode and
    domain count as the primary, no fault injection of their own (pod
    failures are injected at the link and whole-device level).

    The [topology] selects the {e default exchange schedule} for the
    distributed scan (ring or all-gather); the link matrix itself is
    always fully connected so failover can reroute around a quarantined
    or downed link through a relay device. Whole-device death
    ({!kill_device}) is permanent, mirrors {!Ascend.Health} semantics
    (all the device's cores are marked dead so stray launches fail
    fast), and is consulted by the distributed scan's re-sharding rule.

    The pod also keeps a per-device clock and an event log
    (local-scan/fixup/link spans, kills, reroutes) that the observer
    layer exports as one Perfetto process per device. *)

open Ascend

module Link = Link
(** Re-export: [pod] is the library's root module, so [Pod.Link] is the
    link model's public path. *)

type topology = Ring | Fully_connected

val topology_to_string : topology -> string

type event_kind =
  | Local_scan
  | Fixup
  | Link_send
  | Reroute
  | Device_kill
  | Phase
  | Note

type event = {
  ev_kind : event_kind;
  ev_device : int;  (** owning device (source for link sends) *)
  ev_peer : int option;  (** destination device for link sends *)
  ev_label : string;
  ev_start_s : float;
  ev_dur_s : float;  (** 0 for instants *)
}

type t

val create :
  ?topology:topology ->
  ?link_config:Link.config ->
  ?seed:int ->
  ?mode:Device.mode ->
  ?domains:int ->
  devices:int ->
  unit ->
  t
(** Build a pod of [devices] fresh devices. Raises [Invalid_argument]
    if [devices < 1]. *)

val create_with :
  ?topology:topology ->
  ?link_config:Link.config ->
  ?seed:int ->
  primary:Device.t ->
  devices:int ->
  unit ->
  t
(** Build a pod around an existing device: [primary] becomes device 0
    (keeping its traces, faults and deadline), and [devices - 1]
    internal devices are created with the primary's mode and domain
    count. Raises [Invalid_argument] if [devices < 1]. *)

val num_devices : t -> int
val topology : t -> topology
val seed : t -> int
val device : t -> int -> Device.t
val primary : t -> Device.t

val alive : t -> int -> bool
val alive_count : t -> int
val alive_devices : t -> int list

val kill_device : t -> int -> unit
(** Permanent whole-device death: the pod stops scheduling shards on
    it, and all its cores are marked dead so anything still holding the
    device fails fast. Idempotent. Raises [Invalid_argument] on an
    out-of-range index. *)

val link : t -> src:int -> dst:int -> Link.t
(** The directed link for an ordered device pair. Raises
    [Invalid_argument] if [src = dst] or either index is out of
    range. *)

exception Partitioned of { src : int; dst : int }
(** Raised by {!send} when a transfer fails on the direct link and on
    every relay route — the surviving devices can no longer reach each
    other. *)

type sent = {
  snd_seconds : float;  (** total link time charged for the delivery *)
  snd_attempts : int;  (** link attempts consumed, all routes *)
  snd_via : int option;  (** relay device, when rerouted *)
}

val send : t -> src:int -> dst:int -> bytes:int -> label:string -> sent
(** Deliver [bytes] from [src] to [dst], retrying per the link config,
    reroute through the first alive relay (ascending device order)
    whose two hops both deliver when the direct link fails, and raise
    {!Partitioned} when no route delivers. [src = dst] is free.
    Records link events against the source device's clock. *)

(* Clocks and events, for trace export. *)

val clock : t -> int -> float
val advance_clock : t -> int -> float -> unit
val sync_clocks : t -> unit
(** Barrier: advance every alive device's clock to the pod-wide max. *)

val record : t -> event -> unit
val events : t -> event list
(** Oldest first. *)

(* Pod-wide link counters (summed over the matrix). *)

val link_sends : t -> int
val link_retries : t -> int
val link_seconds : t -> float
val reroutes : t -> int

val pp : Format.formatter -> t -> unit
