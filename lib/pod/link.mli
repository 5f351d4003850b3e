(** Inter-device link: a deterministic cost model with its own seeded
    fault stream.

    A link is a {e directed} channel between two devices of a pod. Each
    transfer is charged [latency_s + bytes / bandwidth_bytes_per_s]
    seconds; a seeded splitmix64 stream (independent per ordered device
    pair) injects three fault kinds:

    - {e drop}: the packet vanishes; the sender burns [timeout_s]
      waiting, then retries;
    - {e corrupt}: the packet arrives with a flipped bit; the receiver's
      CRC32 check detects the mismatch and the sender retries (a
      corrupted payload is {e never} delivered, so link faults can bend
      time and retry counters but never output values);
    - {e stall}: the transfer completes but takes [stall_factor] times
      longer.

    Retries back off exponentially ([backoff_s * 2^(attempt-2)]). A send
    that exhausts [max_attempts] is undelivered and counts one
    consecutive failure; [quarantine_after] consecutive failed sends
    quarantine the link for good (subsequent sends fail fast). Chaos
    link outages use {!set_down}.

    Everything is a pure function of the config, the seed and the send
    sequence — two links with the same history behave identically. *)

type fault_kind = Drop | Corrupt | Stall

type config = {
  bandwidth_bytes_per_s : float;  (** payload rate; default 25 GB/s *)
  latency_s : float;  (** per-transfer setup cost; default 1.5 us *)
  fault_rate : float;  (** per-attempt fault probability; default 0 *)
  fault_kinds : fault_kind list;  (** kinds the stream draws from *)
  stall_factor : float;  (** slowdown of a stalled transfer *)
  timeout_s : float;  (** time burned by a dropped packet *)
  max_attempts : int;  (** attempts per send before giving up *)
  backoff_s : float;  (** base retry backoff (doubles per retry) *)
  quarantine_after : int;  (** consecutive failed sends to quarantine *)
}

val default_config : config
(** Fault-free 25 GB/s link: 1.5 us latency, 4 attempts, 1 us backoff
    base, 10 us drop timeout, stall factor 4, quarantine after 3
    consecutive failed sends. *)

type t

val create : ?config:config -> seed:int -> src:int -> dst:int -> unit -> t
(** The fault stream is seeded from [seed] and the ordered pair
    [(src, dst)], so every link of a pod is independent yet
    reproducible. Raises [Invalid_argument] on an invalid config. *)

val src : t -> int
val dst : t -> int

type outcome = {
  delivered : bool;
  attempts : int;  (** attempts consumed by this send (0 if down) *)
  seconds : float;  (** wall time charged, including backoff *)
  dropped : int;  (** packets lost to drops during this send *)
  crc_detected : int;  (** corruptions caught by the receiver's CRC *)
  stalled : int;  (** transfers that completed slow *)
}

val send : t -> bytes:int -> outcome
(** Push [bytes] through the link. A send on a down or quarantined link
    returns [delivered = false] with zero attempts and zero cost
    (fail fast — the caller reroutes or fails the group). *)

val set_down : t -> bool -> unit
(** Chaos control: force the link down (or back up). *)

val quarantined : t -> bool

(* Lifetime counters. *)

val sends : t -> int

val retries : t -> int
(** Attempts beyond the first, summed over the link's lifetime. *)

val crc_detected : t -> int
val seconds : t -> float

val crc32 : Bytes.t -> int
(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven:
    the receiver-side checksum, and the checkpoint store's header and
    record checksum. *)

val pp : Format.formatter -> t -> unit
