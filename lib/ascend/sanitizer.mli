(** Hardware sanitizer: opt-in validation of kernel execution.

    Enabled per device ([Device.create ~sanitize:true ()]), the
    sanitizer reports structured diagnostics instead of letting kernels
    silently compute garbage:

    - {!Out_of_bounds}: an engine op addressed a range outside a
      global or local tensor (recorded before the op raises);
    - {!Write_write_hazard} / {!Read_write_hazard}: two different
      blocks touched overlapping ranges of the same global tensor
      within one phase, with at least one write — i.e. a missing
      [SyncAll]. The simulator executes blocks sequentially, so such
      kernels appear to work here but race on real hardware;
    - {!Queue_violation}: an AscendC queue was enqueued with no free
      buffer or dequeued while empty (see {!Queue});
    - {!Async_hazard}: an engine op consumed a local tile that is still
      the destination of an in-flight asynchronous [DataCopy] — the
      kernel issued {!Mte.copy_in_async} but used the tile before the
      matching [wait_group]. In the simulator the data happens to be
      there (host blits are eager); on hardware the read races the
      copy.

    Hazard tracking coalesces each block's accesses per tensor into a
    bounding span, which is exact for tiled kernels. Kernels that
    legitimately interleave data-dependent disjoint writes (scatter
    stores) annotate the output via {!Block.assume_disjoint_writes}. *)

type kind =
  | Out_of_bounds
  | Queue_violation
  | Write_write_hazard
  | Read_write_hazard
  | Async_hazard

val kind_to_string : kind -> string

type diag = {
  kind : kind;
  phase : int;  (** 0-based phase index within the current launch. *)
  block : int;  (** First offending block (-1 when not block-specific). *)
  op : string;
  tensor : string;
  message : string;
}

type t

val create : unit -> t

val begin_phase : t -> unit
(** Called by {!Launch} at the start of every phase. *)

val end_phase : t -> unit
(** Called by {!Launch} at the end of every phase; runs the cross-block
    hazard analysis over the accesses recorded since [begin_phase]. *)

val record_global_access :
  t ->
  block:int ->
  tensor_id:int ->
  tensor_name:string ->
  write:bool ->
  off:int ->
  len:int ->
  op:string ->
  unit
(** Called by the MTE ops on every GM transfer. *)

val exempt_tensor : t -> tensor_id:int -> reason:string -> unit
(** Exclude a tensor from hazard analysis for the current phase. *)

val record_oob : t -> block:int -> op:string -> tensor:string -> message:string -> unit

val record_async_hazard :
  t -> block:int -> op:string -> tensor:string -> message:string -> unit
(** Called by {!Block.check_async_use} when an engine op consumes a
    tile with an un-waited asynchronous copy in flight. *)

val diagnostics : t -> diag list
(** All diagnostics, oldest first (capped at 256). *)

val count : t -> int
val count_kind : t -> kind -> int

val pp_report : Format.formatter -> t -> unit

(** Checked AscendC queue discipline (EnQue/DeQue over a fixed buffer
    pool). Violations are recorded as {!Queue_violation} diagnostics
    rather than raising, mirroring how a hardware sanitizer reports. *)
module Queue : sig
  type q

  val make : t -> block:int -> name:string -> depth:int -> q
  (** Raises [Invalid_argument] when [depth < 1]. *)

  val in_flight : q -> int
  val enqueue : q -> unit
  val dequeue : q -> unit
end
