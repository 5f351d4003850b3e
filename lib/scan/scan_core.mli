(** Monoid-generic tiled-scan engine.

    The structural skeleton shared by every scan kernel — tile
    iteration under the double-buffering pipeline, block/sub-block
    partitioning, and the partial-propagation epilogue — parameterised
    by a {!Scan_op.S} operator module. The kernels in this library are
    thin instances: they pick a tiling and a local-scan step (cube
    matmul, [CumSum], Hillis-Steele) and delegate the rest here. *)

open Ascend

(** {2 Pipeline schedules} *)

type schedule =
  | Serial  (** No overlap: sync copies, full barrier between tiles. *)
  | Double  (** 2-stage: async copy-in of tile [t+1] overlaps work on [t]. *)
  | Triple
      (** 3-stage: additionally, async copy-out of tile [t-1] overlaps
          work on [t] (kernels with a dedicated store buffer). *)

val schedule_name : schedule -> string

val current_schedule : unit -> schedule
(** The schedule kernels run under when not overridden per call:
    [Triple] outside {!with_schedule}. *)

val with_schedule : schedule -> (unit -> 'a) -> 'a
(** Run [f] with {!current_schedule} temporarily replaced — how the
    equivalence tests and the pipeline bench run one kernel under
    several schedules. Restores the previous schedule on exit. *)

val stage_in :
  Block.t ->
  schedule:schedule ->
  engine:Engine.t ->
  src:Global_tensor.t ->
  ?src_off:int ->
  dst:Local_tensor.t ->
  ?dst_off:int ->
  len:int ->
  unit ->
  unit
(** {!Ascend.Mte.copy_in}, async under [Double]/[Triple]. *)

val stage_out :
  Block.t ->
  schedule:schedule ->
  engine:Engine.t ->
  src:Local_tensor.t ->
  ?src_off:int ->
  dst:Global_tensor.t ->
  ?dst_off:int ->
  len:int ->
  unit ->
  unit
(** {!Ascend.Mte.copy_out}, async under [Triple] only. Use only for
    stores the enclosing {!pipeline}'s [out] parameter paces. *)

val pipeline :
  Block.t ->
  ?schedule:schedule ->
  ?out:Engine.t * int ->
  in_engine:Engine.t ->
  n:int ->
  load:(slot:int -> int -> unit) ->
  work:(slot:int -> int -> unit) ->
  unit ->
  unit
(** The double-buffered pipeline walker. [load ~slot t] stages item
    [t]'s inputs into ping-pong slot [slot] with {!stage_in} on
    [in_engine]; [work ~slot t] consumes them. Under [Double]/[Triple]
    the walker issues [load (t+1)] before [work t] and paces the two
    slots with commit/wait groups; [out = (engine, slots)] (honoured
    under [Triple]) additionally paces [slots] ping-pong store buffers
    whose stores [work] issues via {!stage_out}. [schedule] defaults
    to {!current_schedule}[ ()]. *)

val pipeline_tiles :
  Block.t ->
  ?schedule:schedule ->
  ?out:Engine.t * int ->
  in_engine:Engine.t ->
  tile:int ->
  n:int ->
  load:(slot:int -> off:int -> len:int -> unit) ->
  work:(slot:int -> off:int -> len:int -> unit) ->
  unit ->
  unit
(** {!pipeline} over [tile]-sized slices of [0, n): [load]/[work]
    receive each slice's offset and clipped length. *)

val sub_block : lo:int -> hi:int -> half:int -> int -> int * int
(** [sub_block ~lo ~hi ~half v] is the [(vlo, vhi)] range of block
    chunk [\[lo, hi)] owned by vector core [v]. *)

val block_partition :
  n:int -> blocks:int -> vpc:int -> chunk_align:int -> half_align:int ->
  int * int
(** [(chunk, half)]: per-block chunk of [n] rounded up to [chunk_align]
    and per-vector-core half-chunk rounded up to [half_align] (the
    partition arithmetic of the multi-core kernels). *)

val propagate_rows :
  (module Scan_op.S) ->
  Block.t ->
  vec:int ->
  ub:Local_tensor.t ->
  len:int ->
  s:int ->
  partial:float ref ->
  unit
(** Vector-core prefix propagation over per-[s]-row local scans held in
    UB: fold the running partial into each row in place with the
    operator's scalar form, then update it from the row's last entry
    (Algorithm 1, lines 11-13). With [s >= len] this degenerates to the
    single whole-tile fold used by the one-row epilogues. *)

val finish_tile :
  (module Scan_op.S) ->
  Block.t ->
  ?vec:int ->
  ?await:Engine.t ->
  ?src:Global_tensor.t ->
  ub:Local_tensor.t ->
  dst:Global_tensor.t ->
  off:int ->
  len:int ->
  s:int ->
  partial:float ref ->
  unit ->
  unit
(** The tile epilogue every kernel shares: optionally stage the
    tile-local scan result from [src] in GM into [ub], propagate the
    running partial through its [s]-rows, and write the finished prefix
    to [dst]. [src] is omitted when the local result is already in UB
    (the vector-only kernels). [await] names the engine that produced
    [src] (the cube core's outbound MTE): the vector lane first waits
    for everything issued there, the cross-lane dependency of the
    cube-to-vector hand-off. *)

val load_cube_encoding :
  (module Scan_op.S) ->
  Block.t ->
  engine:Engine.t ->
  kind:Mem_kind.t ->
  dtype:Dtype.t ->
  s:int ->
  Local_tensor.t
(** Load the operator's constant scan matrix ({!Scan_op.S.cube_encoding});
    raises [Invalid_argument] for operators with no matmul formulation. *)

val ub_tile : int
(** UB tile size (elements) of the vector-only two-phase engine. *)

val run_vec_blocks :
  (module Scan_op.S) ->
  ?blocks:int ->
  kernel_name:string ->
  suffix:string ->
  Device.t ->
  Global_tensor.t ->
  Global_tensor.t * Stats.t
(** Vector-only two-phase multi-block scan under the operator: phase I
    reduces every vector-core sub-block into an intermediate tensor
    [r]; phase II folds the preceding entries of [r] into a base and
    rescans each UB tile with {!Ascend.Vec.hillis_steele} under the
    operator's binop. This is the whole of the former bespoke
    max-scan kernel, for any {!Scan_op.S}. *)
