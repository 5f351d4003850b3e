(** Kernel execution context of one block.

    A block is AscendC's smallest logical execution unit; the simulator
    maps one block onto one AI core (1 cube core + [vec_per_core] vector
    cores, with their MTEs and scratchpads). Kernels receive a block
    context and issue engine operations ({!Mte}, {!Vec}, {!Cube},
    {!Scalar_unit}) against it.

    {2 Timing semantics (event timeline)}

    Time is modelled as an event timeline over the block's engines and
    program lanes:

    - every engine [e] is an in-order queue with its own clock
      [avail(e)] — the completion time of the last op issued on it;
    - every sub-core runs one instruction stream, a {e lane}
      ({!Engine.lane}): the cube core and scalar unit share lane 0,
      vector core [i] owns lane [1 + i]. Each lane has a program cursor.

    A {e synchronous} charge on engine [e] issues at
    [max (cursor (lane e)) (avail e)], and advances both to its end: the
    program waits for the op. An {e asynchronous} charge (AscendC
    [DataCopy] on an MTE queue, {!Mte.copy_in_async} /
    {!Mte.copy_out_async}) advances only [avail(e)] — the program runs
    ahead and re-joins the copy at a {!wait_group}. Async copies issued
    since the last {!commit_group} form a group; [wait_group ~outstanding:n]
    blocks the lane until at most [n] committed groups remain in flight
    (AscendC's [cp.async]-style commit/wait discipline). Because lanes
    advance independently, cube and vector work of one block overlap
    with no annotation at all; double buffering within a lane is
    expressed with async copies and wait groups.

    The block's elapsed cycles are the makespan — the maximum over all
    lane cursors and engine clocks. All state is block-local and the
    schedule is replayed identically regardless of host parallelism, so
    {!Stats} and traces are bit-identical across [--domains]
    settings. *)

type t

type result = {
  cycles : float;  (** Elapsed cycles of this block (timeline makespan). *)
  busy : float array;  (** Per-engine busy cycles (index per {!Engine.index}). *)
  gm_read_bytes : int;
  gm_write_bytes : int;
  touched : (int * int) list;  (** Distinct global tensors touched: (id, bytes). *)
  op_counts : (string * int) list;  (** Instructions issued, by op name. *)
  trace : Trace.block_rec option;
      (** The block's recorded events when the device has a {!Trace.t}
          armed ({!Device.arm_trace}); [None] otherwise. *)
}

val make : device:Device.t -> idx:int -> num_blocks:int -> t
(** Used by {!Launch}; not intended for direct use. Runs the block on
    physical core [idx mod num_cores] (the healthy round-robin map). *)

val make_on : core:int -> device:Device.t -> idx:int -> num_blocks:int -> t
(** [make] with an explicit physical core: how {!Launch} pins blocks to
    the surviving core set of a degraded device. *)

(** {2 Lifecycle}

    A context serves one block at a time: {!make_on} (or {!reset}),
    the kernel body, then {!finish}. {!Launch} runs a phase's blocks
    in runs of consecutive blocks on one context, calling {!reset}
    between them (and before the replay of a block whose core died),
    and calls {!release} when the run is done. Local tensors never
    outlive their block, mirroring the hardware: a tile allocated by
    one block is either handed to the next block of the context by
    {!alloc} (zeroed, so it reads as fresh) or returned to the
    {!Host_buffer} pool. *)

val reset : t -> core:int -> idx:int -> unit
(** Ready the context for block [idx] on physical [core] of the same
    device and phase: clocks, queues, counts, traffic and offsets read
    as in a fresh {!make_on}, and a fresh trace builder is started when
    a trace is armed. The previous block's tiles become reusable by
    {!alloc}: while the new block asks for the same kind, dtype and
    length in the same order, it gets them back zeroed, and the first
    request that differs retires the rest. The previous block's
    {!result} must already have been taken with {!finish}. *)

val release : t -> unit
(** Return every tile the context holds to the {!Host_buffer} pool.
    The context's tensors must not be used afterwards. *)

val idx : t -> int
val num_blocks : t -> int

val cost : t -> Cost_model.t

val functional : t -> bool
(** Whether engine ops should compute data (device not in cost-only). *)

val sanitizer : t -> Sanitizer.t option
(** The device sanitizer, consulted by the engine-op modules. *)

val assume_disjoint_writes : t -> Global_tensor.t -> reason:string -> unit
(** Hazard annotation: exclude [gt] from the sanitizer's cross-block
    hazard analysis for the current phase. Used by scatter kernels
    whose blocks write data-dependent but provably disjoint ranges
    (e.g. the split/compress gather phase), which the span-based
    analysis would otherwise flag. No-op without a sanitizer. *)

val charge : ?op:string -> ?bytes:int -> t -> Engine.t -> float -> unit
(** Synchronously charge [cycles] to an engine; called by the engine-op
    modules. The op issues at [max lane-cursor engine-clock] and
    advances both (see timing semantics above). When the device has a
    trace armed, the charge is also recorded as a span labelled [op]
    (default ["charge"]) carrying [bytes] of transfer payload (default
    0) — this is the single choke point all trace spans flow through.
    Raises {!Health.Core_dead} at the charge that carries the block's
    core past its seeded kill threshold (the partial work stays
    accounted; {!Launch} replays the block on a surviving core). *)

val charge_async :
  ?op:string ->
  ?bytes:int ->
  ?dst:Local_tensor.t ->
  t ->
  Engine.t ->
  float ->
  unit
(** {!charge}, but asynchronous: the engine clock advances while the
    lane cursor does not — the program runs ahead of the op, which is
    retired by a later {!wait_group} (or {!wait_all}). [dst]
    registers the local tensor the op writes so the sanitizer can flag
    uses before the matching wait ({!check_async_use}). Busy-cycle
    accounting and the kill check are identical to {!charge}. The
    library's async copies charge through {!gm_copy}; this entry point
    drives the async timeline directly (the block tests use it). *)

val commit_group : t -> Engine.t -> unit
(** Close the current group of async charges on an engine: everything
    issued by {!charge_async} since the previous [commit_group] becomes
    one in-flight group, retired as a unit by {!wait_group}. A commit
    with nothing pending is a no-op. *)

val wait_group : t -> Engine.t -> outstanding:int -> unit
(** Block the engine's lane until at most [outstanding] committed
    groups remain in flight on that engine, retiring the oldest groups
    (FIFO) and advancing the lane cursor to their completion times.
    [~outstanding:0] drains the queue. Raises [Invalid_argument] on a
    negative [outstanding]. *)

val wait_all : t -> unit
(** Full intra-block barrier: every lane joins at the timeline makespan
    and all async state on all engines retires. The serial-schedule
    ablation inserts this between tile iterations. *)

val await_engine : t -> lane_of:Engine.t -> on:Engine.t -> unit
(** Cross-lane dependency: [lane_of]'s lane waits until everything
    issued so far on engine [on] — typically another lane's MTE — has
    completed. Unlike {!wait_group} this retires nothing; [on]'s groups
    still belong to the issuing lane's wait discipline. *)

val engine_clock : t -> Engine.t -> float
(** [avail(e)]: completion time of the last op issued on the engine. *)

val lane_clock : t -> Engine.t -> float
(** Program cursor of the engine's lane. *)

val check_async_use : t -> op:string -> Local_tensor.t -> unit
(** Record an {!Sanitizer.Async_hazard} diagnostic if [lt] is still
    the destination of an async copy that no wait has retired — the
    caller is about to consume a tile whose async copy has no
    intervening {!wait_group}. No-op without a sanitizer. Called by the
    engine-op modules on every local operand. *)

val charge_rows :
  ?counts:(string * int) array ->
  t ->
  Engine.t ->
  count:int ->
  names:string array ->
  float array ->
  unit
(** [charge_rows t e ~count ~names cycles] charges the sequence
    [cycles] to engine [e] exactly [count] times, charge [j] under the
    op name [names.(j mod (Array.length names))], with the same
    accumulator-addition order — and therefore bit-identical
    {!result} cycles — as [count] rounds of individual {!charge}
    calls. [names] must not be empty when [cycles] is not. When a
    trace is armed or the core has a finite kill threshold it
    degrades to exactly those per-charge calls, so span
    granularity and the kill point are unchanged; otherwise the
    engine/trace/kill dispatch is paid once per batch instead of once
    per row. Used by tile-batched engine ops ({!Vec.scan_rows},
    {!Vec.hillis_steele}, {!Vec.segmented_hillis_steele}).

    [counts], when given, makes each charge also one issued
    instruction of its name: it must list the per-name totals of the
    [count] rounds in the order the names first occur in the
    sequence. The batched path records them with {!count_op_n}; the
    per-charge path counts each charge just before it, so a kill
    inside the batch leaves exactly the instructions issued before it
    counted, as per-instruction {!count_op} + {!charge} would. *)

val count_op : t -> string -> unit
(** Record one issued instruction of the named op (the per-kernel
    instruction mix reported in {!Stats.t.op_counts}). *)

val count_op_n : t -> string -> int -> unit
(** [count_op_n t name k] records [k] issued instructions at once
    (no-op when [k <= 0]). *)

val merge_op_counts : result list -> (string * int) list
(** The blocks' {!result.op_counts} summed by name, each name listed
    where the blocks first list it. How {!Launch} merges a launch's
    counts without hashing every block's names: the order decides how
    tied counts sort in {!Stats.t.op_counts}. *)

val note_gm_traffic : t -> read:int -> write:int -> unit
val note_touched : t -> Global_tensor.t -> unit

val gm_copy :
  t ->
  Engine.t ->
  async:bool ->
  write:bool ->
  Global_tensor.t ->
  Local_tensor.t ->
  dst_off:int ->
  len:int ->
  Fault.action
(** [gm_copy t e ~async ~write gt lt ~dst_off ~len] issues one DataCopy
    of [len] elements between global tensor [gt] and local tile [lt] on
    MTE engine [e], from [lt] to [gt] when [write]: the step every
    {!Mte} GM copy takes after its range, async-use and sanitizer
    checks. In order, it counts one ["datacopy_in"] (or
    ["datacopy_out"]) instruction; draws the copy's fault from the
    device fault model, if any (a drawn fault counts against the
    core's {!Health} quarantine budget and may raise
    {!Health.Core_dead}); charges {!mte_copy_cycles} of
    [gt]'s bytes, stretched by a [Stall], with {!charge} or, when
    [async], {!charge_async} (an async copy into [lt] leaves it tracked
    for {!check_async_use}); and records the GM traffic and [gt] as
    touched. Returns the drawn fault, which the caller applies to the
    payload ([dst_off] is the destination offset the fault model
    sees). *)

(** {2 One-step issue}

    An engine op, after its own checks, issues its instruction in one
    step: count it, cost it with a formula below and {!charge} it on its
    engine, whose {!Engine.index} and {!Engine.lane} the context caches.
    [~counted:false] charges the tail of an instruction counted before. *)

val vec_op :
  ?counted:bool -> t -> vec:int -> op:string -> instrs:int -> bytes:int -> unit
(** [instrs] times {!vec_op_cycles} of [bytes] on [Engine.Vec vec]. *)

val vec_scalar : ?counted:bool -> t -> vec:int -> op:string -> unit
(** One UB element to a scalar register on [Engine.Vec vec]. *)

val local_copy : t -> Engine.t -> bytes:int -> unit
(** One ["datacopy_local"]: {!local_copy_cycles}. *)

val const_copy : t -> Engine.t -> bytes:int -> unit
(** An uncounted ["datacopy_const"] GM read: {!mte_copy_cycles}. *)

val mmad : t -> m:int -> k:int -> n:int -> int8:bool -> unit
(** One ["mmad"] on [Engine.Cube]: {!mmad_cycles}. *)

val scalar_ops : t -> count:int -> unit
(** [count] uncounted scalar ALU operations on [Engine.Scalar]. *)

val scalar_gm : t -> Global_tensor.t -> write:bool -> unit
(** One ["scalar_gm_access"] reading (or writing) an element of [gt]. *)

val engine_index : t -> Engine.t -> int
val engine_lane : t -> Engine.t -> int

(** {2 Cycle formulas over {!Cost_model.t}'s constants} *)

val vec_op_cycles : Cost_model.t -> bytes:int -> float
(** One vector instruction processing [bytes]. *)

val vec_shift_cycles :
  Cost_model.t ->
  len:int -> esize:int -> float array -> pos:int -> stride:int -> unit
(** One instruction column of a log-step network over [len] elements:
    for each shift [d = 2^k < len], [dst.(pos + k * stride)] becomes
    the {!vec_op_cycles} of [len - d] elements of [esize] bytes. *)

val mte_copy_cycles : Cost_model.t -> bytes:int -> float
(** One DataCopy of [bytes] through a single MTE queue. *)

val local_copy_cycles : Cost_model.t -> bytes:int -> float
(** One on-chip DataCopy of [bytes] (L1/L0 paths). *)

val mmad_cycles : Cost_model.t -> m:int -> k:int -> n:int -> int8:bool -> float
(** One [m*k @ k*n] matrix multiply-accumulate. *)

val alloc : t -> Mem_kind.t -> Dtype.t -> int -> Local_tensor.t
(** Bump-allocate a local tensor, all +0.0; raises [Failure] when the
    scratchpad capacity of the memory kind is exceeded and
    [Invalid_argument] for a UB the core does not have. The storage is
    the previous block's tile when {!reset} left a matching one,
    otherwise a new one from the {!Host_buffer} pool. *)

val reset_mem : t -> Mem_kind.t -> unit
(** Release all allocations in one scratchpad (arena reset). *)

val elapsed_cycles : t -> float

val finish : t -> result
(** The block's result. Its tiles stay live until the next {!reset}
    or {!release}. *)
