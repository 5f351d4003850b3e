(** Engine-level execution tracing: the event recorder behind the
    observability layer.

    The paper's evaluation argues from profiler timelines — cube /
    vector / MTE overlap read off msprof traces. The simulator computes
    exactly those per-engine timelines but (without this module) throws
    the event-level detail away, keeping only {!Stats} aggregates. A
    [Trace.t] attached to a device ({!Device.arm_trace}) turns every
    simulated instruction into a {e span} [{core; block; engine; op;
    start_cycle; end_cycle; bytes; queue}] and every fault, core death,
    retry, degradation, SyncAll barrier and checkpoint commit into an
    {e instant} event, recorded at the single choke points in {!Block},
    {!Launch} and [Runtime.Resilient] — kernels need no edits.

    {2 Determinism}

    Tracing is deterministic across host execution widths
    ({!Device.create}'s [domains]): spans carry {e block-local}
    engine-track positions computed inside each block (identical on any
    schedule), blocks are folded into the trace in block-id order (the
    same deterministic post-join merge {!Launch} uses for stats), and
    the Chrome export sorts events by simulated time and track before
    it writes them. Serialising the same kernel's trace at
    [--domains 1] and [--domains 4] yields byte-identical output — the
    {!Stats.equal_simulated} contract extended to traces.

    {2 Timeline model}

    Global placement is reconstructed at export time: launches are
    laid end to end; inside a launch, phases follow the launch latency
    and are separated by SyncAll instants; inside a phase, the blocks
    of one core serialise in block order while different cores (and
    the engines within a block) overlap — one Perfetto track per
    engine per core, processes = AI cores. All positions are simulated
    cycles; writers convert with [cycles / clock_hz * 1e6] to the
    microseconds of the Chrome trace-event format. *)

type kind =
  | Fault  (** An injected fault landed (from {!Block.gm_copy}). *)
  | Death  (** A core crossed its kill threshold mid-block. *)
  | Retry  (** A resilient-runner re-execution. *)
  | Degrade  (** A resilient-runner fallback switch. *)
  | Checkpoint  (** A validated row group committed. *)
  | Barrier  (** A SyncAll between launch phases (export-generated). *)
  | Info

val kind_to_string : kind -> string

type span = {
  sp_id : int;  (** Block-local span sequence id (issue order). *)
  sp_block : int;
  sp_track : int;  (** {!Engine.index} of the engine within its core. *)
  sp_engine : string;  (** {!Engine.to_string} name, e.g. ["vec0.mte_in"]. *)
  sp_queue : string;  (** Issue queue ({!Engine.queue}): MTE2/MTE3/M/V/S. *)
  sp_op : string;  (** Instruction name, e.g. ["mmad"], ["datacopy_in"]. *)
  sp_start : float;  (** Block-local event-timeline issue time, cycles. *)
  sp_end : float;
  sp_bytes : int;  (** Transfer payload (0 for non-MTE ops). *)
}

(** Why a span could not issue earlier: the dependency-edge kinds of
    the event timeline, recorded by {!Block} alongside the spans. *)
type edge_kind =
  | Lane  (** Program order: previous synchronous op on the same lane. *)
  | Queue  (** Engine order: previous op issued on the same in-order queue. *)
  | Group  (** A {!Block.wait_group} retired the source's async group. *)
  | Await  (** A {!Block.await_engine} cross-lane join. *)
  | Join  (** A {!Block.wait_all} full-block barrier. *)

val edge_kind_to_string : edge_kind -> string
(** ["lane"], ["queue"], ["group"], ["await"] or ["join"]: the name
    of the Chrome export's flow events. *)

val edge_kind_of_string : string -> edge_kind option
(** The inverse of {!edge_kind_to_string}. *)

type edge = {
  e_src : int;  (** {!span.sp_id} of the predecessor. *)
  e_dst : int;  (** {!span.sp_id} of the dependent span. *)
  e_kind : edge_kind;
}
(** One dependency edge: span [e_dst] could not issue before [e_src]
    ended. The edge set fully explains the timeline — every span's
    start is exactly the max end of its predecessors ({!check} enforces
    this), so the critical path recomputed from spans + edges is
    bit-identical to the engine-model makespan. *)

type mark = {
  mk_block : int;
  mk_kind : kind;
  mk_name : string;
  mk_cycle : float;  (** Block-local charged cycles at the instant. *)
}

type block_rec = {
  b_idx : int;
  b_core : int;
  b_cycles : float;  (** Elapsed (pipelined) cycles of the block. *)
  b_spans : span list;  (** In issue order. *)
  b_edges : edge list;  (** Dependency edges, in recording order. *)
  b_marks : mark list;
}

type phase_rec = { ph_stats : Stats.phase; ph_blocks : block_rec list }

type launch_rec = {
  ln_name : string;
  ln_seconds : float;  (** End-to-end simulated launch seconds. *)
  ln_latency_cycles : float;
  ln_sync_cycles : float;
  ln_phases : phase_rec list;
}

type t

val create : ?clock_hz:float -> unit -> t
(** A fresh recorder. [clock_hz] (default {!Cost_model.default}'s
    clock) converts cycles to trace microseconds. It keeps every span:
    there is no cap, so nothing is ever dropped, and the
    [ascend-trace-1] export's ["dropped"] count is the constant 0. *)

val clock_hz : t -> float

val span_count : t -> int
(** Spans recorded so far (across all launches). *)

val edge_count : t -> int
(** Dependency edges recorded so far. *)

val mark_count : t -> int

val event_count : t -> int
(** [span_count + mark_count] plus one note per global instant. *)

(** One recorded item: a launch, or a global instant ({!note}) at the
    end of the timeline so far. *)
type item = Launch of launch_rec | Note of kind * string

val items : t -> item list
(** Everything recorded, oldest first. *)

val launches : t -> launch_rec list
(** Recorded launches, oldest first. *)

(** Per-block span builder, owned by one {!Block.t}. Builders are
    block-local (no shared mutable state), so blocks recorded on
    parallel host domains produce the same events as the sequential
    schedule. *)
module Block_builder : sig
  type b

  val span :
    b ->
    track:int ->
    engine:string ->
    queue:string ->
    op:string ->
    start:float ->
    cycles:float ->
    bytes:int ->
    int
  (** Returns the span's block-local id ({!span.sp_id}): 0, 1, 2, …
      in issue order. *)

  val edge : b -> kind:edge_kind -> src:int -> dst:int -> unit
  (** Record that span [dst] could not issue before [src] ended.
      Negative ids and self-edges are ignored. *)

  val mark : b -> kind -> name:string -> cycle:float -> unit
  val finish : b -> cycles:float -> block_rec
end

val block_builder : idx:int -> core:int -> Block_builder.b

val record_launch :
  t ->
  name:string ->
  seconds:float ->
  latency_cycles:float ->
  sync_cycles:float ->
  phases:(Stats.phase * block_rec list) list ->
  unit
(** Fold one completed launch into the trace; called by
    {!Launch.run_phases} after its deterministic post-join merge, with
    [phases] blocks in block-id order (partial blocks of mid-flight
    core deaths appended after the full set, as in the stats). *)

val note : t -> kind -> name:string -> unit
(** Record a global instant (retry, degradation, checkpoint commit)
    at the current end of the timeline. *)

val check : t -> (unit, string) result
(** Recorder invariants: non-negative span durations, and
    per-(block, engine-track) non-overlap — each span
    starts at or after the previous one on its track ended (engines
    are in-order queues; gaps are stalls), and no span outruns the
    block's makespan. Tracks of one block are allowed — expected — to
    overlap each other. Dependency edges must reference recorded spans
    in issue order, and every span's issue time must equal — bitwise —
    the max end of its edge predecessors (0.0 with none): the recorded
    DAG fully explains the timeline. [Error] carries the first
    violation: launches newest first, their blocks in phase order, and
    within a block the spans in issue order (a span that both has a
    negative duration and overlaps its track reports the overlap),
    then the track ends in engine-index order, then the edges in
    recording order, then the issue times. *)
