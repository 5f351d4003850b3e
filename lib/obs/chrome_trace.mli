(** Chrome trace-event JSON export of a {!Ascend.Trace.t} — the format
    Perfetto and chrome://tracing load directly.

    Layout: one trace {e process} per simulated AI core (pid = core +
    1, named ["core N"]) plus a device-level process (pid 0) carrying
    the launch/phase timeline (tid 0) and global instants (tid 1); one
    {e thread} (track) per engine per core (tid = {!Ascend.Engine.index},
    named after the engine), plus an ["events"] track (tid 1000) for a
    core's instants. Instruction spans are ["X"] complete events with
    [ts]/[dur] in microseconds ([cycles / clock_hz * 1e6]); faults,
    deaths, retries, barriers and checkpoints are ["i"] instant events;
    process and thread names ride on ["M"] metadata events.

    {2 Placement}

    Launches are laid end to end; inside a launch, phases follow the
    launch latency and are separated by SyncAll instants; inside a
    phase, the blocks of one core serialise in block order while
    different cores overlap. A note ({!Ascend.Trace.note}) sits at the
    end of the launches recorded before it. Events are written sorted
    by [(ts, pid, tid, name)], ties in recording order (launch, then
    per phase its barrier, its span and per block the spans, the edges
    and the marks; notes in place), and each track is named after its
    first event in that order.

    {2 Profiler identities}

    Every span carries in its args a trace-unique [sid] (0, 1, 2, ...
    in recording order, contiguous within a block, so [sid] minus the
    block's lowest sid is the recorder's block-local id), its block
    occurrence [binst] (the grouping key of the per-block dependency
    DAG) and its block-local cycle endpoints [c0]/[c1] (exact — the
    microsecond [ts]/[dur] do not round-trip to cycles). Every
    dependency edge between recorded spans becomes a pair of flow
    events, ph ["s"] at the source span's end and ph ["f"] at the
    target's start, both carrying the flow [id] (0, 1, 2, ... in
    recording order) and args [id]/[kind]/[src]/[dst] (source and
    target sids).

    The byte output is deterministic: numbers print through
    {!Jsonw.float_to_string}, so recordings of the same kernel at
    different [--domains] settings serialize identically. *)

val to_string : Ascend.Trace.t -> string
(** The exact bytes written by the CLI's [--trace]: [{"traceEvents":
    [...], "displayTimeUnit": "us", "otherData": {...}}], with the
    recorder clock and event totals under ["otherData"]. One pass over
    the recorder's records collects each event's sort key and source
    record; the events are then written in order straight into one
    buffer through the {!Jsonw} write primitives, so the bytes are
    those {!Jsonw.to_string} prints for the parsed document. *)

val json : Ascend.Trace.t -> Jsonw.t
(** [Jsonw.parse (to_string t)]: in-process consumers (the tests)
    read the same bytes a file reader would. *)

type counts = {
  events : int;  (** All events incl. metadata. *)
  spans : int;  (** ["X"] events. *)
  instants : int;  (** ["i"] events. *)
  flows : int;  (** Matched ["s"]/["f"] pairs (dependency edges). *)
  processes : int;  (** Distinct pids. *)
}

val validate : Jsonw.t -> (counts, string) result
(** Structural validation of a parsed trace document (the CLI's [trace
    validate]): a [traceEvents] array whose members carry a [ph] of
    ["X"]/["i"]/["M"]/["s"]/["f"], numeric [pid]/[tid]/[ts] (and
    non-negative [dur] on spans), per (pid, tid) track spans sorted by
    [ts] with no overlap beyond float-printing slack, and every flow
    ["s"] matched by exactly one ["f"] with the same [id]. *)
