(** Chrome trace-event JSON export of a {!Ascend.Trace.t} — the format
    Perfetto and chrome://tracing load directly.

    Layout: one trace {e process} per simulated AI core (pid = core +
    1, named ["core N"]) plus a device-level process (pid 0) carrying
    the launch/phase timeline and global instants; one {e thread}
    (track) per engine per core (tid = {!Ascend.Engine.index}, named
    after the engine), plus an ["events"] track for instants.
    Instruction spans are ["X"] complete events with [ts]/[dur] in
    microseconds ([cycles / clock_hz * 1e6]); faults, deaths, retries,
    barriers and checkpoints are ["i"] instant events; process and
    thread names ride on ["M"] metadata events.

    The byte output is deterministic: events come pre-sorted from
    {!Ascend.Trace.assemble} and numbers print through
    {!Jsonw.float_to_string}, so recordings of the same kernel at
    different [--domains] settings serialize identically. *)

val to_string : Ascend.Trace.t -> string
(** The exact bytes written by the CLI's [--trace]: [{"traceEvents":
    [...], "displayTimeUnit": "us", "otherData": {...}}], with the
    recorder clock and event totals under ["otherData"]. Events stream
    straight into one buffer through the {!Jsonw} write primitives, so
    the bytes are those {!Jsonw.to_string} prints for the parsed
    document. *)

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
