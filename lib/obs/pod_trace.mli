(** Chrome trace-event JSON export of a {!Pod}'s event log — the
    pod-level sibling of {!Chrome_trace}.

    Layout: pid 0 is the ["pod"] process, whose single track carries
    the distributed scan's phase timeline as [cat = "phase"] spans
    (with the [launch]/[index]/[bound] args {!Critical_path.summaries}
    groups by); pid [d + 1] is process ["device d"] with a ["compute"] track
    (local-scan and fixup spans), a ["link"] track (link-transfer
    spans, [dst] in args) and an ["events"] track for instants
    (device kills, reroutes, notes). Times are the pod's simulated
    clocks in microseconds. Every track is emitted time-sorted, so the
    output passes {!Chrome_trace.validate}; serialization is
    deterministic ({!Jsonw}). *)

val json : Pod.t -> Jsonw.t

val to_string : Pod.t -> string
(** The exact bytes written by the CLI's [--pod-trace]. *)
