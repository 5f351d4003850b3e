(** Full {!Ascend.Stats.t} serialization to JSON (the CLI's
    [--stats-json]).

    Unlike the trace export, this includes the host-side fields
    ([host_seconds], [domains], [launches]) — stats JSON describes one
    concrete run, it is not covered by the cross-domain byte-identity
    contract. Pass [~simulated_only:true] to drop those fields and get
    output that {e is} identical across [--domains] settings
    (mirroring {!Ascend.Stats.equal_simulated}). *)

val to_string : ?simulated_only:bool -> Ascend.Stats.t -> string
