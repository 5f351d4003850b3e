(** Full {!Ascend.Stats.t} serialization to JSON (the CLI's
    [--stats-json]).

    Unlike the trace export, this includes the host-side fields
    ([host_seconds], [domains], [launches]) — stats JSON describes one
    concrete run, it is not covered by the cross-domain byte-identity
    contract. The other fields are {!Ascend.Stats.equal_simulated}'s
    and are identical across [--domains] settings. *)

val to_string : Ascend.Stats.t -> string
