(** Uniform registry-entry runner: execute any {!Scan.Op_registry}
    entry once on deterministic synthetic inputs sized to its
    capabilities (dtype-appropriate data, an I8 flags tensor for
    masked entries, [batch = 4] rows for batched ones, selection /
    sampling parameters for the operators that need them).

    This is the one place front-ends go to "just run" every registered
    op the same way: the CLI's [run] and [--trace-smoke], the trace-determinism
    test matrix and CI all share it, so an op added to the registry is
    automatically covered by each. *)

val config_for :
  Scan.Op_registry.entry -> n:int -> s:int option -> Scan.Op_registry.config
(** The parameters {!run} passes: [batch = 4] rows of [n / 4] for
    batched entries, [k = min 64 n], [p = 0.9], [theta = 0.4], [seed = 3]. *)

val dtype : Scan.Op_registry.entry -> Ascend.Dtype.t
(** The input dtype: the entry's first supported one. *)

val data : ?seed:int -> Scan.Op_registry.entry -> n:int -> float array
(** The [n] input values {!input} stages: {!Generators.sparse_ones}
    under [seed] (default 0, so index 0 carries mass at any [n]) for
    float dtypes, a fixed integer pattern otherwise. *)

val input :
  ?seed:int ->
  Scan.Op_registry.entry ->
  Ascend.Device.t ->
  n:int ->
  Scan.Op_registry.input
(** The input tensors {!run} stages on [device]: {!data} in the entry's
    {!dtype}, plus an I8 flags tensor for masked entries. On a
    [Cost_only] device the tensors are unbacked and no host data is
    built. *)

val run :
  ?n:int ->
  ?s:int ->
  ?domains:int ->
  ?traced:bool ->
  Scan.Op_registry.entry ->
  (Ascend.Stats.t * Ascend.Trace.t option, string) result
(** Run one entry on a fresh device. [n] (default 4096, min 16) is the
    total input length; [s] overrides the tile side; [domains] the
    host width ({!Ascend.Device.create}); [traced] (default true) arms
    an event recorder and returns it alongside the stats. [Error] is
    the registry's uniform validation/parameter failure. Raises
    [Invalid_argument] on [n < 16]. *)

val run_all :
  ?n:int ->
  ?s:int ->
  ?domains:int ->
  ?traced:bool ->
  unit ->
  (Scan.Op_registry.entry
  * (Ascend.Stats.t * Ascend.Trace.t option, string) result)
  list
(** {!run} over every registry entry, in registration order. The
    caller must have installed the operator entries first
    ([Ops.Ops_registry.install ()]) if it wants them included. *)
