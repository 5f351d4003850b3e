(** Kernel launch and multi-block scheduling.

    A launch executes one or more {e phases}. Within a phase, [blocks]
    block bodies run in parallel across the device's {e surviving} AI
    cores: block [i] is assigned round-robin over the cores the
    {!Health} monitor reports alive (the full grid on a healthy device,
    i.e. core [i mod num_cores] — the historical mapping, so the
    zero-failure path is bit- and time-identical). Blocks beyond the
    core count are scheduled round-robin, so a core's time is the sum
    of its blocks. Consecutive phases are separated by a [SyncAll]
    global barrier, matching Algorithm 3's structure.

    {2 Degraded mode}

    A core that crosses its seeded kill threshold or trips quarantine
    mid-block raises {!Health.Core_dead} from inside the block body.
    The launch absorbs it: the dead core's partial timeline, traffic
    and instruction counts stay in the stats (that work really
    happened), the core is retired, and the block replays from scratch
    on the shrunken alive set. Kernel blocks derive the ranges they
    write purely from their block index, so the replay is idempotent
    and the final output is bit-identical to a healthy run. When every
    core has died, {!Health.All_cores_dead} escapes to the caller
    (e.g. {!Runtime.Resilient}).

    {2 Host parallel execution}

    The launch is also the simulator's own hot loop, and it runs on a
    multicore host. When the device was created with [domains > 1]
    {e and} the phase is provably stateless on the host side — no
    fault model, no sanitizer, {!Health.inert} monitor — its blocks
    are dispatched across a pool of OCaml domains instead of being
    replayed sequentially. Either way blocks execute in {e runs} of
    consecutive blocks on one reused {!Block.t}: the sequential path
    is one run over all blocks, the parallel path hands the pool about
    four runs per domain. The contract is strict determinism: tensor
    outputs are bit-identical and the resulting {!Stats.t} is
    {!Stats.equal_simulated} to the sequential run for {e any} domain
    count, because block bodies only touch block-disjoint tensor
    ranges, per-block results land in an array indexed by block id,
    and all shared accounting (core timelines, engine busy cycles, the
    health clock) is replayed from that array in block order after the
    join. Fault injection, seeded kills/quarantine and the sanitizer
    are inherently order-dependent, so their presence forces the
    deterministic sequential path and their semantics are untouched.

    {2 Watchdog}

    When the device was created with [~deadline_cycles], the cumulative
    compute critical path of the launch (stalls included; launch
    latency and bandwidth floors excluded) is checked after every
    phase; crossing the budget raises {!Deadline_exceeded} instead of
    silently inflating the stats.

    Phase time is [max(compute, traffic / effective_bandwidth)] where
    compute is the slowest core's critical path and the effective
    bandwidth is the L2 figure when the phase's distinct global-tensor
    footprint fits in L2, the HBM figure otherwise. The launch adds the
    host-side kernel-launch latency once. *)

exception
  Deadline_exceeded of {
    name : string;
    budget_cycles : float;
    spent_cycles : float;
  }
(** The structured watchdog abort: the launch's compute critical path
    crossed the device deadline budget. *)

val run_phases :
  ?name:string -> Device.t -> blocks:int -> (Block.t -> unit) list -> Stats.t
(** Raises [Invalid_argument] when [blocks < 1] or the phase list is
    empty; {!Deadline_exceeded} on a watchdog abort;
    {!Health.All_cores_dead} when core deaths leave nothing to run on. *)

val run : ?name:string -> Device.t -> blocks:int -> (Block.t -> unit) -> Stats.t
(** Single-phase convenience wrapper. *)
