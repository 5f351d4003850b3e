exception
  Deadline_exceeded of {
    name : string;
    budget_cycles : float;
    spent_cycles : float;
  }

let () =
  Printexc.register_printer (function
    | Deadline_exceeded { name; budget_cycles; spent_cycles } ->
        Some
          (Printf.sprintf
             "Launch.Deadline_exceeded(%s: %.0f cycles spent of a %.0f-cycle \
              budget)"
             name spent_cycles budget_cycles)
    | _ -> None)

(* One phase over the surviving core set. Blocks are assigned
   round-robin over the cores currently alive (the full core grid when
   healthy, i.e. core [idx mod num_cores] — the historical mapping). A
   block whose core dies mid-flight (seeded kill or quarantine) raises
   [Health.Core_dead]; its partial timeline, traffic and instructions
   stay accounted and the block replays from scratch on the shrunken
   alive set. Kernel blocks are idempotent (they write deterministic
   ranges derived from the block index), so a replay restores the exact
   healthy result.

   When the device was created with [domains > 1] and the phase is
   provably stateless on the host side — no fault model, no sanitizer,
   inert health monitor — the blocks execute across a domain pool
   instead of sequentially. Determinism is preserved by construction:
   block bodies only write block-disjoint tensor ranges and
   block-local contexts, per-block results land in an array indexed by
   block id, and all shared accounting (core timelines, busy cycles,
   the health clock) is replayed from that array in block order after
   the join — the exact float-addition order of the sequential path.
   Any stateful feature forces the sequential path so that
   fault-injection, kill/replay and sanitizer semantics are
   untouched. *)

(* A run: blocks [lo, hi) executed in order on one context, their
   results stored in [out]. The first block makes the context;
   [Block.reset] readies it in place for each next block (a replay
   included) and hands that block the previous block's scratch tiles
   while its requests repeat; [Block.release] returns the tiles when
   the run ends. [exec context idx] executes block [idx] on
   [context ~core ~idx]. A run stops at its first block that raises,
   leaving its tiles to the GC. *)
let run_blocks device ~blocks ~lo ~hi out exec =
  let held = ref None in
  let context ~core ~idx =
    match !held with
    | Some ctx ->
        Block.reset ctx ~core ~idx;
        ctx
    | None ->
        let ctx = Block.make_on ~core ~device ~idx ~num_blocks:blocks in
        held := Some ctx;
        ctx
  in
  for idx = lo to hi - 1 do
    out.(idx) <- Some (exec context idx)
  done;
  Option.iter Block.release !held

let run_phase device ~blocks body =
  let cm = Device.cost device in
  let num_cores = Device.num_cores device in
  let health = Device.health device in
  let san = Device.sanitizer device in
  Option.iter Sanitizer.begin_phase san;
  let core_cycles = Array.make num_cores 0.0 in
  let core_busy = Array.make num_cores 0.0 in
  let core_used = Array.make num_cores false in
  let partials = ref [] in
  let account core (r : Block.result) =
    let busy = ref 0.0 in
    for i = 0 to Array.length r.Block.busy - 1 do
      busy := !busy +. r.Block.busy.(i)
    done;
    let busy = !busy in
    core_cycles.(core) <- core_cycles.(core) +. r.Block.cycles;
    core_busy.(core) <- core_busy.(core) +. busy;
    busy
  in
  (* Alive-core snapshot: taken once per phase and refreshed only when
     the health monitor records a new death (cheap generation check),
     so the per-block core lookup is O(1) instead of the historical
     O(alive) [List.nth] walk. *)
  let alive = ref (Array.of_list (Health.alive_cores health)) in
  let alive_gen = ref (Health.generation health) in
  let refresh_alive () =
    if Health.generation health <> !alive_gen then begin
      alive := Array.of_list (Health.alive_cores health);
      alive_gen := Health.generation health
    end
  in
  let slots = Device.domains device in
  let parallel =
    slots > 1 && blocks > 1
    && Option.is_none (Device.fault device)
    && Option.is_none san && Health.inert health
  in
  let out = Array.make blocks None in
  if parallel then begin
    (* About four runs per domain slot: enough runs in the pool's bag
       to balance the load, each long enough to reuse its context and
       amortise the pool's counter lock. *)
    let a = !alive in
    let n_alive = Array.length a in
    let len = max 1 ((blocks + (slots * 4) - 1) / (slots * 4)) in
    Domain_pool.parallel_for (Domain_pool.global ()) ~slots
      ~n:((blocks + len - 1) / len)
      (fun run ->
        run_blocks device ~blocks ~lo:(run * len)
          ~hi:(min blocks ((run + 1) * len))
          out
          (fun context idx ->
            let ctx = context ~core:a.(idx mod n_alive) ~idx in
            body ctx;
            Block.finish ctx));
    (* Deterministic post-join merge: identical statements, in the
       identical block order, as the sequential loop below — the core
       timelines and the health clock see the same float-addition
       sequence bit for bit. *)
    Array.iteri
      (fun idx r ->
        let core = a.(idx mod n_alive) in
        core_used.(core) <- true;
        let busy = account core (Option.get r) in
        Health.note_cycles health ~core busy)
      out
  end
  else
    run_blocks device ~blocks ~lo:0 ~hi:blocks out (fun context idx ->
        (* [delay] serialises a replay behind its failed predecessors:
           the replacement block cannot start before the victim died,
           so the dead time is charged to the replay core's
           timeline. *)
        let rec exec delay =
          refresh_alive ();
          let a = !alive in
          let n_alive = Array.length a in
          if n_alive = 0 then raise Health.All_cores_dead;
          let core = a.(idx mod n_alive) in
          core_used.(core) <- true;
          let ctx = context ~core ~idx in
          match body ctx with
          | () ->
              let r = Block.finish ctx in
              let busy = account core r in
              core_cycles.(core) <- core_cycles.(core) +. delay;
              Health.note_cycles health ~core busy;
              r
          | exception Health.Core_dead _ ->
              (* The dying core's partial work happened: its timeline,
                 traffic and instruction counts are real, only its
                 writes are untrusted. Replay the block on a
                 survivor. *)
              let partial = Block.finish ctx in
              ignore (account core partial);
              partials := partial :: !partials;
              exec (delay +. partial.Block.cycles)
        in
        exec 0.0);
  Option.iter Sanitizer.end_phase san;
  let results =
    Array.fold_right (fun r acc -> Option.get r :: acc) out !partials
  in
  let compute_seconds =
    Cost_model.cycles_to_seconds cm (Array.fold_left Float.max 0.0 core_cycles)
  in
  let gm_bytes =
    List.fold_left
      (fun acc (r : Block.result) ->
        acc + r.Block.gm_read_bytes + r.Block.gm_write_bytes)
      0 results
  in
  let footprint =
    (* Distinct tensors over the phase's blocks; a phase touches a
       handful, so a list of seen ids beats hashing them. *)
    let rec seen id = function [] -> false | i :: rest -> i = id || seen id rest in
    let ids = ref [] and bytes = ref 0 in
    List.iter
      (fun (r : Block.result) ->
        List.iter
          (fun (id, b) ->
            if not (seen id !ids) then begin
              ids := id :: !ids;
              bytes := !bytes + b
            end)
          r.Block.touched)
      results;
    !bytes
  in
  let effective_bw =
    if footprint <= cm.Cost_model.l2_capacity_bytes then
      cm.Cost_model.l2_bandwidth
    else cm.Cost_model.hbm_bandwidth
  in
  let bandwidth_seconds = float_of_int gm_bytes /. effective_bw in
  let phase =
    {
      Stats.compute_seconds;
      bandwidth_seconds;
      seconds = Float.max compute_seconds bandwidth_seconds;
      gm_bytes;
      footprint_bytes = footprint;
      bandwidth_bound = bandwidth_seconds > compute_seconds;
    }
  in
  (phase, results, core_busy, core_used)

let run_phases ?(name = "kernel") device ~blocks bodies =
  if blocks < 1 then invalid_arg "Launch.run_phases: blocks must be >= 1";
  if bodies = [] then invalid_arg "Launch.run_phases: no phases";
  let host_t0 = Unix.gettimeofday () in
  let cm = Device.cost device in
  let num_cores = Device.num_cores device in
  let fault_mark =
    match Device.fault device with Some f -> Fault.count f | None -> 0
  in
  (* Watchdog: the per-launch budget is on the cumulative compute
     critical path (stalled engines inflate it; launch latency and
     bandwidth floors do not count against it). *)
  let deadline = Device.deadline_cycles device in
  let spent_cycles = ref 0.0 in
  let total_core_busy = Array.make num_cores 0.0 in
  let total_core_used = Array.make num_cores false in
  let phases_results =
    List.map
      (fun body ->
        let phase, results, core_busy, core_used =
          run_phase device ~blocks body
        in
        Array.iteri
          (fun c b -> total_core_busy.(c) <- total_core_busy.(c) +. b)
          core_busy;
        Array.iteri
          (fun c u -> if u then total_core_used.(c) <- true)
          core_used;
        spent_cycles :=
          !spent_cycles
          +. Cost_model.seconds_to_cycles cm phase.Stats.compute_seconds;
        (match deadline with
        | Some budget when !spent_cycles > budget ->
            raise
              (Deadline_exceeded
                 {
                   name;
                   budget_cycles = budget;
                   spent_cycles = !spent_cycles;
                 })
        | _ -> ());
        (phase, results))
      bodies
  in
  let phases = List.map fst phases_results in
  let results = List.concat_map snd phases_results in
  let n_phases = List.length phases in
  let seconds =
    cm.Cost_model.kernel_launch_seconds
    +. List.fold_left (fun acc (p : Stats.phase) -> acc +. p.Stats.seconds) 0.0 phases
    +. (float_of_int (n_phases - 1) *. cm.Cost_model.sync_all_seconds)
  in
  let gm_read, gm_write =
    List.fold_left
      (fun (r, w) (res : Block.result) ->
        (r + res.Block.gm_read_bytes, w + res.Block.gm_write_bytes))
      (0, 0) results
  in
  let vec_per_core = cm.Cost_model.vec_per_core in
  let busy = Array.make (Engine.count ~vec_per_core) 0.0 in
  List.iter
    (fun (res : Block.result) ->
      for i = 0 to Array.length busy - 1 do
        busy.(i) <- busy.(i) +. res.Block.busy.(i)
      done)
    results;
  let engine_busy =
    Array.to_list
      (Array.mapi (fun i name -> (name, busy.(i))) (Engine.names ~vec_per_core))
  in
  let op_counts =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (name, k) -> Hashtbl.replace tbl name k)
      (Block.merge_op_counts results);
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let cores_used =
    Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 total_core_used
  in
  (match Device.trace device with
  | Some tr ->
      Trace.record_launch tr ~name ~seconds
        ~latency_cycles:
          (Cost_model.seconds_to_cycles cm cm.Cost_model.kernel_launch_seconds)
        ~sync_cycles:
          (Cost_model.seconds_to_cycles cm cm.Cost_model.sync_all_seconds)
        ~phases:
          (List.map
             (fun (ph, rs) ->
               (ph, List.filter_map (fun r -> r.Block.trace) rs))
             phases_results)
  | None -> ());
  {
    Stats.name;
    seconds;
    phases;
    blocks;
    cores_used;
    gm_read_bytes = gm_read;
    gm_write_bytes = gm_write;
    engine_busy;
    core_busy = total_core_busy;
    op_counts;
    faults =
      (match Device.fault device with
      | Some f -> Fault.events_since f fault_mark
      | None -> []);
    retries = 0;
    degraded = 0;
    host_seconds = Unix.gettimeofday () -. host_t0;
    domains = Device.domains device;
    launches = 1;
  }

let run ?name device ~blocks body = run_phases ?name device ~blocks [ body ]
