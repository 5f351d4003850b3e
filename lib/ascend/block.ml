(* Event-timeline execution model. Every engine is a queue with its own
   clock ([avail]); every sub-core program is a lane with a cursor
   ([lanes]). A synchronous charge issues at
   [max lane-cursor engine-clock] and advances both; an asynchronous
   charge (DataCopy on an MTE queue) advances only the engine clock and
   joins the lane again at its [wait_group]. The block's elapsed cycles
   are the makespan over all cursors and clocks. All state is
   block-local, so the schedule — and therefore Stats and traces — is
   bit-identical across host domain counts. *)

(* One committed async-copy group on an engine queue: everything issued
   since the previous [commit_group]. [g_end] is the completion time
   (max end of the member copies); [g_dsts] the local destination
   tensors, tracked (under a sanitizer) until the group is waited;
   [g_last] the span id of the last member (whose end is [g_end] — the
   queue is in-order), -1 when no trace is armed. *)
type group = { g_end : float; g_dsts : Local_tensor.t list; g_last : int }

(* Instruction counts: [totals.(i)] issues of [names.(i)] for [i < n],
   in first-seen order; the spare slots past [n] hold 0. [index] is an
   open-addressing table over the names (see [tally_slot]): each cell
   holds [i + 1] for a listed name, 0 when empty, and it is always at
   least twice as long as [names], so it is never more than half full. *)
type tally = {
  mutable names : string array;
  mutable totals : int array;
  mutable n : int;
  mutable index : int array;
}

(* The distinct global tensors a block touched: [list] newest first, as
   {!result.touched} reports them, and [ids] an open-addressing set of
   their ids (each cell [id + 1], 0 when empty, at most half full). *)
type touched = {
  mutable list : (int * int) list;
  mutable count : int;
  mutable ids : int array;
}

type t = {
  device : Device.t;
  (* What the device fixes, read here instead of through [Device]. *)
  cost : Cost_model.t;
  functional : bool;
  sanitizer : Sanitizer.t option;
  fault : Fault.t option;
  mutable idx : int;
  num_blocks : int;
  mutable core : int;
  health : Health.t;
  mutable kill_at : float;  (* seeded kill threshold of [core]; infinity = never *)
  mutable clock0 : float;  (* [core]'s cumulative busy cycles at block start *)
  charged : float array;
      (* one cell: busy cycles charged by this block so far (a float
         array cell updates in place; a mutable float field would box) *)
  vec_per_core : int;
  eidx : int array;  (* [Engine.index] of the engine in each [cell] *)
  elan : int array;  (* [Engine.lane] of the engine in each [cell] *)
  names : string array;  (* engine names by index, for trace spans *)
  queues : string array;  (* [Engine.queue] by index, for trace spans *)
  busy_total : float array;
  (* --- event timeline --- *)
  lanes : float array;  (* program cursor per lane (Engine.lane) *)
  avail : float array;  (* per-engine queue clock (end of last issue) *)
  pend_count : int array;  (* async ops issued since last commit, per engine *)
  pend_end : float array;  (* max end among them *)
  pend_dsts : Local_tensor.t list array;  (* their local dsts (sanitizer only) *)
  groups : group Queue.t array;  (* committed, un-waited groups per engine *)
  (* --- dependency recording (trace armed only) ---
     Invariants while recording: [last_id.(i)] is the last span issued
     on engine [i] (its end is [avail.(i)]); the max end over
     [lane_src.(l)]'s spans is exactly [lanes.(l)]. Each contributor carries
     the edge kind of the wait that introduced it, so the edges emitted
     at the next issue both explain the issue time bit-exactly and
     name the synchronisation mechanism. *)
  last_id : int array;  (* last span id per engine; -1 = none *)
  pend_last : int array;  (* last async span since commit, per engine *)
  lane_src : (int * Trace.edge_kind) list array;  (* per lane *)
  (* --- accounting --- *)
  mutable gm_read : int;
  mutable gm_write : int;
  touched : touched;
  ops : tally;
  (* --- scratchpads ---
     Bump offsets per memory kind, indexed by [mem_slot]. [scratch]
     holds this block's tiles, newest first; [spare] the tiles of the
     previous block on this context, oldest first, which [alloc] hands
     out again while the requests repeat (see [reset]). *)
  offsets : int array;
  mutable scratch : Local_tensor.t list;
  mutable spare : Local_tensor.t list;
  mutable tb : Trace.Block_builder.b option;
}

type result = {
  cycles : float;
  busy : float array;
  gm_read_bytes : int;
  gm_write_bytes : int;
  touched : (int * int) list;
  op_counts : (string * int) list;
  trace : Trace.block_rec option;
}

let check_idx ~idx ~num_blocks =
  if num_blocks < 1 then
    invalid_arg
      (Printf.sprintf "Block.make: num_blocks must be >= 1 (got %d)" num_blocks);
  if idx < 0 || idx >= num_blocks then
    invalid_arg
      (Printf.sprintf "Block.make: block index %d out of range [0,%d)" idx
         num_blocks)

let builder device ~idx ~core =
  match Device.trace device with
  | Some _ -> Some (Trace.block_builder ~idx ~core)
  | None -> None

let new_tally cap =
  {
    names = Array.make cap "";
    totals = Array.make cap 0;
    n = 0;
    index = Array.make (2 * cap) 0;
  }

(* The cycle formulas, each written once ([Cost_model] holds only the
   constants) and evaluated here, where every instruction is charged. *)
let[@inline] vec_op_cycles (cm : Cost_model.t) ~bytes =
  cm.vec_issue_cycles +. (float_of_int bytes /. cm.vec_bytes_per_cycle)

let vec_shift_cycles cm ~len ~esize dst ~pos ~stride =
  let d = ref 1 and k = ref pos in
  while !d < len do
    dst.(!k) <- vec_op_cycles cm ~bytes:((len - !d) * esize);
    d := 2 * !d;
    k := !k + stride
  done

let[@inline] mte_copy_cycles (cm : Cost_model.t) ~bytes =
  cm.mte_issue_cycles
  +. (float_of_int bytes *. cm.clock_hz /. cm.mte_stream_bandwidth)

let[@inline] local_copy_cycles (cm : Cost_model.t) ~bytes =
  cm.mte_issue_cycles
  +. (float_of_int bytes *. cm.clock_hz /. cm.local_stream_bandwidth)

let[@inline] mmad_cycles (cm : Cost_model.t) ~m ~k ~n ~int8 =
  let rate =
    if int8 then cm.cube_macs_per_cycle_i8 else cm.cube_macs_per_cycle_f16
  in
  cm.mmad_issue_cycles +. (float_of_int (m * k * n) /. rate)

(* The cache cell of vector core [v]'s engine [k] (0 MTE in, 1 vector,
   2 MTE out), after the AI core's four engines. An out-of-range core
   has no cell: [Engine.index] raises its own message for it. *)
let[@inline] vec_cell ~vec_per_core v k =
  if v < 0 || v >= vec_per_core then
    ignore (Engine.index ~vec_per_core (Engine.Vec v));
  4 + (3 * v) + k

let[@inline] cell ~vec_per_core (e : Engine.t) =
  match e with
  | Cube_mte_in -> 0 | Cube -> 1 | Cube_mte_out -> 2 | Scalar -> 3
  | Vec_mte_in v -> vec_cell ~vec_per_core v 0
  | Vec v -> vec_cell ~vec_per_core v 1
  | Vec_mte_out v -> vec_cell ~vec_per_core v 2

(* [f] ([Engine.index] or [Engine.lane]) of every engine, by [cell]. *)
let by_cell ~vec_per_core f =
  let a = Array.make (Engine.count ~vec_per_core) 0 in
  List.iter
    (fun e -> a.(cell ~vec_per_core e) <- f ~vec_per_core e)
    (Engine.all ~vec_per_core);
  a

let make_on ~core ~device ~idx ~num_blocks =
  check_idx ~idx ~num_blocks;
  let cm = Device.cost device in
  let health = Device.health device in
  let vec_per_core = cm.Cost_model.vec_per_core in
  let n = Engine.count ~vec_per_core in
  {
    device;
    cost = cm;
    functional = Device.functional device;
    sanitizer = Device.sanitizer device;
    fault = Device.fault device;
    idx;
    num_blocks;
    core;
    health;
    kill_at = Health.kill_threshold health core;
    clock0 = Health.cycles_done health core;
    charged = [| 0.0 |];
    vec_per_core;
    eidx = by_cell ~vec_per_core Engine.index;
    elan = by_cell ~vec_per_core Engine.lane;
    names = Engine.names ~vec_per_core;
    queues = Array.of_list (List.map Engine.queue (Engine.all ~vec_per_core));
    busy_total = Array.make n 0.0;
    lanes = Array.make (Engine.lane_count ~vec_per_core) 0.0;
    avail = Array.make n 0.0;
    pend_count = Array.make n 0;
    pend_end = Array.make n 0.0;
    pend_dsts = Array.make n [];
    groups = Array.init n (fun _ -> Queue.create ());
    last_id = Array.make n (-1);
    pend_last = Array.make n (-1);
    lane_src = Array.make (Engine.lane_count ~vec_per_core) [];
    gm_read = 0;
    gm_write = 0;
    touched = { list = []; count = 0; ids = Array.make 16 0 };
    ops = new_tally 8;
    offsets = Array.make (4 + vec_per_core) 0;
    scratch = [];
    spare = [];
    tb = builder device ~idx ~core;
  }

let make ~device ~idx ~num_blocks =
  make_on ~core:(idx mod Device.num_cores device) ~device ~idx ~num_blocks

let retire_all = List.iter Local_tensor.retire

let reset t ~core ~idx =
  check_idx ~idx ~num_blocks:t.num_blocks;
  t.idx <- idx;
  t.core <- core;
  t.kill_at <- Health.kill_threshold t.health core;
  t.clock0 <- Health.cycles_done t.health core;
  t.charged.(0) <- 0.0;
  for i = 0 to Array.length t.avail - 1 do
    t.busy_total.(i) <- 0.0;
    t.avail.(i) <- 0.0;
    t.pend_count.(i) <- 0;
    t.pend_end.(i) <- 0.0;
    t.pend_dsts.(i) <- [];
    Queue.clear t.groups.(i);
    t.last_id.(i) <- -1;
    t.pend_last.(i) <- -1
  done;
  for l = 0 to Array.length t.lanes - 1 do
    t.lanes.(l) <- 0.0;
    t.lane_src.(l) <- []
  done;
  t.gm_read <- 0;
  t.gm_write <- 0;
  t.touched.list <- [];
  t.touched.count <- 0;
  Array.fill t.touched.ids 0 (Array.length t.touched.ids) 0;
  for i = 0 to t.ops.n - 1 do
    t.ops.totals.(i) <- 0
  done;
  t.ops.n <- 0;
  Array.fill t.ops.index 0 (Array.length t.ops.index) 0;
  for k = 0 to Array.length t.offsets - 1 do
    t.offsets.(k) <- 0
  done;
  retire_all t.spare;
  t.spare <- List.rev t.scratch;
  t.scratch <- [];
  t.tb <- builder t.device ~idx ~core

let release t =
  retire_all t.spare;
  retire_all t.scratch;
  t.spare <- [];
  t.scratch <- []

let idx t = t.idx
let num_blocks t = t.num_blocks
let cost t = t.cost
let functional t = t.functional
let sanitizer t = t.sanitizer

let assume_disjoint_writes t gt ~reason =
  match t.sanitizer with
  | None -> ()
  | Some san ->
      Sanitizer.exempt_tensor san ~tensor_id:gt.Global_tensor.id ~reason

let ecell t e = cell ~vec_per_core:t.vec_per_core e
let engine_index t e = t.eidx.(ecell t e)
let engine_lane t e = t.elan.(ecell t e)

let engine_clock t engine = t.avail.(engine_index t engine)
let lane_clock t engine = t.lanes.(engine_lane t engine)

(* The charge that carried the core past its kill threshold: sync the
   health clock to the kill point so the death record carries the
   seeded cycle, let note_cycles mark it dead, and raise. *)
let kill t =
  Health.note_cycles t.health ~core:t.core
    (Float.max 0.0 (t.kill_at -. Health.cycles_done t.health t.core));
  (match t.tb with
  | Some tb ->
      Trace.Block_builder.mark tb Trace.Death
        ~name:(Printf.sprintf "core %d dead" t.core)
        ~cycle:t.charged.(0)
  | None -> ());
  raise (Health.Core_dead { core = t.core; cycle = t.kill_at })

(* Busy accounting and the kill check, shared by every charge path.
   [busy_total] and [charged] see the same values in the same
   per-accumulator addition order as before the event model, so
   Stats.engine_busy and the Health kill clock stay bit-identical. *)
let[@inline] bump_busy t i cycles =
  t.busy_total.(i) <- t.busy_total.(i) +. cycles;
  t.charged.(0) <- t.charged.(0) +. cycles;
  if t.clock0 +. t.charged.(0) >= t.kill_at then kill t

(* Issue time of the next op on engine [i] from lane [l]'s point of
   view: after both the lane cursor and the engine clock. *)
let[@inline] issue_start t i l = Float.max t.lanes.(l) t.avail.(i)

let recording t = Option.is_some t.tb

(* Emit the dependency edges of span [dst], deduplicating predecessors
   (the queue predecessor is often also a lane contributor); the first
   occurrence — listed in mechanism priority order by the caller —
   names the edge kind. *)
let emit_edges t ~dst preds =
  match t.tb with
  | None -> ()
  | Some tb ->
      let rec go seen = function
        | [] -> ()
        | (src, kind) :: tl ->
            if src >= 0 && not (List.mem src seen) then begin
              Trace.Block_builder.edge tb ~kind ~src ~dst;
              go (src :: seen) tl
            end
            else go seen tl
      in
      go [] preds

(* The contributors a charge on engine [i] lane [l] sees — the queue
   predecessor and the lane's contributor set, exactly mirroring
   [issue_start]. *)
let issue_src t i l = (t.last_id.(i), Trace.Queue) :: t.lane_src.(l)

(* Record the span of an op issued on engine [i] from lane [l], with
   its dependency edges, and make it the engine's last span. Called
   only with a trace armed: the untraced charge path keeps [start] and
   [stop] unboxed and allocates nothing. *)
let record_issue t tb ~op ~bytes i l ~start ~cycles =
  let id =
    Trace.Block_builder.span tb ~track:i ~engine:t.names.(i)
      ~queue:t.queues.(i) ~op ~start ~cycles ~bytes
  in
  emit_edges t ~dst:id (issue_src t i l);
  t.last_id.(i) <- id;
  id

(* The issue of one synchronous charge on the engine of cache cell [c].
   Inlined into every step that charges, so the cycles computed there
   stay unboxed on the untraced path. *)
let[@inline] issue t ~op ~bytes c cycles =
  let i = t.eidx.(c) and l = t.elan.(c) in
  let start = issue_start t i l in
  (match t.tb with
  | None -> ()
  | Some tb ->
      let id = record_issue t tb ~op ~bytes i l ~start ~cycles in
      t.lane_src.(l) <- [ (id, Trace.Lane) ]);
  let stop = start +. cycles in
  t.avail.(i) <- stop;
  t.lanes.(l) <- stop;
  bump_busy t i cycles

let charge ?(op = "charge") ?(bytes = 0) t engine cycles =
  issue t ~op ~bytes (ecell t engine) cycles

let[@inline] issue_async t ~op ~bytes dst c cycles =
  let i = t.eidx.(c) and l = t.elan.(c) in
  let start = issue_start t i l in
  (match t.tb with
  | None -> ()
  | Some tb ->
      t.pend_last.(i) <- record_issue t tb ~op ~bytes i l ~start ~cycles);
  let stop = start +. cycles in
  t.avail.(i) <- stop;
  t.pend_count.(i) <- t.pend_count.(i) + 1;
  if stop > t.pend_end.(i) then t.pend_end.(i) <- stop;
  (match dst with
  | Some lt when Option.is_some t.sanitizer ->
      t.pend_dsts.(i) <- lt :: t.pend_dsts.(i)
  | _ -> ());
  bump_busy t i cycles

let charge_async ?(op = "charge") ?(bytes = 0) ?dst t engine cycles =
  issue_async t ~op ~bytes dst (ecell t engine) cycles

let commit_group t engine =
  let i = engine_index t engine in
  if t.pend_count.(i) > 0 then begin
    Queue.push
      {
        g_end = t.pend_end.(i);
        g_dsts = t.pend_dsts.(i);
        g_last = t.pend_last.(i);
      }
      t.groups.(i);
    t.pend_count.(i) <- 0;
    t.pend_end.(i) <- 0.0;
    t.pend_dsts.(i) <- [];
    t.pend_last.(i) <- -1
  end

let wait_group t engine ~outstanding =
  if outstanding < 0 then
    invalid_arg "Block.wait_group: outstanding must be >= 0";
  let i = engine_index t engine in
  let l = engine_lane t engine in
  while Queue.length t.groups.(i) > outstanding do
    let g = Queue.pop t.groups.(i) in
    if g.g_end > t.lanes.(l) then t.lanes.(l) <- g.g_end;
    if recording t && g.g_last >= 0 then
      t.lane_src.(l) <- (g.g_last, Trace.Group) :: t.lane_src.(l)
  done

let await_engine t ~lane_of ~on =
  (* Cross-lane dependency: [lane_of]'s program waits until everything
     issued so far on engine [on] (typically another lane's MTE) has
     completed. Does not retire [on]'s groups — they still belong to
     the producing lane's wait discipline. *)
  let l = engine_lane t lane_of in
  let i = engine_index t on in
  if t.avail.(i) > t.lanes.(l) then t.lanes.(l) <- t.avail.(i);
  if recording t && t.last_id.(i) >= 0 then
    t.lane_src.(l) <- (t.last_id.(i), Trace.Await) :: t.lane_src.(l)

(* Contributor set of the block-wide maximum: the per-engine last spans
   cover the engine clocks, the lane contributor sets cover the lane
   cursors. Used by [wait_all], which joins every lane at the
   makespan. *)
let makespan_src t kind =
  let seen = Hashtbl.create 32 in
  let acc = ref [] in
  let add id =
    if id >= 0 && not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      acc := (id, kind) :: !acc
    end
  in
  Array.iter add t.last_id;
  Array.iter (List.iter (fun (id, _) -> add id)) t.lane_src;
  !acc

let wait_all t =
  (* Full intra-block barrier: every lane joins at the global maximum
     and all async state retires. Engine clocks are left in place —
     subsequent issues start at the joined cursor anyway. *)
  let m = ref 0.0 in
  Array.iter (fun c -> if c > !m then m := c) t.lanes;
  Array.iter (fun c -> if c > !m then m := c) t.avail;
  Array.fill t.lanes 0 (Array.length t.lanes) !m;
  if recording t then begin
    let joined = makespan_src t Trace.Join in
    Array.fill t.lane_src 0 (Array.length t.lane_src) joined
  end;
  Array.iter Queue.clear t.groups;
  Array.fill t.pend_count 0 (Array.length t.pend_count) 0;
  Array.fill t.pend_end 0 (Array.length t.pend_end) 0.0;
  Array.fill t.pend_dsts 0 (Array.length t.pend_dsts) [];
  Array.fill t.pend_last 0 (Array.length t.pend_last) (-1)

(* Whether [lt] is the destination of an async copy no wait has
   retired yet (tracked only while a sanitizer is armed). *)
let async_in_flight t lt =
  let memq l = List.exists (fun x -> x == lt) l in
  let hit = ref false in
  Array.iter (fun dsts -> if memq dsts then hit := true) t.pend_dsts;
  Array.iter
    (fun q -> Queue.iter (fun g -> if memq g.g_dsts then hit := true) q)
    t.groups;
  !hit

let check_async_use t ~op lt =
  match t.sanitizer with
  | None -> ()
  | Some san ->
      if async_in_flight t lt then
        Sanitizer.record_async_hazard san ~block:t.idx ~op
          ~tensor:(Mem_kind.to_string lt.Local_tensor.kind)
          ~message:
            (Printf.sprintf
               "%s touches a tile with an asynchronous DataCopy still in \
                flight (no wait_group between the async copy and this use)"
               op)

let note_fault t =
  (match t.tb with
  | Some tb ->
      Trace.Block_builder.mark tb Trace.Fault ~name:"fault"
        ~cycle:t.charged.(0)
  | None -> ());
  Health.note_fault t.health ~core:t.core ~cycle:(t.clock0 +. t.charged.(0))

(* A cheap hash of an op name: its length and three of its characters,
   mixed by a multiply. Equal names hash alike, which is all the index
   needs; names that collide only probe one cell further. *)
let name_hash name =
  let n = String.length name in
  if n = 0 then 0
  else
    let first = Char.code (String.unsafe_get name 0)
    and mid = Char.code (String.unsafe_get name (n / 2))
    and last = Char.code (String.unsafe_get name (n - 1)) in
    ((((((n * 31) + first) * 31) + mid) * 31 + last) * 0x9E3779B1) lsr 16

(* The first empty cell of an open-addressing table from [h] on, and
   the insertion of [v] there (the table is never full). The probes
   are top-level functions, so probing allocates no closure. *)
let rec free_cell cells h =
  if Array.unsafe_get cells h = 0 then h
  else free_cell cells ((h + 1) land (Array.length cells - 1))

let cell_add cells h v = Array.unsafe_set cells (free_cell cells h) v

(* Enter tally slot [i] (its name listed) in the index. *)
let index_add index name i =
  cell_add index (name_hash name land (Array.length index - 1)) (i + 1)

(* Slot of [name] in a tally, appended on first sight. The index probe
   compares physically first: op names are string literals at their
   call sites, so it hits on every issue after the first, and
   [String.equal] catches an equal name that is a different string. A
   repeated name costs one hash and (almost always) one probe, however
   many names the tally lists; no probe allocates. *)
let rec find_name tl name h =
  let cell = Array.unsafe_get tl.index h in
  if cell = 0 then -1 - h
  else
    let listed = Array.unsafe_get tl.names (cell - 1) in
    if listed == name || String.equal listed name then cell - 1
    else find_name tl name ((h + 1) land (Array.length tl.index - 1))

let tally_slot tl name =
  let found =
    find_name tl name (name_hash name land (Array.length tl.index - 1))
  in
  if found >= 0 then found
  else begin
    let n = tl.n in
    if n = Array.length tl.names then begin
      tl.names <- Array.append tl.names (Array.make n "");
      tl.totals <- Array.append tl.totals (Array.make n 0);
      tl.index <- Array.make (4 * n) 0;
      for j = 0 to n - 1 do
        index_add tl.index tl.names.(j) j
      done;
      index_add tl.index name n
    end
    else Array.unsafe_set tl.index (-1 - found) (n + 1);
    tl.names.(n) <- name;
    tl.n <- n + 1;
    n
  end

let[@inline] tally_add tl name k =
  let i = tally_slot tl name in
  tl.totals.(i) <- tl.totals.(i) + k

let tally_list tl = List.init tl.n (fun i -> (tl.names.(i), tl.totals.(i)))

let[@inline] count_op_n t name k = if k > 0 then tally_add t.ops name k

let count_op t name = count_op_n t name 1

(* Tile-batched charging: repeat the charge sequence [cycles] (charge
   [j] named [names.(j mod m)]) exactly [count] times, as [count]
   iterations of per-charge [charge] calls would (same engine
   accumulator, same float-addition order, zero payload bytes). With a
   trace armed or a finite kill threshold the slow per-charge path runs
   so span granularity and kill semantics are untouched; otherwise the
   dispatch (engine index, trace match, kill check) is paid once per
   tile instead of once per row. The [counts] of a batch are recorded
   all at once on the fast path; the slow path counts each charge just
   before it, as a per-instruction issue does, so a kill inside the
   batch leaves only the instructions issued before it counted. *)
let charge_rows ?counts t engine ~count ~names cycles =
  let n = Array.length cycles in
  if count > 0 && n > 0 then
    if Option.is_some t.tb || Float.is_finite t.kill_at then begin
      let counted = Option.is_some counts in
      let m = Array.length names in
      let c = ecell t engine in
      for _ = 1 to count do
        for j = 0 to n - 1 do
          let op = names.(j mod m) in
          if counted then count_op t op;
          issue t ~op ~bytes:0 c cycles.(j)
        done
      done
    end
    else begin
      (match counts with
      | Some counts ->
          for k = 0 to Array.length counts - 1 do
            let name, c = counts.(k) in
            count_op_n t name c
          done
      | None -> ());
      let i = engine_index t engine in
      let l = engine_lane t engine in
      (* The three accumulators live in registers for the whole batch
         and are stored once; each still adds every charge in order. *)
      let clock = ref (issue_start t i l) in
      let busy = ref t.busy_total.(i) in
      let charged = ref t.charged.(0) in
      for _ = 1 to count do
        for j = 0 to n - 1 do
          let c = Array.unsafe_get cycles j in
          busy := !busy +. c;
          charged := !charged +. c;
          clock := !clock +. c
        done
      done;
      t.busy_total.(i) <- !busy;
      t.charged.(0) <- !charged;
      t.avail.(i) <- !clock;
      t.lanes.(l) <- !clock
    end

let note_gm_traffic t ~read ~write =
  t.gm_read <- t.gm_read + read;
  t.gm_write <- t.gm_write + write

(* Enter [id] in an id set whose cells are [id + 1]. Tensor ids count
   up from 0 on each device, so [id land mask] spreads them evenly. *)
let ids_add ids id = cell_add ids (id land (Array.length ids - 1)) (id + 1)

let rec has_id ids id h =
  let cell = Array.unsafe_get ids h in
  cell = id + 1
  || (cell <> 0 && has_id ids id ((h + 1) land (Array.length ids - 1)))

(* A repeated tensor costs one probe of the id set (almost always),
   however many tensors the block has touched. *)
let note_touched (t : t) gt =
  let id = gt.Global_tensor.id in
  let tc = t.touched in
  if not (has_id tc.ids id (id land (Array.length tc.ids - 1))) then begin
    tc.list <- (id, Global_tensor.size_bytes gt) :: tc.list;
    tc.count <- tc.count + 1;
    if 2 * tc.count > Array.length tc.ids then begin
      tc.ids <- Array.make (2 * Array.length tc.ids) 0;
      List.iter (fun (id, _) -> ids_add tc.ids id) tc.list
    end
    else ids_add tc.ids id
  end

(* One GM copy on an MTE queue, after the caller's range, async-use and
   sanitizer checks. The fault is drawn after the count and before the
   charge, and a drawn fault is scored against the core's quarantine
   budget before the payload lands. *)
let gm_copy t engine ~async ~write gt lt ~dst_off ~len =
  let op = if write then "datacopy_out" else "datacopy_in" in
  count_op t op;
  let bytes = len * Dtype.size_bytes gt.Global_tensor.dtype in
  let act =
    match t.fault with
    | None -> Fault.No_fault
    | Some f ->
        let dst_dtype = if write then gt.dtype else lt.Local_tensor.dtype in
        let act =
          Fault.draw f ~engine ~op ~tensor:gt.name ~dst_off ~len
            ~elem_bits:(8 * Dtype.size_bytes dst_dtype)
        in
        (match act with Fault.No_fault -> () | _ -> note_fault t);
        act
  in
  let cycles =
    match act with
    | Fault.Stall m -> mte_copy_cycles t.cost ~bytes *. m
    | _ -> mte_copy_cycles t.cost ~bytes
  in
  let c = ecell t engine in
  if async then
    (* Only a copy into the tile is tracked, and only for a sanitizer. *)
    let dst = if write || Option.is_none t.sanitizer then None else Some lt in
    issue_async t ~op ~bytes dst c cycles
  else issue t ~op ~bytes c cycles;
  if write then t.gm_write <- t.gm_write + bytes
  else t.gm_read <- t.gm_read + bytes;
  note_touched t gt;
  act

(* The one-step issues of the other engine ops, after their checks:
   count, cycles from the formulas above, charge. *)
let vec_op ?(counted = true) t ~vec ~op ~instrs ~bytes =
  if counted then count_op t op;
  let c = vec_cell ~vec_per_core:t.vec_per_core vec 1 in
  issue t ~op ~bytes:0 c (float_of_int instrs *. vec_op_cycles t.cost ~bytes)

let vec_scalar ?(counted = true) t ~vec ~op =
  if counted then count_op t op;
  let c = vec_cell ~vec_per_core:t.vec_per_core vec 1 in
  issue t ~op ~bytes:0 c t.cost.scalar_access_cycles

let local_copy t engine ~bytes =
  count_op t "datacopy_local";
  issue t ~op:"datacopy_local" ~bytes (ecell t engine)
    (local_copy_cycles t.cost ~bytes)

let const_copy t engine ~bytes =
  issue t ~op:"datacopy_const" ~bytes (ecell t engine)
    (mte_copy_cycles t.cost ~bytes);
  t.gm_read <- t.gm_read + bytes

let mmad t ~m ~k ~n ~int8 =
  count_op t "mmad";
  issue t ~op:"mmad" ~bytes:0 (ecell t Engine.Cube)
    (mmad_cycles t.cost ~m ~k ~n ~int8)

let scalar_ops t ~count =
  issue t ~op:"scalar_ops" ~bytes:0 (ecell t Engine.Scalar)
    (float_of_int count *. t.cost.scalar_op_cycles)

let scalar_gm t gt ~write =
  count_op t "scalar_gm_access";
  issue t ~op:"scalar_gm_access" ~bytes:0 (ecell t Engine.Scalar)
    t.cost.scalar_gm_cycles_per_access;
  note_touched t gt;
  let bytes = Dtype.size_bytes gt.Global_tensor.dtype in
  if write then t.gm_write <- t.gm_write + bytes
  else t.gm_read <- t.gm_read + bytes

let elapsed_cycles t =
  (* Makespan: queued async work is covered by the engine clocks. *)
  let m = ref 0.0 in
  for l = 0 to Array.length t.lanes - 1 do
    if t.lanes.(l) > !m then m := t.lanes.(l)
  done;
  for i = 0 to Array.length t.avail - 1 do
    if t.avail.(i) > !m then m := t.avail.(i)
  done;
  !m

(* [offsets] slot of a memory kind: the cube-side buffers first, then
   one UB per vector core. *)
let mem_slot t kind =
  match kind with
  | Mem_kind.L1 -> 0
  | Mem_kind.L0a -> 1
  | Mem_kind.L0b -> 2
  | Mem_kind.L0c -> 3
  | Mem_kind.Ub i when i >= 0 && i < t.vec_per_core -> 4 + i
  | Mem_kind.Ub _ ->
      invalid_arg
        (Printf.sprintf "Block.alloc: no memory %s on this core"
           (Mem_kind.to_string kind))

(* A tile of the previous block when this request repeats the one the
   previous block made at the same point, zeroed to read as fresh;
   otherwise a new tile, and the previous block's unclaimed tiles go
   back to the pool at once. *)
let take_tile t kind dtype length =
  match t.spare with
  | lt :: rest
    when Mem_kind.equal lt.Local_tensor.kind kind
         && Dtype.equal lt.dtype dtype && lt.length = length ->
      t.spare <- rest;
      Local_tensor.recycle lt;
      lt
  | spare ->
      retire_all spare;
      t.spare <- [];
      Local_tensor.make ~kind ~dtype ~length

let alloc t kind dtype length =
  let slot = mem_slot t kind in
  let off = t.offsets.(slot) in
  let bytes = length * Dtype.size_bytes dtype in
  let cap = Mem_kind.capacity_bytes kind in
  if off + bytes > cap then
    failwith
      (Printf.sprintf
         "Block.alloc: %s overflow (%d B requested, %d of %d B in use)"
         (Mem_kind.to_string kind) bytes off cap);
  t.offsets.(slot) <- off + bytes;
  let lt = take_tile t kind dtype length in
  t.scratch <- lt :: t.scratch;
  lt

let reset_mem t kind = t.offsets.(mem_slot t kind) <- 0

let finish t =
  let cycles = elapsed_cycles t in
  {
    cycles;
    busy = Array.copy t.busy_total;
    gm_read_bytes = t.gm_read;
    gm_write_bytes = t.gm_write;
    touched = t.touched.list;
    (* First-seen order: the order in which Launch's merge table
       meets the names decides how tied counts sort in Stats. *)
    op_counts = tally_list t.ops;
    trace =
      (match t.tb with
      | Some tb -> Some (Trace.Block_builder.finish tb ~cycles)
      | None -> None);
  }

let merge_op_counts results =
  let tl = new_tally 16 in
  List.iter
    (fun r -> List.iter (fun (name, k) -> tally_add tl name k) r.op_counts)
    results;
  tally_list tl
