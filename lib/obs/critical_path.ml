(* Critical-path reconstruction over the recorder's own records.

   The event-timeline engine model ({!Ascend.Block}) records, next to
   every span, the dependency edges that explain its issue time
   ({!Ascend.Trace}). The builder takes those records, rebuilds each
   block's launch DAG, recomputes every span's issue time as the max
   end of its predecessors (bit-identical to the engine model:
   [Float.max] over non-negative floats is order-independent and the
   endpoints are the very floats the model produced), extracts the
   critical path and per-span slack, and rolls the whole run up into a
   blame table — cycles of end-to-end makespan attributed to each
   engine, op and queue, plus the launch latency, SyncAll and
   bandwidth terms of the phase composition. JSON is read only at the
   file boundary: the decoder turns a Chrome trace back into the same
   records (the exact cycle endpoints ride in args [c0]/[c1]; the
   microsecond ts/dur do not round-trip to cycles). *)

module Trace = Ascend.Trace
module Stats = Ascend.Stats

type block = {
  bk_core : int;
  bk_spans : Trace.span array; (* block-local ids: bk_spans.(i).sp_id = i *)
  bk_edges : Trace.edge array; (* in recording order *)
  bk_cycles : float; (* reconstructed critical-path length (makespan) *)
  bk_cp : int list; (* span ids on the critical path, in time order *)
  bk_slack : float array; (* per-span slack, aligned with bk_spans *)
}

type phase = {
  ph_launch : string;
  ph_index : int;
  ph_seconds : float;
  ph_compute_seconds : float;
  ph_bandwidth_seconds : float;
  ph_bound : string;
  ph_gm_bytes : int;
  ph_blocks : block list; (* by occurrence *)
  ph_cores : (int * float) list; (* core -> serialised chain cycles *)
  ph_bounding_core : int; (* -1 when the phase recorded no blocks *)
}

type launch = {
  ln_name : string;
  ln_cycles : float;
  ln_latency_cycles : float;
  ln_sync_cycles : float;
  ln_phases : phase list;
}

type t = {
  schema : string;
  clock_hz : float;
  total_cycles : float;
  launches : launch list;
  blame : (string * float) list; (* resource -> CP cycles, descending *)
  op_blame : (string * float) list;
  queue_blame : (string * float) list;
  spans_total : int;
  edges_total : int;
  cp_spans : int;
}

let tally tbl key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))

let sorted_blame tbl =
  List.sort
    (fun (na, ca) (nb, cb) ->
      let c = Float.compare cb ca in
      if c <> 0 then c else String.compare na nb)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* Per-block DAG analysis: forward pass (verifying the recorded issue
   times), critical-path extraction, backward slack pass. Span ids are
   block-local, so they index [spans]. *)

exception Inconsistent of string

let inconsistent fmt = Printf.ksprintf (fun s -> raise (Inconsistent s)) fmt

let analyze_block ~core (spans : Trace.span array) (edges : Trace.edge array) =
  let n = Array.length spans in
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  Array.iter
    (fun { Trace.e_src = src; e_dst = dst; _ } ->
      if not (src >= 0 && src < n && dst >= 0 && dst < n) then
        inconsistent "edge %d->%d outside span range" src dst;
      (* The recorder only emits edges in issue order; a backward one
         could close a cycle the critical-path walk would never leave. *)
      if src >= dst then inconsistent "edge %d->%d not in issue order" src dst;
      preds.(dst) <- src :: preds.(dst);
      succs.(src) <- dst :: succs.(src))
    edges;
  (* Forward: recomputed issue time must equal the recorded start
     bitwise — the reconstruction contract. *)
  for i = 0 to n - 1 do
    let s = spans.(i) in
    let start =
      List.fold_left (fun m p -> Float.max m spans.(p).Trace.sp_end) 0.0 preds.(i)
    in
    if not (Float.equal start s.Trace.sp_start) then
      inconsistent "span %d (%s %s): recomputed start %h <> recorded %h" i
        s.Trace.sp_engine s.Trace.sp_op start s.Trace.sp_start
  done;
  let makespan =
    Array.fold_left (fun m s -> Float.max m s.Trace.sp_end) 0.0 spans
  in
  (* Critical path: walk back from the (deterministically first) span
     achieving the makespan, at each step to the first predecessor
     whose end equals the span's start. The path is temporally
     contiguous: every span starts exactly when its chosen predecessor
     ends, and the root starts at 0. *)
  let sink = ref (-1) in
  for i = n - 1 downto 0 do
    if Float.equal spans.(i).Trace.sp_end makespan then sink := i
  done;
  let cp = ref [] in
  (if n > 0 then
     let cur = ref !sink in
     let continue = ref true in
     while !continue do
       cp := !cur :: !cp;
       let s = spans.(!cur) in
       if s.Trace.sp_start = 0.0 && preds.(!cur) = [] then continue := false
       else begin
         let next =
           List.fold_left
             (fun best p ->
               if Float.equal spans.(p).Trace.sp_end s.Trace.sp_start then
                 match best with
                 | Some b when b <= p -> Some b
                 | _ -> Some p
               else best)
             None preds.(!cur)
         in
         match next with
         | Some p -> cur := p
         | None ->
             (* start time reached without a binding predecessor: the
                span starts at 0 on an idle engine. *)
             continue := false
       end
     done);
  (* Backward slack: latest end of each span without growing the
     makespan. Sinks may end at the makespan; an edge src->dst forces
     src to end by dst's latest start. *)
  let lat_end = Array.make n 0.0 in
  let slack = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let le =
      List.fold_left
        (fun m j ->
          let d = spans.(j) in
          Float.min m (lat_end.(j) -. (d.Trace.sp_end -. d.Trace.sp_start)))
        makespan succs.(i)
    in
    lat_end.(i) <- le;
    slack.(i) <- le -. spans.(i).Trace.sp_end
  done;
  {
    bk_core = core;
    bk_spans = spans;
    bk_edges = edges;
    bk_cycles = makespan;
    bk_cp = !cp;
    bk_slack = slack;
  }

(* ------------------------------------------------------------------ *)
(* Builder: the profile of a list of recorded launches. *)

(* A block that issued nothing (an idle tail block of a launch wider
   than the work) has no DAG, and a trace file never shows it. *)
let block_of ~launch ~phase (b : Trace.block_rec) =
  match b.Trace.b_spans with
  | [] -> None
  | spans -> (
      try
        Some
          (analyze_block ~core:b.Trace.b_core (Array.of_list spans)
             (Array.of_list b.Trace.b_edges))
      with Inconsistent msg ->
        inconsistent "launch %s phase %d block %d: %s" launch phase
          b.Trace.b_idx msg)

(* A phase with its blocks and the per-core serial chains they form. *)
let phase_of ~launch index (p : Trace.phase_rec) =
  let st = p.Trace.ph_stats in
  let blks = List.filter_map (block_of ~launch ~phase:index) p.Trace.ph_blocks in
  let cores = Hashtbl.create 16 in
  List.iter (fun b -> tally cores b.bk_core b.bk_cycles) blks;
  let cores =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) cores [])
  in
  let bounding_core, _ =
    List.fold_left
      (fun (bc, bcy) (c, cy) -> if cy > bcy then (c, cy) else (bc, bcy))
      (-1, neg_infinity) cores
  in
  {
    ph_launch = launch;
    ph_index = index;
    ph_seconds = st.Stats.seconds;
    ph_compute_seconds = st.Stats.compute_seconds;
    ph_bandwidth_seconds = st.Stats.bandwidth_seconds;
    ph_bound = (if st.Stats.bandwidth_bound then "bandwidth" else "compute");
    ph_gm_bytes = st.Stats.gm_bytes;
    ph_blocks = blks;
    ph_cores = cores;
    ph_bounding_core = (if blks = [] then -1 else bounding_core);
  }

let build ~clock_hz (launches : Trace.launch_rec list) =
  match
    List.map
      (fun (l : Trace.launch_rec) ->
        let name = l.Trace.ln_name in
        {
          ln_name = name;
          ln_cycles = l.Trace.ln_seconds *. clock_hz;
          ln_latency_cycles = l.Trace.ln_latency_cycles;
          ln_sync_cycles = l.Trace.ln_sync_cycles;
          ln_phases = List.mapi (phase_of ~launch:name) l.Trace.ln_phases;
        })
      launches
  with
  | exception Inconsistent msg -> Error msg
  | launch_list ->
      (* Blame: decompose the end-to-end makespan. *)
      let blame = Hashtbl.create 32 in
      let op_blame = Hashtbl.create 64 in
      let queue_blame = Hashtbl.create 16 in
      let cp_spans = ref 0 and spans = ref 0 and edges = ref 0 in
      let total = ref 0.0 in
      List.iter
        (fun ln ->
          total := !total +. ln.ln_cycles;
          tally blame "launch latency" ln.ln_latency_cycles;
          let nph = List.length ln.ln_phases in
          if nph > 1 then
            tally blame "sync_all" (float_of_int (nph - 1) *. ln.ln_sync_cycles);
          let covered = ref ln.ln_latency_cycles in
          if nph > 1 then
            covered := !covered +. (float_of_int (nph - 1) *. ln.ln_sync_cycles);
          List.iter
            (fun p ->
              List.iter
                (fun b ->
                  spans := !spans + Array.length b.bk_spans;
                  edges := !edges + Array.length b.bk_edges)
                p.ph_blocks;
              let pc = p.ph_seconds *. clock_hz in
              covered := !covered +. pc;
              if p.ph_bound = "bandwidth" then tally blame "HBM/L2 bandwidth" pc
              else begin
                (* Blame the bounding core's serialised block chain;
                   within each block, its critical-path spans. *)
                let chain = ref 0.0 in
                List.iter
                  (fun b ->
                    if b.bk_core = p.ph_bounding_core then begin
                      chain := !chain +. b.bk_cycles;
                      List.iter
                        (fun i ->
                          let s = b.bk_spans.(i) in
                          incr cp_spans;
                          let d = s.Trace.sp_end -. s.Trace.sp_start in
                          tally blame s.Trace.sp_engine d;
                          tally op_blame s.Trace.sp_op d;
                          tally queue_blame s.Trace.sp_queue d)
                        b.bk_cp
                    end)
                  p.ph_blocks;
                (* Replay delays, launch-composition padding and the
                   cycles-to-seconds round trip land here. *)
                tally blame "phase overhead" (pc -. !chain)
              end)
            ln.ln_phases;
          tally blame "launch overhead" (ln.ln_cycles -. !covered))
        launch_list;
      Ok
        {
          schema = "ascend-trace-1";
          clock_hz;
          total_cycles = !total;
          launches = launch_list;
          blame = sorted_blame blame;
          op_blame = sorted_blame op_blame;
          queue_blame = sorted_blame queue_blame;
          spans_total = !spans;
          edges_total = !edges;
          cp_spans = !cp_spans;
        }

let of_trace tr = build ~clock_hz:(Trace.clock_hz tr) (Trace.launches tr)

(* ------------------------------------------------------------------ *)
(* Decoder: a Chrome trace file back into the recorder's records.

   Every span carries its trace-unique [sid], its block occurrence
   [binst] and its exact endpoints. The export numbers the spans 0, 1,
   2, ... and those of one block are contiguous, so each span's fields
   go to slot [sid] of flat arrays as it is read, and [sid - first] is
   the block-local id the recorder gave it. Flow ids number the edges
   0, 1, 2, ... in recording order, so each flow goes to slot [id],
   and walking the slots gives every block its edges back in the
   recorder's order. *)

type raw_block = {
  rb_binst : int;
  rb_pid : int;
  rb_ts : float; (* first span's file ts, for phase attribution *)
  mutable rb_first : int; (* lowest sid *)
  mutable rb_count : int; (* spans read *)
  mutable rb_edges : Trace.edge list; (* block-local ids, in recording order *)
}

type raw_phase = {
  rp_launch : string;
  rp_ts : float;
  rp_dur : float;
  rp_stats : Stats.phase;
  mutable rp_blocks : (int * Trace.block_rec) list; (* binst, block; newest first *)
}

(* Span fields by sid and flows by id. Sized from the counts the file
   declares; an index past them grows the arrays once to the event
   count, which bounds every index a well-formed file uses. *)
type slots = {
  mutable sp_binst : int array; (* [min_int]: no span read at this sid *)
  mutable sp_block : int array;
  mutable sp_track : int array;
  mutable sp_queue : string array;
  mutable sp_op : string array;
  mutable sp_c0 : float array;
  mutable sp_c1 : float array;
  mutable sp_bytes : int array;
  mutable fl_src : int array;
  mutable fl_dst : int array;
  mutable fl_kind : Trace.edge_kind array;
  fl_ids : int array; (* flow ids in file order *)
  mutable nflows : int;
  limit : int; (* event count *)
}

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let slots ~spans ~flows ~limit =
  let spans = if spans >= 0 && spans <= limit then spans else limit in
  let flows = if flows >= 0 && flows <= limit then flows else limit in
  {
    sp_binst = Array.make spans min_int;
    sp_block = Array.make spans 0;
    sp_track = Array.make spans 0;
    sp_queue = Array.make spans "";
    sp_op = Array.make spans "";
    sp_c0 = Array.make spans 0.0;
    sp_c1 = Array.make spans 0.0;
    sp_bytes = Array.make spans 0;
    fl_src = Array.make flows 0;
    fl_dst = Array.make flows 0;
    fl_kind = Array.make flows Trace.Lane;
    fl_ids = Array.make limit 0;
    nflows = 0;
    limit;
  }

(* Room for span slot [sid]: false when past the event count. *)
let span_room sl sid =
  sid < Array.length sl.sp_binst
  || sid < sl.limit
     && begin
          let n = sl.limit in
          sl.sp_binst <- grow sl.sp_binst n min_int;
          sl.sp_block <- grow sl.sp_block n 0;
          sl.sp_track <- grow sl.sp_track n 0;
          sl.sp_queue <- grow sl.sp_queue n "";
          sl.sp_op <- grow sl.sp_op n "";
          sl.sp_c0 <- grow sl.sp_c0 n 0.0;
          sl.sp_c1 <- grow sl.sp_c1 n 0.0;
          sl.sp_bytes <- grow sl.sp_bytes n 0;
          true
        end

let flow_room sl id =
  id < Array.length sl.fl_src
  || id < sl.limit
     && begin
          let n = sl.limit in
          sl.fl_src <- grow sl.fl_src n 0;
          sl.fl_dst <- grow sl.fl_dst n 0;
          sl.fl_kind <- grow sl.fl_kind n Trace.Lane;
          true
        end

(* Phase windows and the blocks' first spans are both in file (= time)
   order, so the window holding a start [ts] is found by a cursor that
   only moves forward: past a window once [ts] reaches both its end and
   the next window's start. *)
let eps = 1e-6

let advance phases cursor ts =
  while
    !cursor < Array.length phases - 1
    && ts >= phases.(!cursor).rp_ts +. phases.(!cursor).rp_dur -. eps
    && ts >= phases.(!cursor + 1).rp_ts -. eps
  do
    incr cursor
  done

(* Events are decoded in one pass over each member list, into local
   refs; as with [Jsonw.member], the first occurrence of a key counts,
   and [absent] stands for a missing one. The tests and reads below
   split [Jsonw.int_opt]/[number_opt]/[string_opt] so that reading a
   span or a flow allocates nothing. *)
let absent = Jsonw.Obj []
let members_of = function Jsonw.Obj m -> m | _ -> []
let str ~default = function Jsonw.String s -> s | _ -> default

let is_int = function
  | Jsonw.Int _ -> true
  | Jsonw.Float f -> Float.is_integer f
  | _ -> false

let int_of = function Jsonw.Int i -> i | Jsonw.Float f -> int_of_float f | _ -> 0
let int ~default v = if is_int v then int_of v else default
let is_num = function Jsonw.Int _ | Jsonw.Float _ -> true | _ -> false

let[@inline] num_of = function
  | Jsonw.Int i -> float_of_int i
  | Jsonw.Float f -> f
  | _ -> 0.0

let num ~default v = if is_num v then num_of v else default

(* A span event's profiler args, into slot [sid] when it has its sid,
   block occurrence and exact cycle endpoints; the sid, or -1. *)
let read_span sl ~tid ~cat ~name args =
  let sid = ref absent and binst = ref absent and c0 = ref absent in
  let c1 = ref absent and bytes = ref absent and block = ref absent in
  let members = ref (members_of args) in
  while match !members with [] -> false | _ -> true do
    match !members with
    | [] -> ()
    | (k, v) :: rest ->
        (match k with
        | "sid" -> if !sid == absent then sid := v
        | "binst" -> if !binst == absent then binst := v
        | "block" -> if !block == absent then block := v
        | "c0" -> if !c0 == absent then c0 := v
        | "c1" -> if !c1 == absent then c1 := v
        | "bytes" -> if !bytes == absent then bytes := v
        | _ -> ());
        members := rest
  done;
  if is_int !sid && is_int !binst && is_num !c0 && is_num !c1 then begin
    let sid = int_of !sid and binst = int_of !binst in
    if sid < 0 || not (span_room sl sid) then
      inconsistent "block %d: span ids are not contiguous (sid %d of %d events)" binst
        sid sl.limit;
    if sl.sp_binst.(sid) <> min_int then
      inconsistent "block %d: span ids are not contiguous (%d after %d)" binst sid sid;
    sl.sp_binst.(sid) <- binst;
    sl.sp_block.(sid) <- int ~default:0 !block;
    sl.sp_track.(sid) <- tid;
    sl.sp_queue.(sid) <- str ~default:"?" cat;
    sl.sp_op.(sid) <- str ~default:"?" name;
    sl.sp_c0.(sid) <- num_of !c0;
    sl.sp_c1.(sid) <- num_of !c1;
    sl.sp_bytes.(sid) <- int ~default:0 !bytes;
    sid
  end
  else -1

(* A flow start's args: its id and the edge between sids [src] and
   [dst], into slot [id]. *)
let read_flow sl args =
  let id = ref absent and src = ref absent and dst = ref absent in
  let kind = ref absent in
  let members = ref (members_of args) in
  while match !members with [] -> false | _ -> true do
    match !members with
    | [] -> ()
    | (k, v) :: rest ->
        (match k with
        | "id" -> if !id == absent then id := v
        | "src" -> if !src == absent then src := v
        | "dst" -> if !dst == absent then dst := v
        | "kind" -> if !kind == absent then kind := v
        | _ -> ());
        members := rest
  done;
  if is_int !src && is_int !dst then begin
    let src = int_of !src and dst = int_of !dst in
    let kind = str ~default:"" !kind in
    match Trace.edge_kind_of_string kind with
    | Some e_kind ->
        let id = int ~default:(-1) !id in
        sl.fl_ids.(sl.nflows) <- id;
        sl.nflows <- sl.nflows + 1;
        if id >= 0 && flow_room sl id then begin
          sl.fl_src.(id) <- src;
          sl.fl_dst.(id) <- dst;
          sl.fl_kind.(id) <- e_kind
        end
    | None -> inconsistent "flow %d->%d: %S is not an edge kind" src dst kind
  end

(* Flow ids must number the flows 0..n-1 once each. The id reported is
   the last in file order that is out of range or repeated later. *)
let check_flow_ids sl =
  let n = sl.nflows in
  let seen = Array.make n false in
  for j = n - 1 downto 0 do
    let id = sl.fl_ids.(j) in
    if id < 0 || id >= n || seen.(id) then
      inconsistent "flow id %d does not number the flows 0..%d once" id (n - 1);
    seen.(id) <- true
  done

(* Launch and phase spans are few: their args go through [member]. *)
let arg k args = Option.value ~default:absent (Jsonw.member k args)

(* A block's sids must run from its lowest one without a gap (a
   repeated sid was refused as it was read). *)
let check_contiguous sl rb =
  let first = rb.rb_first in
  for i = 0 to rb.rb_count - 1 do
    if sl.sp_binst.(first + i) <> rb.rb_binst then begin
      (* The block's next sid after [first + i - 1]. *)
      let next = ref (first + i) in
      while sl.sp_binst.(!next) <> rb.rb_binst do
        incr next
      done;
      inconsistent "block %d: span ids are not contiguous (%d after %d)" rb.rb_binst
        !next (first + i - 1)
    end
  done

(* The recorder's block of a decoded one, each span named after its
   track: the file does not carry the block's elapsed cycles, so they
   are its spans' makespan. *)
let block_rec sl ~track_name rb =
  let first = rb.rb_first in
  let names = track_name rb.rb_pid in
  let spans = ref [] and cycles = ref 0.0 in
  for i = rb.rb_count - 1 downto 0 do
    let sid = first + i in
    let track = sl.sp_track.(sid) in
    cycles := Float.max !cycles sl.sp_c1.(sid);
    spans :=
      {
        Trace.sp_id = i;
        sp_block = sl.sp_block.(sid);
        sp_track = track;
        sp_engine =
          (match Hashtbl.find names track with n -> n | exception Not_found -> "?");
        sp_queue = sl.sp_queue.(sid);
        sp_op = sl.sp_op.(sid);
        sp_start = sl.sp_c0.(sid);
        sp_end = sl.sp_c1.(sid);
        sp_bytes = sl.sp_bytes.(sid);
      }
      :: !spans
  done;
  {
    Trace.b_idx = sl.sp_block.(first);
    b_core = rb.rb_pid - 1;
    b_cycles = !cycles;
    b_spans = !spans;
    b_edges = rb.rb_edges;
    b_marks = [];
  }

(* Group phases under their launch occurrences. Both lists are in file
   (= time) order and launches are sequential, so each launch owns the
   next run of phases — exactly the count its span advertises. A kernel
   that re-launches under one name (radix passes, the scans inside
   top-p) must NOT see its phases pooled by name: that would repeat
   every block under every same-named occurrence. Traces without the
   count fall back to consuming the maximal run of matching names. A
   phase's blocks are listed by occurrence, as the recorder holds
   them. *)
let group_launches launches phases =
  let remaining = ref phases in
  let take_while keep =
    let rec go i acc = function
      | p :: tl when keep i p -> go (i + 1) (p :: acc) tl
      | rest ->
          remaining := rest;
          List.rev acc
    in
    go 0 [] !remaining
  in
  let by_binst (a, _) (b, _) = Int.compare a b in
  List.map
    (fun (name, seconds, latency, sync, nphases) ->
      let taken =
        match nphases with
        | Some k -> take_while (fun i _ -> i < k)
        | None -> take_while (fun _ p -> p.rp_launch = name)
      in
      {
        Trace.ln_name = name;
        ln_seconds = seconds;
        ln_latency_cycles = latency;
        ln_sync_cycles = sync;
        ln_phases =
          List.map
            (fun rp ->
              {
                Trace.ph_stats = rp.rp_stats;
                ph_blocks = List.map snd (List.sort by_binst rp.rp_blocks);
              })
            taken;
      })
    launches

let decode ~spans ~flows events =
  (* One pass: launches, phases (file order = time order), spans with
     profiler args into their slots, grouped by block occurrence, and
     flow edges into theirs. The span's op is its event name; the
     engine (track) name rides on thread_name metadata keyed by (pid,
     tid), which the export writes before any span. *)
  let sl = slots ~spans ~flows ~limit:(List.length events) in
  let launches = ref [] in
  let phases = ref [] in
  let blocks : (int, raw_block) Hashtbl.t = Hashtbl.create 64 in
  let block_order = ref [] in
  let track_names : (int, (int, string) Hashtbl.t) Hashtbl.t = Hashtbl.create 32 in
  let track_name pid =
    match Hashtbl.find track_names pid with
    | t -> t
    | exception Not_found ->
        let t = Hashtbl.create 16 in
        Hashtbl.add track_names pid t;
        t
  in
  List.iter
    (fun ev ->
      let ph = ref absent and cat = ref absent and name = ref absent in
      let pid = ref absent and tid = ref absent and ts = ref absent in
      let dur = ref absent and args = ref absent in
      let members = ref (members_of ev) in
      while match !members with [] -> false | _ -> true do
        match !members with
        | [] -> ()
        | (k, v) :: rest ->
            (match k with
            | "ph" -> if !ph == absent then ph := v
            | "cat" -> if !cat == absent then cat := v
            | "name" -> if !name == absent then name := v
            | "pid" -> if !pid == absent then pid := v
            | "tid" -> if !tid == absent then tid := v
            | "ts" -> if !ts == absent then ts := v
            | "dur" -> if !dur == absent then dur := v
            | "args" -> if !args == absent then args := v
            | _ -> ());
            members := rest
      done;
      let args = !args in
      match !ph with
      | Jsonw.String "X" -> (
          match !cat with
          | Jsonw.String "launch" ->
              launches :=
                ( str ~default:"?" !name,
                  num ~default:0.0 (arg "seconds" args),
                  num ~default:0.0 (arg "latency_cycles" args),
                  num ~default:0.0 (arg "sync_cycles" args),
                  Jsonw.int_opt (arg "phases" args) )
                :: !launches
          | Jsonw.String "phase" ->
              phases :=
                {
                  rp_launch = str ~default:"?" (arg "launch" args);
                  rp_ts = num ~default:0.0 !ts;
                  rp_dur = num ~default:0.0 !dur;
                  rp_stats =
                    {
                      Stats.seconds = num ~default:0.0 (arg "seconds" args);
                      compute_seconds = num ~default:0.0 (arg "compute_seconds" args);
                      bandwidth_seconds = num ~default:0.0 (arg "bandwidth_seconds" args);
                      bandwidth_bound = str ~default:"compute" (arg "bound" args) = "bandwidth";
                      gm_bytes = int ~default:0 (arg "gm_bytes" args);
                      footprint_bytes = int ~default:0 (arg "footprint_bytes" args);
                    };
                  rp_blocks = [];
                }
                :: !phases
          | _ when is_int !pid && int_of !pid > 0 ->
              let sid = read_span sl ~tid:(int ~default:0 !tid) ~cat:!cat ~name:!name args in
              if sid >= 0 then begin
                let binst = sl.sp_binst.(sid) in
                match Hashtbl.find blocks binst with
                | rb ->
                    if sid < rb.rb_first then rb.rb_first <- sid;
                    rb.rb_count <- rb.rb_count + 1
                | exception Not_found ->
                    let rb =
                      {
                        rb_binst = binst;
                        rb_pid = int_of !pid;
                        rb_ts = num ~default:0.0 !ts;
                        rb_first = sid;
                        rb_count = 1;
                        rb_edges = [];
                      }
                    in
                    Hashtbl.add blocks binst rb;
                    block_order := rb :: !block_order
              end
          | _ -> ())
      | Jsonw.String "s" -> read_flow sl args
      | Jsonw.String "M" when str ~default:"" !name = "thread_name" -> (
          match (!pid, !tid, arg "name" args) with
          | pid, tid, Jsonw.String name when is_int pid && is_int tid ->
              Hashtbl.replace (track_name (int_of pid)) (int_of tid) name
          | _ -> ())
      | _ -> ())
    events;
  let phases = Array.of_list (List.rev !phases) in
  if Array.length phases = 0 then
    inconsistent "not a simulator trace: no phase spans";
  List.iter (check_contiguous sl) !block_order;
  check_flow_ids sl;
  (* Each flow, last id first, onto the block of its source span. *)
  for id = sl.nflows - 1 downto 0 do
    let src = sl.fl_src.(id) in
    if src >= 0 && src < Array.length sl.sp_binst && sl.sp_binst.(src) <> min_int then begin
      let rb = Hashtbl.find blocks sl.sp_binst.(src) in
      rb.rb_edges <-
        {
          Trace.e_src = src - rb.rb_first;
          e_dst = sl.fl_dst.(id) - rb.rb_first;
          e_kind = sl.fl_kind.(id);
        }
        :: rb.rb_edges
    end
  done;
  (* Attribute each block, by its first span in file order, to the
     phase window containing it. *)
  let cursor = ref 0 in
  List.iter
    (fun rb ->
      advance phases cursor rb.rb_ts;
      phases.(!cursor).rp_blocks <-
        (rb.rb_binst, block_rec sl ~track_name rb) :: phases.(!cursor).rp_blocks)
    (List.rev !block_order);
  group_launches (List.rev !launches) (Array.to_list phases)

let of_json doc =
  match Option.bind (Jsonw.member "traceEvents" doc) Jsonw.to_list_opt with
  | None -> Error "not a trace: missing traceEvents array"
  | Some events -> (
      let other k =
        Option.bind (Jsonw.member "otherData" doc) (Jsonw.member k)
      in
      match Option.bind (other "schema") Jsonw.string_opt with
      | Some ("ascend-pod-trace-1" as sc) ->
          Error
            (Printf.sprintf
               "schema %S is a multi-device pod trace, which this build no \
                longer reads"
               sc)
      | _ -> (
          let clock_hz =
            Option.value ~default:1.8e9 (Option.bind (other "clock_hz") Jsonw.number_opt)
          in
          let count k = Option.value ~default:(-1) (Option.bind (other k) Jsonw.int_opt) in
          match decode ~spans:(count "spans") ~flows:(count "edges") events with
          | launches -> build ~clock_hz launches
          | exception Inconsistent msg -> Error msg))

(* ------------------------------------------------------------------ *)
(* Reports. *)

let us_of t cycles = cycles /. t.clock_hz *. 1e6

(* The phase span's window in trace microseconds. *)
let window_us p = p.ph_seconds *. 1e6

(* Interval unions: [merge] sorts and coalesces spans into disjoint
   ones; [length] and [intersection] measure them. *)
let merge ivs =
  let rec go acc cur = function
    | [] -> List.rev (match cur with Some iv -> iv :: acc | None -> acc)
    | (s', e') :: tl -> (
        match cur with
        | None -> go acc (Some (s', e')) tl
        | Some (s, e) ->
            if s' <= e then go acc (Some (s, Float.max e e')) tl
            else go ((s, e) :: acc) (Some (s', e')) tl)
  in
  go [] None (List.sort compare ivs)

let length ivs = List.fold_left (fun acc (s, e) -> acc +. (e -. s)) 0.0 ivs

let rec intersection acc a b =
  match (a, b) with
  | [], _ | _, [] -> acc
  | (sa, ea) :: ta, (sb, eb) :: tb ->
      let lo = Float.max sa sb and hi = Float.min ea eb in
      let acc = if hi > lo then acc +. (hi -. lo) else acc in
      if ea < eb then intersection acc ta b else intersection acc a tb

let overlap p =
  let inter = ref 0.0 and denom = ref 0.0 in
  List.iter
    (fun b ->
      let mte = ref [] and compute = ref [] in
      Array.iter
        (fun s ->
          if s.Trace.sp_end > s.Trace.sp_start then
            let iv = (s.Trace.sp_start, s.Trace.sp_end) in
            match s.Trace.sp_queue with
            | "MTE2" | "MTE3" -> mte := iv :: !mte
            | _ -> compute := iv :: !compute)
        b.bk_spans;
      let mte = merge !mte and compute = merge !compute in
      denom := !denom +. Float.min (length mte) (length compute);
      inter := !inter +. intersection 0.0 mte compute)
    p.ph_blocks;
  if !denom <= 0.0 then 0.0 else !inter /. !denom

type summary = {
  engines : (string * float) list;
  bounding : string;
  overlap : float;
}

let summaries t =
  let phases = List.concat_map (fun l -> l.ln_phases) t.launches in
  let iter_spans f p =
    List.iter (fun b -> Array.iter (f b) b.bk_spans) p.ph_blocks
  in
  (* An engine's occupancy is a mean over every track of that name in
     the trace (one per core that ran it). *)
  let tracks = Hashtbl.create 64 in
  List.iter
    (iter_spans (fun b s ->
         Hashtbl.replace tracks (s.Trace.sp_engine, b.bk_core, s.Trace.sp_track) ()))
    phases;
  let n_tracks = Hashtbl.create 32 in
  Hashtbl.iter (fun (name, _, _) () -> tally n_tracks name 1.0) tracks;
  List.map
    (fun p ->
      let busy = Hashtbl.create 16 in
      iter_spans
        (fun _ s -> tally busy s.Trace.sp_engine (us_of t (s.Trace.sp_end -. s.Trace.sp_start)))
        p;
      let dur_us = window_us p in
      let occupancy = Hashtbl.create 16 in
      Hashtbl.iter
        (fun name us ->
          Hashtbl.replace occupancy name
            (if dur_us <= 0.0 then 0.0
             else us /. (dur_us *. Hashtbl.find n_tracks name)))
        busy;
      let engines = sorted_blame occupancy in
      let bounding =
        if p.ph_bound = "bandwidth" then "HBM/L2 bandwidth"
        else match engines with (name, _) :: _ -> name | [] -> "launch overhead"
      in
      (p, { engines; bounding; overlap = overlap p }))
    phases

let pp_summary ppf t =
  let current = ref "" in
  List.iter
    (fun (p, s) ->
      if p.ph_launch <> !current then begin
        current := p.ph_launch;
        Format.fprintf ppf "launch %s@." p.ph_launch
      end;
      Format.fprintf ppf "  phase %d: %.3f us, %s-bound, bounded by %s@."
        p.ph_index (window_us p) p.ph_bound s.bounding;
      match List.filter (fun (_, o) -> o > 0.0005) s.engines with
      | [] -> ()
      | engines ->
          Format.fprintf ppf "    occupancy:";
          List.iter
            (fun (name, occ) ->
              Format.fprintf ppf " %s %.1f%%" name (100.0 *. occ))
            engines;
          Format.fprintf ppf "@.";
          if s.overlap > 0.0005 then
            Format.fprintf ppf "    mte/compute overlap %.1f%%@."
              (100.0 *. s.overlap))
    (summaries t)

let report t =
  let pairs l =
    Jsonw.List
      (List.map
         (fun (k, v) ->
           Jsonw.Obj
             [
               ("name", Jsonw.String k);
               ("cycles", Jsonw.Float v);
               ( "share",
                 Jsonw.Float
                   (if t.total_cycles > 0.0 then v /. t.total_cycles else 0.0)
               );
             ])
         l)
  in
  let phase p =
    Jsonw.Obj
      [
        ("launch", Jsonw.String p.ph_launch);
        ("index", Jsonw.Int p.ph_index);
        ("seconds", Jsonw.Float p.ph_seconds);
        ("compute_seconds", Jsonw.Float p.ph_compute_seconds);
        ("bandwidth_seconds", Jsonw.Float p.ph_bandwidth_seconds);
        ("bound", Jsonw.String p.ph_bound);
        ("gm_bytes", Jsonw.Int p.ph_gm_bytes);
        ("blocks", Jsonw.Int (List.length p.ph_blocks));
        ("bounding_core", Jsonw.Int p.ph_bounding_core);
        ( "cores",
          Jsonw.List
            (List.map
               (fun (c, cy) ->
                 Jsonw.Obj
                   [ ("core", Jsonw.Int c); ("chain_cycles", Jsonw.Float cy) ])
               p.ph_cores) );
      ]
  in
  let launch l =
    Jsonw.Obj
      [
        ("name", Jsonw.String l.ln_name);
        ("cycles", Jsonw.Float l.ln_cycles);
        ("latency_cycles", Jsonw.Float l.ln_latency_cycles);
        ("sync_cycles", Jsonw.Float l.ln_sync_cycles);
        ("phases", Jsonw.List (List.map phase l.ln_phases));
      ]
  in
  Jsonw.Obj
    [
      ("schema", Jsonw.String "ascend-profile-1");
      ("trace_schema", Jsonw.String t.schema);
      ("clock_hz", Jsonw.Float t.clock_hz);
      ("total_cycles", Jsonw.Float t.total_cycles);
      ("total_us", Jsonw.Float (us_of t t.total_cycles));
      ("spans", Jsonw.Int t.spans_total);
      ("edges", Jsonw.Int t.edges_total);
      ("critical_path_spans", Jsonw.Int t.cp_spans);
      ("blame", pairs t.blame);
      ("op_blame", pairs t.op_blame);
      ("queue_blame", pairs t.queue_blame);
      ("launches", Jsonw.List (List.map launch t.launches));
    ]

let pp ppf t =
  Format.fprintf ppf "critical path: %.0f cycles (%.3f us), %d spans on path@."
    t.total_cycles (us_of t t.total_cycles) t.cp_spans;
  Format.fprintf ppf "blame (cycles of end-to-end makespan):@.";
  List.iter
    (fun (name, cy) ->
      if Float.abs cy > 1e-9 then
        Format.fprintf ppf "  %-24s %14.1f  %5.1f%%@." name cy
          (if t.total_cycles > 0.0 then 100.0 *. cy /. t.total_cycles else 0.0))
    t.blame;
  (match t.op_blame with
  | [] -> ()
  | ops ->
      Format.fprintf ppf "top critical-path ops:@.";
      List.iteri
        (fun i (name, cy) ->
          if i < 8 then
            Format.fprintf ppf "  %-24s %14.1f  %5.1f%%@." name cy
              (if t.total_cycles > 0.0 then 100.0 *. cy /. t.total_cycles
               else 0.0))
        ops);
  List.iter
    (fun l ->
      List.iter
        (fun p ->
          Format.fprintf ppf
            "launch %s phase %d: %s-bound, bounding core %d, %d blocks@."
            l.ln_name p.ph_index p.ph_bound p.ph_bounding_core
            (List.length p.ph_blocks))
        l.ln_phases)
    t.launches
