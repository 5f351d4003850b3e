type kind = Fault | Death | Retry | Degrade | Checkpoint | Barrier | Info

let kind_to_string = function
  | Fault -> "fault"
  | Death -> "core_death"
  | Retry -> "retry"
  | Degrade -> "degrade"
  | Checkpoint -> "checkpoint"
  | Barrier -> "sync_all"
  | Info -> "info"

type span = {
  sp_id : int;
  sp_block : int;
  sp_track : int;
  sp_engine : string;
  sp_queue : string;
  sp_op : string;
  sp_start : float;
  sp_end : float;
  sp_bytes : int;
}

type edge_kind = Lane | Queue | Group | Await | Join

let edge_kind_to_string = function
  | Lane -> "lane"
  | Queue -> "queue"
  | Group -> "group"
  | Await -> "await"
  | Join -> "join"

let edge_kind_of_string s =
  List.find_opt (fun k -> edge_kind_to_string k = s) [ Lane; Queue; Group; Await; Join ]

type edge = { e_src : int; e_dst : int; e_kind : edge_kind }

type mark = {
  mk_block : int;
  mk_kind : kind;
  mk_name : string;
  mk_cycle : float;
}

type block_rec = {
  b_idx : int;
  b_core : int;
  b_cycles : float;
  b_spans : span list;
  b_edges : edge list;
  b_marks : mark list;
}

type phase_rec = { ph_stats : Stats.phase; ph_blocks : block_rec list }

type launch_rec = {
  ln_name : string;
  ln_seconds : float;
  ln_latency_cycles : float;
  ln_sync_cycles : float;
  ln_phases : phase_rec list;
}

type item = Launch of launch_rec | Note of kind * string

type t = {
  clock_hz : float;
  mutable items : item list; (* newest first *)
  mutable spans : int;
  mutable edges : int;
  mutable marks : int;
  mutable notes : int;
}

let create ?clock_hz () =
  let clock_hz =
    match clock_hz with
    | Some hz -> hz
    | None -> Cost_model.default.Cost_model.clock_hz
  in
  {
    clock_hz;
    items = [];
    spans = 0;
    edges = 0;
    marks = 0;
    notes = 0;
  }

let clock_hz t = t.clock_hz
let span_count t = t.spans
let edge_count t = t.edges
let mark_count t = t.marks
let event_count t = t.spans + t.marks + t.notes

let launches t =
  List.rev
    (List.filter_map (function Launch l -> Some l | Note _ -> None) t.items)

module Block_builder = struct
  type b = {
    idx : int;
    core : int;
    mutable rspans : span list; (* newest first *)
    mutable redges : edge list; (* newest first *)
    mutable rmarks : mark list;
    mutable next_id : int;
  }

  let span b ~track ~engine ~queue ~op ~start ~cycles ~bytes =
    let id = b.next_id in
    b.next_id <- id + 1;
    b.rspans <-
      {
        sp_id = id;
        sp_block = b.idx;
        sp_track = track;
        sp_engine = engine;
        sp_queue = queue;
        sp_op = op;
        sp_start = start;
        sp_end = start +. cycles;
        sp_bytes = bytes;
      }
      :: b.rspans;
    id

  let edge b ~kind ~src ~dst =
    if src >= 0 && dst >= 0 && src <> dst then
      b.redges <- { e_src = src; e_dst = dst; e_kind = kind } :: b.redges

  let mark b kind ~name ~cycle =
    b.rmarks <-
      { mk_block = b.idx; mk_kind = kind; mk_name = name; mk_cycle = cycle }
      :: b.rmarks

  let finish b ~cycles =
    {
      b_idx = b.idx;
      b_core = b.core;
      b_cycles = cycles;
      b_spans = List.rev b.rspans;
      b_edges = List.rev b.redges;
      b_marks = List.rev b.rmarks;
    }
end

let block_builder ~idx ~core =
  { Block_builder.idx; core; rspans = []; redges = []; rmarks = []; next_id = 0 }

let record_launch t ~name ~seconds ~latency_cycles ~sync_cycles ~phases =
  let phases =
    List.map (fun (ph, blocks) -> { ph_stats = ph; ph_blocks = blocks }) phases
  in
  List.iter
    (fun p ->
      List.iter
        (fun b ->
          t.spans <- t.spans + List.length b.b_spans;
          t.edges <- t.edges + List.length b.b_edges;
          t.marks <- t.marks + List.length b.b_marks)
        p.ph_blocks)
    phases;
  t.items <-
    Launch
      {
        ln_name = name;
        ln_seconds = seconds;
        ln_latency_cycles = latency_cycles;
        ln_sync_cycles = sync_cycles;
        ln_phases = phases;
      }
    :: t.items

let note t kind ~name =
  t.notes <- t.notes + 1;
  t.items <- Note (kind, name) :: t.items

(* Invariants: spans on one (block, engine-track) carry real event-
   timeline issue times from {!Block.charge}/[charge_async]. An engine
   is an in-order queue, so per track the spans are monotone and never
   overlap — each starts at or after the previous one's end (gaps are
   stalls where the lane waited on another engine). Tracks of the same
   block DO overlap each other; that is the pipelining the model
   exists to express. An overlap within one track means recording and
   queue accounting have diverged. *)
let check t =
  let eps = 1e-9 in
  let bad = ref None in
  let fail fmt = Format.kasprintf (fun s -> bad := Some s) fmt in
  let check_block ln b =
    (* last seen end per engine track *)
    let tracks = Hashtbl.create 8 in
    List.iter
      (fun s ->
        if !bad = None then begin
          if s.sp_end < s.sp_start -. eps then
            fail "launch %s block %d %s: span %s has negative duration" ln
              b.b_idx s.sp_engine s.sp_op;
          match Hashtbl.find_opt tracks s.sp_track with
          | Some prev_end when s.sp_start < prev_end -. eps ->
              fail
                "launch %s block %d %s: span %s starts at %.3f before track \
                 end %.3f"
                ln b.b_idx s.sp_engine s.sp_op s.sp_start prev_end
          | _ -> Hashtbl.replace tracks s.sp_track s.sp_end
        end)
      b.b_spans;
    Hashtbl.iter
      (fun _ last ->
        if !bad = None && last > b.b_cycles +. eps then
          fail "launch %s block %d: engine track ends at %.3f after block \
                elapsed %.3f"
            ln b.b_idx last b.b_cycles)
      tracks;
    (* Dependency edges must fully explain every span's issue time: a
       span starts exactly (bitwise — Float.max over non-negative ends
       is order-independent) at the max end of its edge predecessors,
       0.0 with none. This is the contract the critical-path profiler
       rebuilds the timeline from. *)
    let by_id = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.replace by_id s.sp_id s) b.b_spans;
    let preds = Hashtbl.create 64 in
    List.iter
      (fun e ->
        if !bad = None then begin
          if not (Hashtbl.mem by_id e.e_src) then
            fail "launch %s block %d: edge source span %d not recorded" ln
              b.b_idx e.e_src
          else if not (Hashtbl.mem by_id e.e_dst) then
            fail "launch %s block %d: edge target span %d not recorded" ln
              b.b_idx e.e_dst
          else if e.e_src >= e.e_dst then
            fail "launch %s block %d: edge %d -> %d not in issue order" ln
              b.b_idx e.e_src e.e_dst;
          Hashtbl.add preds e.e_dst e.e_src
        end)
      b.b_edges;
    List.iter
      (fun s ->
        if !bad = None then
          let start =
            List.fold_left
              (fun m src ->
                match Hashtbl.find_opt by_id src with
                | Some p -> Float.max m p.sp_end
                | None -> m)
              0.0
              (Hashtbl.find_all preds s.sp_id)
          in
          if not (Float.equal start s.sp_start) then
            fail
              "launch %s block %d %s: span %d (%s) starts at %h but its edge \
               predecessors end at %h"
              ln b.b_idx s.sp_engine s.sp_id s.sp_op s.sp_start start)
      b.b_spans
  in
  List.iter
    (function
      | Note _ -> ()
      | Launch l ->
          List.iter
            (fun p -> List.iter (check_block l.ln_name) p.ph_blocks)
            l.ln_phases)
    t.items;
  match !bad with None -> Ok () | Some msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Assembly: compute the global timeline in simulated cycles.          *)

type arg = I of int | F of float | S of string | B of bool

type placed = {
  p_pid : int;
  p_tid : int;
  p_tname : string;
  p_name : string;
  p_cat : string;
  p_ts : float;
  p_dur : float option;
  p_args : (string * arg) list;
}

(* Device-level track ids (pid 0). *)
let device_timeline_tid = 0
let device_events_tid = 1

(* Per-core instant track sits after the engine tracks. *)
let core_events_tid = 1000

let assemble t =
  let out = ref [] in
  let emit e = out := e :: !out in
  let cursor = ref 0.0 in
  (* Global counters for the profiler-facing identities: every placed
     span gets a trace-unique [sid], every placed block occurrence a
     [binst] (the grouping key of the per-block dependency DAG), every
     flow a trace-unique id. All three are assigned in assembly order,
     which is deterministic. *)
  let next_sid = ref 0 in
  let next_binst = ref 0 in
  let next_flow = ref 0 in
  let seconds_to_cycles s = s *. t.clock_hz in
  let place_launch l =
    let launch_start = !cursor in
    let launch_cycles = seconds_to_cycles l.ln_seconds in
    emit
      {
        p_pid = 0;
        p_tid = device_timeline_tid;
        p_tname = "timeline";
        p_name = l.ln_name;
        p_cat = "launch";
        p_ts = launch_start;
        p_dur = Some launch_cycles;
        p_args =
          [
            ("seconds", F l.ln_seconds);
            ("phases", I (List.length l.ln_phases));
            ("latency_cycles", F l.ln_latency_cycles);
            ("sync_cycles", F l.ln_sync_cycles);
          ];
      };
    (* Phases start after the launch latency and are separated by
       SyncAll barriers. *)
    let ph_cursor = ref (launch_start +. l.ln_latency_cycles) in
    List.iteri
      (fun i p ->
        let st = p.ph_stats in
        if i > 0 then begin
          emit
            {
              p_pid = 0;
              p_tid = device_events_tid;
              p_tname = "events";
              p_name = "sync_all";
              p_cat = kind_to_string Barrier;
              p_ts = !ph_cursor;
              p_dur = None;
              p_args = [ ("launch", S l.ln_name) ];
            };
          ph_cursor := !ph_cursor +. l.ln_sync_cycles
        end;
        let phase_start = !ph_cursor in
        let phase_cycles = seconds_to_cycles st.Stats.seconds in
        let bound = if st.Stats.bandwidth_bound then "bandwidth" else "compute" in
        emit
          {
            p_pid = 0;
            p_tid = device_timeline_tid;
            p_tname = "timeline";
            p_name = l.ln_name ^ "/phase" ^ string_of_int i;
            p_cat = "phase";
            p_ts = phase_start;
            p_dur = Some phase_cycles;
            p_args =
              [
                ("launch", S l.ln_name);
                ("index", I i);
                ("seconds", F st.Stats.seconds);
                ("compute_seconds", F st.Stats.compute_seconds);
                ("bandwidth_seconds", F st.Stats.bandwidth_seconds);
                ("bound", S bound);
                ("gm_bytes", I st.Stats.gm_bytes);
                ("footprint_bytes", I st.Stats.footprint_bytes);
              ];
          };
        (* Blocks of one core serialise in block order; distinct cores
           overlap. Per-core cursors start at the phase start. *)
        let core_cursor = Hashtbl.create 32 in
        List.iter
          (fun b ->
            let start =
              match Hashtbl.find_opt core_cursor b.b_core with
              | Some c -> c
              | None -> phase_start
            in
            Hashtbl.replace core_cursor b.b_core (start +. b.b_cycles);
            let pid = b.b_core + 1 in
            let binst = !next_binst in
            incr next_binst;
            (* Local span id -> global sid and span, for this block
               occurrence; edges then resolve through it. Local ids
               count up from 0 per block, so arrays index them. *)
            let ids =
              List.fold_left (fun m s -> max m (s.sp_id + 1)) 0 b.b_spans
            in
            let sids = Array.make ids (-1) in
            let by_id = Array.make ids None in
            (* Args every span of the block carries, built once. *)
            let block_arg = ("block", I b.b_idx) and binst_arg = ("binst", I binst) in
            List.iter
              (fun s ->
                let sid = !next_sid in
                incr next_sid;
                sids.(s.sp_id) <- sid;
                by_id.(s.sp_id) <- Some s;
                emit
                  {
                    p_pid = pid;
                    p_tid = s.sp_track;
                    p_tname = s.sp_engine;
                    p_name = s.sp_op;
                    p_cat = s.sp_queue;
                    p_ts = start +. s.sp_start;
                    p_dur = Some (s.sp_end -. s.sp_start);
                    p_args =
                      ((if s.sp_block = b.b_idx then block_arg
                        else ("block", I s.sp_block))
                      :: ("sid", I sid)
                      :: binst_arg
                      :: ("c0", F s.sp_start)
                      :: ("c1", F s.sp_end)
                      ::
                      (if s.sp_bytes > 0 then [ ("bytes", I s.sp_bytes) ]
                       else []));
                  })
              b.b_spans;
            (* Dependency edges as paired flow points: one at the source
               span's end on its track, one at the target's start on
               its. The Chrome writer turns them into ph "s"/"f" flow
               events; the profiler reads src/dst sids directly. *)
            List.iter
              (fun e ->
                let find id = if id >= 0 && id < ids then by_id.(id) else None in
                match (find e.e_src, find e.e_dst) with
                | Some src, Some dst ->
                    let src_sid = sids.(e.e_src) and dst_sid = sids.(e.e_dst) in
                    let fid = !next_flow in
                    incr next_flow;
                    let args =
                      [
                        ("id", I fid);
                        ("kind", S (edge_kind_to_string e.e_kind));
                        ("src", I src_sid);
                        ("dst", I dst_sid);
                      ]
                    in
                    emit
                      {
                        p_pid = pid;
                        p_tid = src.sp_track;
                        p_tname = src.sp_engine;
                        p_name = edge_kind_to_string e.e_kind;
                        p_cat = "flow_out";
                        p_ts = start +. src.sp_end;
                        p_dur = None;
                        p_args = args;
                      };
                    emit
                      {
                        p_pid = pid;
                        p_tid = dst.sp_track;
                        p_tname = dst.sp_engine;
                        p_name = edge_kind_to_string e.e_kind;
                        p_cat = "flow_in";
                        p_ts = start +. dst.sp_start;
                        p_dur = None;
                        p_args = args;
                      }
                | _ -> ())
              b.b_edges;
            List.iter
              (fun m ->
                (* Clamp into the block window: a death mark carries the
                   cycle position at which the threshold tripped, which
                   the block's elapsed time already includes. *)
                let c = Float.min m.mk_cycle b.b_cycles in
                emit
                  {
                    p_pid = pid;
                    p_tid = core_events_tid;
                    p_tname = "events";
                    p_name = m.mk_name;
                    p_cat = kind_to_string m.mk_kind;
                    p_ts = start +. c;
                    p_dur = None;
                    p_args = [ ("block", I m.mk_block) ];
                  })
              b.b_marks)
          p.ph_blocks;
        ph_cursor := phase_start +. phase_cycles)
      l.ln_phases;
    cursor := launch_start +. launch_cycles
  in
  List.iter
    (function
      | Launch l -> place_launch l
      | Note (kind, name) ->
          emit
            {
              p_pid = 0;
              p_tid = device_events_tid;
              p_tname = "events";
              p_name = name;
              p_cat = kind_to_string kind;
              p_ts = !cursor;
              p_dur = None;
              p_args = [];
            })
    (List.rev t.items);
  List.stable_sort
    (fun a b ->
      let c = Float.compare a.p_ts b.p_ts in
      if c <> 0 then c
      else
        let c = Int.compare a.p_pid b.p_pid in
        if c <> 0 then c
        else
          let c = Int.compare a.p_tid b.p_tid in
          if c <> 0 then c else String.compare a.p_name b.p_name)
    (List.rev !out)
