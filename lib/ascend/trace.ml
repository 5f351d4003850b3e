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

let edge_kind_of_string = function
  | "lane" -> Some Lane
  | "queue" -> Some Queue
  | "group" -> Some Group
  | "await" -> Some Await
  | "join" -> Some Join
  | _ -> None

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

let items t = List.rev t.items

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
   queue accounting have diverged.

   {!Block_builder.span} numbers a block's spans 0..n-1 in issue
   order, so a span's id is its position and per-span state lives in
   arrays indexed by it; tracks are engine indices, small and dense. *)
let check t =
  let eps = 1e-9 in
  let bad = ref None in
  let fail fmt = Format.kasprintf (fun s -> bad := Some s) fmt in
  let check_block ln b =
    let spans = Array.of_list b.b_spans in
    let n = Array.length spans in
    let recorded id = id >= 0 && id < n && spans.(id).sp_id = id in
    (* Last end per engine track; [neg_infinity] until its first span. *)
    let track_end =
      Array.make (Array.fold_left (fun m s -> max m (s.sp_track + 1)) 0 spans) neg_infinity
    in
    Array.iter
      (fun s ->
        if !bad = None then begin
          if s.sp_end < s.sp_start -. eps then
            fail "launch %s block %d %s: span %s has negative duration" ln
              b.b_idx s.sp_engine s.sp_op;
          let prev_end = track_end.(s.sp_track) in
          if s.sp_start < prev_end -. eps then
            fail
              "launch %s block %d %s: span %s starts at %.3f before track \
               end %.3f"
              ln b.b_idx s.sp_engine s.sp_op s.sp_start prev_end
          else track_end.(s.sp_track) <- s.sp_end
        end)
      spans;
    Array.iter
      (fun last ->
        if !bad = None && last > b.b_cycles +. eps then
          fail "launch %s block %d: engine track ends at %.3f after block \
                elapsed %.3f"
            ln b.b_idx last b.b_cycles)
      track_end;
    (* Dependency edges must fully explain every span's issue time: a
       span starts exactly (bitwise — Float.max over non-negative ends
       is order-independent) at the max end of its edge predecessors,
       0.0 with none. This is the contract the critical-path profiler
       rebuilds the timeline from. *)
    let pred_end = Array.make n 0.0 in
    List.iter
      (fun e ->
        if !bad = None then
          if not (recorded e.e_src) then
            fail "launch %s block %d: edge source span %d not recorded" ln
              b.b_idx e.e_src
          else if not (recorded e.e_dst) then
            fail "launch %s block %d: edge target span %d not recorded" ln
              b.b_idx e.e_dst
          else if e.e_src >= e.e_dst then
            fail "launch %s block %d: edge %d -> %d not in issue order" ln
              b.b_idx e.e_src e.e_dst
          else pred_end.(e.e_dst) <- Float.max pred_end.(e.e_dst) spans.(e.e_src).sp_end)
      b.b_edges;
    Array.iteri
      (fun i s ->
        if !bad = None && not (Float.equal pred_end.(i) s.sp_start) then
          fail
            "launch %s block %d %s: span %d (%s) starts at %h but its edge \
             predecessors end at %h"
            ln b.b_idx s.sp_engine s.sp_id s.sp_op s.sp_start pred_end.(i))
      spans
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
