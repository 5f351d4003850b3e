(* Critical-path reconstruction from trace JSON alone.

   The event-timeline engine model ({!Ascend.Block}) records, next to
   every span, the dependency edges that explain its issue time; the
   Chrome export carries them as flow events plus exact cycle
   endpoints (args [c0]/[c1] — the microsecond ts/dur do not round-trip
   to cycles). This module rebuilds the per-block launch DAG from those
   bytes, recomputes every span's issue time as the max end of its
   predecessors (bit-identical to the engine model: [Float.max] over
   non-negative floats is order-independent and the endpoints are the
   very floats the model produced), extracts the critical path and
   per-span slack, and rolls the whole run up into a blame table —
   cycles of end-to-end makespan attributed to each engine, op and
   queue, plus the launch latency, SyncAll and bandwidth terms of the
   phase composition. *)

type span = {
  x_sid : int;
  x_binst : int;
  x_pid : int;
  x_tid : int;
  x_track : string;
  x_queue : string;
  x_op : string;
  x_c0 : float;
  x_c1 : float;
  x_bytes : int;
  x_ts : float; (* file ts (us), for phase attribution *)
}

type edge = { ed_src : int; ed_dst : int; ed_kind : string }

type block = {
  bk_binst : int;
  bk_core : int;
  bk_spans : span array; (* ascending sid = issue (topological) order *)
  bk_edges : edge array;
  bk_cycles : float; (* reconstructed critical-path length (makespan) *)
  bk_cp : int list; (* sids on the critical path, in time order *)
  bk_slack : float array; (* per-span slack, aligned with bk_spans *)
}

type phase = {
  ph_launch : string;
  ph_index : int;
  ph_seconds : float;
  ph_compute_seconds : float;
  ph_bandwidth_seconds : float;
  ph_bound : string;
  ph_dur_us : float; (* the phase span's window length in the file *)
  ph_gm_bytes : int;
  ph_blocks : block list; (* in assembly order *)
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

(* ------------------------------------------------------------------ *)
(* JSON helpers. *)

let member k j = Jsonw.member k j

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
   times), critical-path extraction, backward slack pass. *)

exception Inconsistent of string

let analyze_block ~binst ~core spans edges =
  let n = Array.length spans in
  let lo = if n = 0 then 0 else spans.(0).x_sid in
  let idx sid = sid - lo in
  let in_range sid = sid >= lo && sid < lo + n in
  (* Predecessor / successor adjacency over local indices. *)
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  Array.iter
    (fun e ->
      if not (in_range e.ed_src && in_range e.ed_dst) then
        raise
          (Inconsistent
             (Printf.sprintf "block %d: edge %d->%d outside span range" binst
                e.ed_src e.ed_dst));
      (* The recorder only emits edges in issue order; a backward one
         could close a cycle the critical-path walk would never leave. *)
      if e.ed_src >= e.ed_dst then
        raise
          (Inconsistent
             (Printf.sprintf "block %d: edge %d->%d not in issue order" binst
                e.ed_src e.ed_dst));
      preds.(idx e.ed_dst) <- idx e.ed_src :: preds.(idx e.ed_dst);
      succs.(idx e.ed_src) <- idx e.ed_dst :: succs.(idx e.ed_src))
    edges;
  (* Forward: recomputed issue time must equal the recorded c0 bitwise
     — the reconstruction contract. *)
  for i = 0 to n - 1 do
    let s = spans.(i) in
    let start =
      List.fold_left (fun m p -> Float.max m spans.(p).x_c1) 0.0 preds.(i)
    in
    if not (Float.equal start s.x_c0) then
      raise
        (Inconsistent
           (Printf.sprintf
              "block %d span %d (%s %s): recomputed start %h <> recorded %h"
              binst s.x_sid s.x_track s.x_op start s.x_c0))
  done;
  let makespan =
    Array.fold_left (fun m s -> Float.max m s.x_c1) 0.0 spans
  in
  (* Critical path: walk back from the (deterministically first) span
     achieving the makespan, at each step to the first predecessor
     whose end equals the span's start. The path is temporally
     contiguous: every span starts exactly when its chosen predecessor
     ends, and the root starts at 0. *)
  let sink = ref (-1) in
  for i = n - 1 downto 0 do
    if Float.equal spans.(i).x_c1 makespan then sink := i
  done;
  let cp = ref [] in
  (if n > 0 then
     let cur = ref !sink in
     let continue = ref true in
     while !continue do
       cp := spans.(!cur).x_sid :: !cp;
       let s = spans.(!cur) in
       if s.x_c0 = 0.0 && preds.(!cur) = [] then continue := false
       else begin
         let next =
           List.fold_left
             (fun best p ->
               if Float.equal spans.(p).x_c1 s.x_c0 then
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
    let s = spans.(i) in
    let le =
      List.fold_left
        (fun m j ->
          let d = spans.(j) in
          Float.min m (lat_end.(j) -. (d.x_c1 -. d.x_c0)))
        makespan succs.(i)
    in
    lat_end.(i) <- le;
    slack.(i) <- le -. s.x_c1
  done;
  {
    bk_binst = binst;
    bk_core = core;
    bk_spans = spans;
    bk_edges = edges;
    bk_cycles = makespan;
    bk_cp = !cp;
    bk_slack = slack;
  }

(* ------------------------------------------------------------------ *)
(* Device-trace profile. *)

type raw_phase = {
  rp_launch : string;
  rp_index : int;
  rp_ts : float;
  rp_dur : float;
  rp_seconds : float;
  rp_compute : float;
  rp_bandwidth : float;
  rp_bound : string;
  rp_gm : int;
  mutable rp_binsts : int list; (* newest first *)
}

(* Phase windows and the events are both in file (= time) order, so
   the window holding a start [ts] is found by a cursor that only moves
   forward: past a window once [ts] reaches both its end and the next
   window's start. *)
let eps = 1e-6

let advance phases cursor ts =
  while
    !cursor < Array.length phases - 1
    && ts >= phases.(!cursor).rp_ts +. phases.(!cursor).rp_dur -. eps
    && ts >= phases.(!cursor + 1).rp_ts -. eps
  do
    incr cursor
  done

(* A phase with its blocks (by occurrence, [rp_binsts] newest first)
   and the per-core serial chains they form. *)
let phase_of block rp =
  let blks = List.rev_map block rp.rp_binsts in
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
    ph_launch = rp.rp_launch;
    ph_index = rp.rp_index;
    ph_seconds = rp.rp_seconds;
    ph_compute_seconds = rp.rp_compute;
    ph_bandwidth_seconds = rp.rp_bandwidth;
    ph_bound = rp.rp_bound;
    ph_dur_us = rp.rp_dur;
    ph_gm_bytes = rp.rp_gm;
    ph_blocks = blks;
    ph_cores = cores;
    ph_bounding_core = (if blks = [] then -1 else bounding_core);
  }

(* Events are decoded in one pass over each member list, into local
   refs (no allocation); as with [Jsonw.member], the first occurrence
   of a key counts, and [absent] stands for a missing one. *)
let absent = Jsonw.Obj []
let members_of = function Jsonw.Obj m -> m | _ -> []
let str ~default v = Option.value ~default (Jsonw.string_opt v)
let int ~default v = Option.value ~default (Jsonw.int_opt v)
let num ~default v = Option.value ~default (Jsonw.number_opt v)

(* A span event's profiler args: [Some span] when it carries its sid,
   block occurrence and exact cycle endpoints. *)
let span_of ~pid ~tid ~track ~cat ~name ~ts args =
  let sid = ref absent and binst = ref absent and c0 = ref absent in
  let c1 = ref absent and bytes = ref absent in
  let members = ref (members_of args) in
  while match !members with [] -> false | _ -> true do
    match !members with
    | [] -> ()
    | (k, v) :: rest ->
        (match k with
        | "sid" -> if !sid == absent then sid := v
        | "binst" -> if !binst == absent then binst := v
        | "c0" -> if !c0 == absent then c0 := v
        | "c1" -> if !c1 == absent then c1 := v
        | "bytes" -> if !bytes == absent then bytes := v
        | _ -> ());
        members := rest
  done;
  match
    ( Jsonw.int_opt !sid,
      Jsonw.int_opt !binst,
      Jsonw.number_opt !c0,
      Jsonw.number_opt !c1 )
  with
  | Some sid, Some binst, Some c0, Some c1 ->
      Some
        {
          x_sid = sid;
          x_binst = binst;
          x_pid = pid;
          x_tid = tid;
          x_track = track;
          x_queue = str ~default:"?" cat;
          x_op = str ~default:"?" name;
          x_c0 = c0;
          x_c1 = c1;
          x_bytes = int ~default:0 !bytes;
          x_ts = num ~default:0.0 ts;
        }
  | _ -> None

(* A flow start's args: its src/dst sids and the edge kind. *)
let edge_of args =
  let src = ref absent and dst = ref absent and kind = ref absent in
  let members = ref (members_of args) in
  while match !members with [] -> false | _ -> true do
    match !members with
    | [] -> ()
    | (k, v) :: rest ->
        (match k with
        | "src" -> if !src == absent then src := v
        | "dst" -> if !dst == absent then dst := v
        | "kind" -> if !kind == absent then kind := v
        | _ -> ());
        members := rest
  done;
  match (Jsonw.int_opt !src, Jsonw.int_opt !dst) with
  | Some src, Some dst ->
      Some { ed_src = src; ed_dst = dst; ed_kind = str ~default:"?" !kind }
  | _ -> None

(* Launch and phase spans are few: their args go through [member]. *)
let arg k args = Option.value ~default:absent (Jsonw.member k args)

let of_device_json ~clock_hz events =
  (* One pass: launches, phases (file order = time order), spans with
     profiler args, flow edges. The span's op is its event name; the
     engine (track) name rides on thread_name metadata keyed by (pid,
     tid), which the export writes before any span. *)
  let launches = ref [] in
  let phases = ref [] in
  let spans = ref [] in
  let edges = ref [] in
  let track_names : (int, (int, string) Hashtbl.t) Hashtbl.t = Hashtbl.create 32 in
  let track_name pid tid =
    match Hashtbl.find (Hashtbl.find track_names pid) tid with
    | name -> name
    | exception Not_found -> "?"
  in
  (* A name that arrives after a span was read renames every span at
     the end. *)
  let late_names = ref false in
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
          match (Jsonw.string_opt !cat, Jsonw.int_opt !pid) with
          | Some "launch", _ ->
              launches :=
                ( str ~default:"?" !name,
                  num ~default:0.0 (arg "seconds" args),
                  num ~default:0.0 (arg "latency_cycles" args),
                  num ~default:0.0 (arg "sync_cycles" args),
                  Jsonw.int_opt (arg "phases" args) )
                :: !launches
          | Some "phase", _ ->
              phases :=
                {
                  rp_launch = str ~default:"?" (arg "launch" args);
                  rp_index = int ~default:0 (arg "index" args);
                  rp_ts = num ~default:0.0 !ts;
                  rp_dur = num ~default:0.0 !dur;
                  rp_seconds = num ~default:0.0 (arg "seconds" args);
                  rp_compute = num ~default:0.0 (arg "compute_seconds" args);
                  rp_bandwidth = num ~default:0.0 (arg "bandwidth_seconds" args);
                  rp_bound = str ~default:"compute" (arg "bound" args);
                  rp_gm = int ~default:0 (arg "gm_bytes" args);
                  rp_binsts = [];
                }
                :: !phases
          | _, Some pid when pid > 0 -> (
              let tid = int ~default:0 !tid in
              match
                span_of ~pid ~tid ~track:(track_name pid tid) ~cat:!cat
                  ~name:!name ~ts:!ts args
              with
              | Some s -> spans := s :: !spans
              | None -> ())
          | _ -> ())
      | Jsonw.String "s" -> (
          match edge_of args with Some e -> edges := e :: !edges | None -> ())
      | Jsonw.String "M" when Jsonw.string_opt !name = Some "thread_name" -> (
          match
            ( Jsonw.int_opt !pid,
              Jsonw.int_opt !tid,
              Jsonw.string_opt (arg "name" args) )
          with
          | Some pid, Some tid, Some name ->
              if !spans != [] then late_names := true;
              Hashtbl.replace
                (match Hashtbl.find track_names pid with
                | t -> t
                | exception Not_found ->
                    let t = Hashtbl.create 16 in
                    Hashtbl.add track_names pid t;
                    t)
                tid name
          | _ -> ())
      | _ -> ())
    events;
  let phases = Array.of_list (List.rev !phases) in
  let spans =
    if !late_names then
      List.rev_map (fun s -> { s with x_track = track_name s.x_pid s.x_tid }) !spans
    else List.rev !spans
  in
  let edges = List.rev !edges in
  if Array.length phases = 0 then Error "not a simulator trace: no phase spans"
  else begin
    (* Group spans into blocks and attribute each block (by its first
       span, in ts order — the file is ts-sorted) to the phase window
       containing it. *)
    let by_binst : (int, span list) Hashtbl.t = Hashtbl.create 64 in
    let binst_order = ref [] in
    let cursor = ref 0 in
    List.iter
      (fun s ->
        (match Hashtbl.find_opt by_binst s.x_binst with
        | Some l -> Hashtbl.replace by_binst s.x_binst (s :: l)
        | None ->
            Hashtbl.add by_binst s.x_binst [ s ];
            binst_order := s.x_binst :: !binst_order;
            (* phase attribution by the block's first span *)
            advance phases cursor s.x_ts;
            phases.(!cursor).rp_binsts <-
              s.x_binst :: phases.(!cursor).rp_binsts))
      spans;
    (* Edges grouped by the block of their source sid. *)
    let sid_binst : (int, int) Hashtbl.t = Hashtbl.create 256 in
    List.iter (fun s -> Hashtbl.replace sid_binst s.x_sid s.x_binst) spans;
    let block_edges : (int, edge list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun e ->
        match Hashtbl.find_opt sid_binst e.ed_src with
        | Some b ->
            Hashtbl.replace block_edges b
              (e :: Option.value ~default:[] (Hashtbl.find_opt block_edges b))
        | None -> ())
      edges;
    match
      List.rev_map
        (fun binst ->
          let sp =
            Array.of_list (List.rev (Hashtbl.find by_binst binst))
          in
          Array.sort (fun a b -> Int.compare a.x_sid b.x_sid) sp;
          let ed =
            Array.of_list
              (List.rev (Option.value ~default:[] (Hashtbl.find_opt block_edges binst)))
          in
          analyze_block ~binst ~core:(sp.(0).x_pid - 1) sp ed)
        !binst_order
    with
    | exception Inconsistent msg -> Error msg
    | blocks_rev ->
        let blocks = List.rev blocks_rev in
        let block_tbl = Hashtbl.create 64 in
        List.iter (fun b -> Hashtbl.add block_tbl b.bk_binst b) blocks;
        let phase_list =
          Array.to_list (Array.map (phase_of (Hashtbl.find block_tbl)) phases)
        in
        (* Group phases under their launch occurrences. Both lists are
           in file (= time) order and launches are sequential, so each
           launch owns the next run of phases — exactly the count its
           span advertises. A kernel that re-launches under one name
           (radix passes, the scans inside top-p) must NOT see its
           phases pooled by name: that would repeat every block under
           every same-named occurrence. Traces without the count fall
           back to consuming the maximal run of matching names. *)
        let remaining = ref phase_list in
        let consume_phases name = function
          | Some n ->
              let rec take n acc rest =
                if n = 0 then (List.rev acc, rest)
                else
                  match rest with
                  | [] -> (List.rev acc, [])
                  | p :: tl -> take (n - 1) (p :: acc) tl
              in
              let taken, rest = take n [] !remaining in
              remaining := rest;
              taken
          | None ->
              let rec take acc rest =
                match rest with
                | p :: tl when p.ph_launch = name -> take (p :: acc) tl
                | _ -> (List.rev acc, rest)
              in
              let taken, rest = take [] !remaining in
              remaining := rest;
              taken
        in
        let launch_list =
          List.rev
            (List.fold_left
               (fun acc (name, seconds, latency, sync, nphases) ->
                 {
                   ln_name = name;
                   ln_cycles = seconds *. clock_hz;
                   ln_latency_cycles = latency;
                   ln_sync_cycles = sync;
                   ln_phases = consume_phases name nphases;
                 }
                 :: acc)
               []
               (List.rev !launches))
        in
        (* Blame: decompose the end-to-end makespan. *)
        let blame = Hashtbl.create 32 in
        let op_blame = Hashtbl.create 64 in
        let queue_blame = Hashtbl.create 16 in
        let cp_spans = ref 0 in
        let total = ref 0.0 in
        List.iter
          (fun ln ->
            total := !total +. ln.ln_cycles;
            tally blame "launch latency" ln.ln_latency_cycles;
            let nph = List.length ln.ln_phases in
            if nph > 1 then
              tally blame "sync_all"
                (float_of_int (nph - 1) *. ln.ln_sync_cycles);
            let covered = ref ln.ln_latency_cycles in
            if nph > 1 then
              covered :=
                !covered +. (float_of_int (nph - 1) *. ln.ln_sync_cycles);
            List.iter
              (fun p ->
                let pc = p.ph_seconds *. clock_hz in
                covered := !covered +. pc;
                if p.ph_bound = "bandwidth" then
                  tally blame "HBM/L2 bandwidth" pc
                else begin
                  (* Blame the bounding core's serialised block chain;
                     within each block, its critical-path spans. *)
                  let chain = ref 0.0 in
                  List.iter
                    (fun b ->
                      if b.bk_core = p.ph_bounding_core then begin
                        chain := !chain +. b.bk_cycles;
                        let on_cp = Hashtbl.create 64 in
                        List.iter
                          (fun sid -> Hashtbl.replace on_cp sid ())
                          b.bk_cp;
                        Array.iter
                          (fun s ->
                            if Hashtbl.mem on_cp s.x_sid then begin
                              incr cp_spans;
                              let d = s.x_c1 -. s.x_c0 in
                              tally blame s.x_track d;
                              tally op_blame s.x_op d;
                              tally queue_blame s.x_queue d
                            end)
                          b.bk_spans
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
            spans_total = List.length spans;
            edges_total = List.length edges;
            cp_spans = !cp_spans;
          }
  end

let of_json doc =
  match Option.bind (member "traceEvents" doc) Jsonw.to_list_opt with
  | None -> Error "not a trace: missing traceEvents array"
  | Some events -> (
      let schema =
        Option.bind (member "otherData" doc) (fun o ->
            Option.bind (member "schema" o) Jsonw.string_opt)
      in
      match schema with
      | Some ("ascend-pod-trace-1" as sc) ->
          Error
            (Printf.sprintf
               "schema %S is a multi-device pod trace, which this build no \
                longer reads"
               sc)
      | _ ->
          let clock_hz =
            Option.value ~default:1.8e9
              (Option.bind (member "otherData" doc) (fun o ->
                   Option.bind (member "clock_hz" o) Jsonw.number_opt))
          in
          of_device_json ~clock_hz events)

(* ------------------------------------------------------------------ *)
(* Reports. *)

let us_of t cycles = cycles /. t.clock_hz *. 1e6

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
          if s.x_c1 > s.x_c0 then
            let iv = (s.x_c0, s.x_c1) in
            match s.x_queue with
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
    List.iter (fun b -> Array.iter f b.bk_spans) p.ph_blocks
  in
  (* An engine's occupancy is a mean over every track of that name in
     the trace (one per core that ran it). *)
  let tracks = Hashtbl.create 64 in
  List.iter
    (iter_spans (fun s -> Hashtbl.replace tracks (s.x_track, s.x_pid, s.x_tid) ()))
    phases;
  let n_tracks = Hashtbl.create 32 in
  Hashtbl.iter (fun (name, _, _) () -> tally n_tracks name 1.0) tracks;
  List.map
    (fun p ->
      let busy = Hashtbl.create 16 in
      iter_spans (fun s -> tally busy s.x_track (us_of t (s.x_c1 -. s.x_c0))) p;
      let occupancy = Hashtbl.create 16 in
      Hashtbl.iter
        (fun name us ->
          Hashtbl.replace occupancy name
            (if p.ph_dur_us <= 0.0 then 0.0
             else us /. (p.ph_dur_us *. Hashtbl.find n_tracks name)))
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
        p.ph_index p.ph_dur_us p.ph_bound s.bounding;
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
