module Trace = Ascend.Trace
module Stats = Ascend.Stats

(* The export is one fold over the recorder's items in recording
   order. Per event it stores a sort key (position in cycles, packed
   track, name) and a tag naming the record it comes from, in flat
   arrays sized from the recorder's counts; a stable sort of the event
   indices by key fixes the output order, and each event is then
   written from its record straight into the buffer. *)

(* A little over the mean size of a span event with its cycle args. *)
let bytes_per_event = 200

(* The device process (pid 0) has the launch/phase timeline and the
   global instants; a core's process one track per engine index, then
   its instants. *)
let timeline_tid = 0
let device_events_tid = 1
let core_events_tid = 1000

(* Track keys: (pid, tid) packed into one int, ordered as the pair
   (tids, engine indices and the events track, are below 2^24). *)
let track_key pid tid = (pid lsl 24) lor tid
let key_pid k = k lsr 24
let key_tid k = k land 0xFFFFFF

(* A tag is a class in its low 3 bits and, above them, the index of
   the event's record in that class's table: a span's sid, a flow's
   id, a mark's or a device event's position. *)
let c_span = 0
let c_flow_out = 1
let c_flow_in = 2
let c_mark = 3
let c_device = 4

type device_event =
  | Launch_span of Trace.launch_rec
  | Phase_span of string * int * Stats.phase  (** Launch name, index. *)
  | Sync_all of string  (** Launch name. *)
  | Note of Trace.kind

type events = {
  mutable n : int;
  ts : float array;  (** Global position, cycles. *)
  track : int array;  (** [track_key pid tid]. *)
  name : string array;
  tag : int array;
  spans : Trace.span array;  (** By sid. *)
  binst : int array;  (** By sid: its block occurrence. *)
  edges : Trace.edge array;  (** By flow id. *)
  base : int array;  (** By flow id: the sid of its block's span 0. *)
  marks : Trace.mark array;
  mutable device : device_event list;  (** Newest first. *)
  mutable nspans : int;
  mutable nflows : int;
  mutable nmarks : int;
  mutable ndevice : int;
  mutable nbinst : int;
}

let no_span =
  {
    Trace.sp_id = 0;
    sp_block = 0;
    sp_track = 0;
    sp_engine = "";
    sp_queue = "";
    sp_op = "";
    sp_start = 0.0;
    sp_end = 0.0;
    sp_bytes = 0;
  }

let no_edge = { Trace.e_src = 0; e_dst = 0; e_kind = Trace.Lane }
let no_mark = { Trace.mk_block = 0; mk_kind = Trace.Info; mk_name = ""; mk_cycle = 0.0 }

let[@inline] push ev ts pid tid name tag =
  let i = ev.n in
  ev.ts.(i) <- ts;
  ev.track.(i) <- track_key pid tid;
  ev.name.(i) <- name;
  ev.tag.(i) <- tag;
  ev.n <- i + 1

let push_device ev ts tid name d =
  push ev ts 0 tid name ((ev.ndevice lsl 3) lor c_device);
  ev.device <- d :: ev.device;
  ev.ndevice <- ev.ndevice + 1

(* One block occurrence starting at [start]: its spans, each edge as a
   flow pair (out at the source's end, in at the target's start), then
   its marks clamped into the block window (a death mark carries the
   cycle at which the threshold tripped, which the block's elapsed
   time already includes). Local span ids are positions, so span [i]
   gets sid [base + i]. *)
let push_block ev start (b : Trace.block_rec) =
  let pid = b.Trace.b_core + 1 and base = ev.nspans and binst = ev.nbinst in
  ev.nbinst <- binst + 1;
  List.iter
    (fun (s : Trace.span) ->
      let sid = ev.nspans in
      ev.spans.(sid) <- s;
      ev.binst.(sid) <- binst;
      ev.nspans <- sid + 1;
      push ev (start +. s.Trace.sp_start) pid s.Trace.sp_track s.Trace.sp_op
        ((sid lsl 3) lor c_span))
    b.Trace.b_spans;
  let nspans = ev.nspans - base in
  List.iter
    (fun (e : Trace.edge) ->
      let src = e.Trace.e_src and dst = e.Trace.e_dst in
      if src >= 0 && src < nspans && dst >= 0 && dst < nspans then begin
        let fid = ev.nflows in
        ev.edges.(fid) <- e;
        ev.base.(fid) <- base;
        ev.nflows <- fid + 1;
        let src = ev.spans.(base + src) and dst = ev.spans.(base + dst) in
        let name = Trace.edge_kind_to_string e.Trace.e_kind in
        push ev (start +. src.Trace.sp_end) pid src.Trace.sp_track name
          ((fid lsl 3) lor c_flow_out);
        push ev (start +. dst.Trace.sp_start) pid dst.Trace.sp_track name
          ((fid lsl 3) lor c_flow_in)
      end)
    b.Trace.b_edges;
  List.iter
    (fun (m : Trace.mark) ->
      let i = ev.nmarks in
      ev.marks.(i) <- m;
      ev.nmarks <- i + 1;
      push ev
        (start +. Float.min m.Trace.mk_cycle b.Trace.b_cycles)
        pid core_events_tid m.Trace.mk_name ((i lsl 3) lor c_mark))
    b.Trace.b_marks

(* A launch at [cursor]: its phases follow the launch latency,
   separated by SyncAll instants; in a phase the blocks of one core
   serialise in block order and distinct cores overlap. Returns the
   launch's end. *)
let push_launch ev ~clock_hz cursor (l : Trace.launch_rec) =
  push_device ev cursor timeline_tid l.Trace.ln_name (Launch_span l);
  let ph_cursor = ref (cursor +. l.Trace.ln_latency_cycles) in
  List.iteri
    (fun i (p : Trace.phase_rec) ->
      if i > 0 then begin
        push_device ev !ph_cursor device_events_tid "sync_all" (Sync_all l.Trace.ln_name);
        ph_cursor := !ph_cursor +. l.Trace.ln_sync_cycles
      end;
      let phase_start = !ph_cursor in
      let st = p.Trace.ph_stats in
      push_device ev phase_start timeline_tid
        (l.Trace.ln_name ^ "/phase" ^ string_of_int i)
        (Phase_span (l.Trace.ln_name, i, st));
      let core_cursor = Hashtbl.create 32 in
      List.iter
        (fun (b : Trace.block_rec) ->
          let start =
            match Hashtbl.find_opt core_cursor b.Trace.b_core with
            | Some c -> c
            | None -> phase_start
          in
          Hashtbl.replace core_cursor b.Trace.b_core (start +. b.Trace.b_cycles);
          push_block ev start b)
        p.Trace.ph_blocks;
      ph_cursor := phase_start +. (st.Stats.seconds *. clock_hz))
    l.Trace.ln_phases;
  cursor +. (l.Trace.ln_seconds *. clock_hz)

let fold tr =
  let items = Trace.items tr in
  let ndevice =
    List.fold_left
      (fun acc -> function
        | Trace.Launch l -> acc + 1 + (2 * List.length l.Trace.ln_phases)
        | Trace.Note _ -> acc + 1)
      0 items
  in
  let spans = Trace.span_count tr and edges = Trace.edge_count tr in
  let marks = Trace.mark_count tr in
  let cap = spans + (2 * edges) + marks + ndevice in
  let ev =
    {
      n = 0;
      ts = Array.create_float cap;
      track = Array.make cap 0;
      name = Array.make cap "";
      tag = Array.make cap 0;
      spans = Array.make spans no_span;
      binst = Array.make spans 0;
      edges = Array.make edges no_edge;
      base = Array.make edges 0;
      marks = Array.make marks no_mark;
      device = [];
      nspans = 0;
      nflows = 0;
      nmarks = 0;
      ndevice = 0;
      nbinst = 0;
    }
  in
  let clock_hz = Trace.clock_hz tr in
  ignore
    (List.fold_left
       (fun cursor -> function
         | Trace.Launch l -> push_launch ev ~clock_hz cursor l
         | Trace.Note (kind, name) ->
             push_device ev cursor device_events_tid name (Note kind);
             cursor)
       0.0 items);
  ev

(* The event indices in output order: (ts, pid, tid, name), ties in
   recording order. *)
let order ev =
  let ts = ev.ts and track = ev.track and name = ev.name in
  let idx = Array.init ev.n Fun.id in
  Array.stable_sort
    (fun i j ->
      let c = Float.compare ts.(i) ts.(j) in
      if c <> 0 then c
      else
        let c = Int.compare track.(i) track.(j) in
        if c <> 0 then c else String.compare name.(i) name.(j))
    idx;
  idx

(* The label of event [i]'s track. *)
let track_name ev device i =
  let tag = ev.tag.(i) in
  let k = tag lsr 3 and cls = tag land 7 in
  if cls = c_span then ev.spans.(k).Trace.sp_engine
  else if cls = c_flow_out then
    ev.spans.(ev.base.(k) + ev.edges.(k).Trace.e_src).Trace.sp_engine
  else if cls = c_flow_in then
    ev.spans.(ev.base.(k) + ev.edges.(k).Trace.e_dst).Trace.sp_engine
  else if cls = c_mark then "events"
  else
    match device.(k) with
    | Launch_span _ | Phase_span _ -> "timeline"
    | Sync_all _ | Note _ -> "events"

(* Fixed keys and constant values are written as pre-escaped literals:
   [{"name":] opens an event, [,"k":] adds a member. *)
let metadata buf ~name ~pid ?tid key write value =
  Buffer.add_string buf {|{"name":"|};
  Buffer.add_string buf name;
  Buffer.add_string buf {|","ph":"M","pid":|};
  Jsonw.write_int buf pid;
  Option.iter
    (fun tid ->
      Buffer.add_string buf {|,"tid":|};
      Jsonw.write_int buf tid)
    tid;
  Buffer.add_string buf {|,"args":{"|};
  Buffer.add_string buf key;
  Buffer.add_string buf {|":|};
  write buf value;
  Buffer.add_string buf "}},"

let cat buf c =
  Buffer.add_string buf {|,"cat":|};
  Jsonw.write_string buf c

let field buf key v =
  Buffer.add_string buf key;
  Jsonw.write_float buf v

let int_field buf key v =
  Buffer.add_string buf key;
  Jsonw.write_int buf v

(* Simulated cycles as trace microseconds. *)
let[@inline] us ~clock cycles = cycles /. clock *. 1e6

(* ,"pid":P,"tid":T,"ts":TS of event [i]. *)
let place buf ev ~clock i =
  let key = ev.track.(i) in
  int_field buf {|,"pid":|} (key_pid key);
  int_field buf {|,"tid":|} (key_tid key);
  field buf {|,"ts":|} (us ~clock ev.ts.(i))

(* Event [i], from the record its tag points at. Every event but a
   note closes an args object. *)

let write_event buf ev device ~clock i =
  let tag = ev.tag.(i) in
  let k = tag lsr 3 and cls = tag land 7 in
  Buffer.add_string buf {|{"name":|};
  Jsonw.write_string buf ev.name.(i);
  if cls = c_span then begin
    let s = ev.spans.(k) in
    cat buf s.Trace.sp_queue;
    Buffer.add_string buf {|,"ph":"X"|};
    place buf ev ~clock i;
    field buf {|,"dur":|} (us ~clock (s.Trace.sp_end -. s.Trace.sp_start));
    int_field buf {|,"args":{"block":|} s.Trace.sp_block;
    int_field buf {|,"sid":|} k;
    int_field buf {|,"binst":|} ev.binst.(k);
    field buf {|,"c0":|} s.Trace.sp_start;
    field buf {|,"c1":|} s.Trace.sp_end;
    if s.Trace.sp_bytes > 0 then int_field buf {|,"bytes":|} s.Trace.sp_bytes;
    Buffer.add_char buf '}'
  end
  else if cls = c_flow_out || cls = c_flow_in then begin
    (* Dependency edges ride the Perfetto flow-event pair: ph "s" at
       the source span's end, ph "f" (binding to the enclosing slice's
       end) at the target's start, correlated by the numeric id. *)
    let e = ev.edges.(k) and base = ev.base.(k) in
    int_field buf
      (if cls = c_flow_in then {|,"cat":"flow","ph":"f","bp":"e","id":|}
       else {|,"cat":"flow","ph":"s","id":|})
      k;
    place buf ev ~clock i;
    int_field buf {|,"args":{"id":|} k;
    Buffer.add_string buf {|,"kind":|};
    Jsonw.write_string buf ev.name.(i);
    int_field buf {|,"src":|} (base + e.Trace.e_src);
    int_field buf {|,"dst":|} (base + e.Trace.e_dst);
    Buffer.add_char buf '}'
  end
  else if cls = c_mark then begin
    let m = ev.marks.(k) in
    cat buf (Trace.kind_to_string m.Trace.mk_kind);
    Buffer.add_string buf {|,"ph":"i","s":"p"|};
    place buf ev ~clock i;
    int_field buf {|,"args":{"block":|} m.Trace.mk_block;
    Buffer.add_char buf '}'
  end
  else begin
    match device.(k) with
    | Launch_span l ->
        Buffer.add_string buf {|,"cat":"launch","ph":"X"|};
        place buf ev ~clock i;
        field buf {|,"dur":|} (us ~clock (l.Trace.ln_seconds *. clock));
        field buf {|,"args":{"seconds":|} l.Trace.ln_seconds;
        int_field buf {|,"phases":|} (List.length l.Trace.ln_phases);
        field buf {|,"latency_cycles":|} l.Trace.ln_latency_cycles;
        field buf {|,"sync_cycles":|} l.Trace.ln_sync_cycles;
        Buffer.add_char buf '}'
    | Phase_span (launch, index, st) ->
        Buffer.add_string buf {|,"cat":"phase","ph":"X"|};
        place buf ev ~clock i;
        field buf {|,"dur":|} (us ~clock (st.Stats.seconds *. clock));
        Buffer.add_string buf {|,"args":{"launch":|};
        Jsonw.write_string buf launch;
        int_field buf {|,"index":|} index;
        field buf {|,"seconds":|} st.Stats.seconds;
        field buf {|,"compute_seconds":|} st.Stats.compute_seconds;
        field buf {|,"bandwidth_seconds":|} st.Stats.bandwidth_seconds;
        Buffer.add_string buf
          (if st.Stats.bandwidth_bound then {|,"bound":"bandwidth"|}
           else {|,"bound":"compute"|});
        int_field buf {|,"gm_bytes":|} st.Stats.gm_bytes;
        int_field buf {|,"footprint_bytes":|} st.Stats.footprint_bytes;
        Buffer.add_char buf '}'
    | Sync_all launch ->
        Buffer.add_string buf {|,"cat":"sync_all","ph":"i","s":"p"|};
        place buf ev ~clock i;
        Buffer.add_string buf {|,"args":{"launch":|};
        Jsonw.write_string buf launch;
        Buffer.add_char buf '}'
    | Note kind ->
        cat buf (Trace.kind_to_string kind);
        Buffer.add_string buf {|,"ph":"i","s":"p"|};
        place buf ev ~clock i
  end;
  Buffer.add_string buf "},"

let to_string tr =
  let ev = fold tr in
  let device = Array.of_list (List.rev ev.device) in
  let order = order ev in
  (* Each track is named after its first event in output order. *)
  let tracks = Hashtbl.create 64 and last = ref (-1) in
  Array.iter
    (fun i ->
      let key = ev.track.(i) in
      if key <> !last then begin
        last := key;
        if not (Hashtbl.mem tracks key) then
          Hashtbl.add tracks key (track_name ev device i)
      end)
    order;
  let track_list =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tracks [])
  in
  let pids = List.sort_uniq Int.compare (List.map (fun (k, _) -> key_pid k) track_list) in
  let events = ev.n + (2 * (List.length pids + List.length track_list)) in
  let buf = Buffer.create ((bytes_per_event * events) + 256) in
  let clock = Trace.clock_hz tr in
  Buffer.add_string buf {|{"traceEvents":[|};
  List.iter
    (fun pid ->
      let name = if pid = 0 then "device" else Printf.sprintf "core %d" (pid - 1) in
      metadata buf ~name:"process_name" ~pid "name" Jsonw.write_string name;
      metadata buf ~name:"process_sort_index" ~pid "sort_index" Jsonw.write_int pid)
    pids;
  List.iter
    (fun (key, tname) ->
      let pid = key_pid key and tid = key_tid key in
      metadata buf ~name:"thread_name" ~pid ~tid "name" Jsonw.write_string tname;
      metadata buf ~name:"thread_sort_index" ~pid ~tid "sort_index" Jsonw.write_int tid)
    track_list;
  Array.iter (write_event buf ev device ~clock) order;
  (* Every event above ends in [,]: drop the last one. *)
  if events > 0 then Buffer.truncate buf (Buffer.length buf - 1);
  Buffer.add_string buf {|],"displayTimeUnit":"us","otherData":{|};
  Buffer.add_string buf {|"generator":"ascend-scan-sim","schema":"ascend-trace-1","clock_hz":|};
  Jsonw.write_float buf clock;
  int_field buf {|,"spans":|} (Trace.span_count tr);
  int_field buf {|,"instants":|} (Trace.mark_count tr);
  int_field buf {|,"edges":|} (Trace.edge_count tr);
  Buffer.add_string buf {|,"dropped":0}}|};
  Buffer.contents buf

let json tr =
  match Jsonw.parse (to_string tr) with
  | Ok doc -> doc
  | Error e -> failwith ("Chrome_trace.json: export does not parse: " ^ e)

type counts = {
  events : int;
  spans : int;
  instants : int;
  flows : int;  (** Matched ph "s"/"f" pairs (dependency edges). *)
  processes : int;
}

(* [Jsonw.int_opt] and [number_opt] split into a test and a read, so
   that checking an event allocates nothing. *)
let is_int = function
  | Jsonw.Int _ -> true
  | Jsonw.Float f -> Float.is_integer f
  | _ -> false

let int_of = function Jsonw.Int i -> i | Jsonw.Float f -> int_of_float f | _ -> 0
let is_num = function Jsonw.Int _ | Jsonw.Float _ -> true | _ -> false

let[@inline] num_of = function
  | Jsonw.Int i -> float_of_int i
  | Jsonw.Float f -> f
  | _ -> 0.0

let is_string = function Jsonw.String _ -> true | _ -> false

(* Stands for a missing member; no accessor accepts it. *)
let absent = Jsonw.Obj []

let find_or_add tbl k make =
  match Hashtbl.find tbl k with
  | v -> v
  | exception Not_found ->
      let v = make () in
      Hashtbl.add tbl k v;
      v

let validate doc =
  let ( let* ) r f = Result.bind r f in
  let* events =
    match Option.bind (Jsonw.member "traceEvents" doc) Jsonw.to_list_opt with
    | Some l -> Ok l
    | None -> Error "missing traceEvents array"
  in
  (* Complete events sharing a track form a stack in the Chrome trace
     model: a span may start inside the previous one only if it also
     ends inside it (proper nesting — e.g. phase spans under their
     launch span on the device timeline). Partial overlap is the
     corruption this check exists to catch. *)
  let module Track = struct
    type t = { mutable stack : float list; mutable last_ts : float }
  end in
  (* pid -> tid -> track *)
  let tracks : (int, (int, Track.t) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let track pid tid =
    find_or_add
      (find_or_add tracks pid (fun () -> Hashtbl.create 16))
      tid
      (fun () -> { Track.stack = []; last_ts = neg_infinity })
  in
  let procs = Hashtbl.create 8 in
  let spans = ref 0 and instants = ref 0 in
  (* Flow pairing: every "s" must meet exactly one "f" with the same
     id (and vice versa). [flow_open] maps id -> how many "s" seen
     minus "f" seen; all entries must return to 0. *)
  let flow_open : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let flows = ref 0 in
  (* Printing ts/dur at microsecond scale rounds in the last ulp; allow
     a nanosecond of slack when checking track monotonicity. *)
  let slack = 1e-3 in
  let err i fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "event %d: %s" i m)) fmt
  in
  let check i ev =
    (* The members read, in one pass; as with [Jsonw.member], the first
       occurrence of a key counts. *)
    let ph = ref absent and name = ref absent and pid = ref absent in
    let tid = ref absent and ts = ref absent and dur = ref absent in
    let id = ref absent in
    let members = ref (match ev with Jsonw.Obj m -> m | _ -> []) in
    while match !members with [] -> false | _ -> true do
      match !members with
      | [] -> ()
      | (k, v) :: rest ->
          (match k with
          | "ph" -> if !ph == absent then ph := v
          | "name" -> if !name == absent then name := v
          | "pid" -> if !pid == absent then pid := v
          | "tid" -> if !tid == absent then tid := v
          | "ts" -> if !ts == absent then ts := v
          | "dur" -> if !dur == absent then dur := v
          | "id" -> if !id == absent then id := v
          | _ -> ());
          members := rest
    done;
    match !ph with
    | Jsonw.String "M" -> Ok ()
    | Jsonw.String (("s" | "f") as ph) ->
        if not (is_int !pid) then err i "flow missing pid"
        else if not (is_int !tid) then err i "flow missing tid"
        else if not (is_num !ts) then err i "flow missing ts"
        else if not (is_int !id) then err i "flow missing id"
        else
          let ts = num_of !ts and id = int_of !id in
          if ts < -.slack then err i "negative flow ts %g" ts
          else
            let open_n =
              (if ph = "s" then 1 else -1)
              + match Hashtbl.find flow_open id with
                | n -> n
                | exception Not_found -> 0
            in
            if open_n < -1 || open_n > 1 then
              err i "flow id %d has repeated %S events" id ph
            else begin
              Hashtbl.replace flow_open id open_n;
              if ph = "f" then incr flows;
              Ok ()
            end
    | Jsonw.String (("X" | "i") as ph) ->
        if not (is_int !pid) then err i "missing pid"
        else if not (is_int !tid) then err i "missing tid"
        else if not (is_num !ts) then err i "missing ts"
        else if not (is_string !name) then err i "missing name"
        else
          let pid = int_of !pid and tid = int_of !tid and ts = num_of !ts in
          if not (Hashtbl.mem procs pid) then Hashtbl.add procs pid ();
          if ts < -.slack then err i "negative ts %g" ts
          else if ph = "i" then begin
            incr instants;
            Ok ()
          end
          else if not (is_num !dur) then err i "span without dur"
          else
            let dur = num_of !dur in
            if dur < 0.0 then err i "negative dur %g" dur
            else begin
              incr spans;
              let tr = track pid tid in
              if ts < tr.Track.last_ts -. slack then
                err i "track (%d,%d) not sorted: span at ts %g after one at ts %g"
                  pid tid ts tr.Track.last_ts
              else begin
                tr.Track.last_ts <- ts;
                (* Close every span that ended before this one starts. *)
                let stack = ref tr.Track.stack in
                while
                  match !stack with e :: _ -> e <= ts +. slack | [] -> false
                do
                  stack := List.tl !stack
                done;
                tr.Track.stack <- !stack;
                match !stack with
                | enclosing :: _ when ts +. dur > enclosing +. slack ->
                    err i
                      "track (%d,%d) spans partially overlap: [%g,%g] crosses \
                       enclosing end %g"
                      pid tid ts (ts +. dur) enclosing
                | stack ->
                    tr.Track.stack <- (ts +. dur) :: stack;
                    Ok ()
              end
            end
    | Jsonw.String ph -> err i "unknown ph %S" ph
    | _ -> err i "missing ph"
  in
  let rec go i = function
    | [] -> Ok ()
    | ev :: rest -> ( match check i ev with Ok () -> go (i + 1) rest | e -> e)
  in
  let* () = go 0 events in
  let* () =
    Hashtbl.fold
      (fun id open_n acc ->
        Result.bind acc (fun () ->
            if open_n <> 0 then
              Error
                (Printf.sprintf "flow id %d is unmatched (%s without %s)" id
                   (if open_n > 0 then "\"s\"" else "\"f\"")
                   (if open_n > 0 then "\"f\"" else "\"s\""))
            else Ok ()))
      flow_open (Ok ())
  in
  Ok
    {
      events = List.length events;
      spans = !spans;
      instants = !instants;
      flows = !flows;
      processes = Hashtbl.length procs;
    }
