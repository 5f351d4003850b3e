module Trace = Ascend.Trace

let write_arg buf = function
  | Trace.I i -> Jsonw.write_int buf i
  | Trace.F f -> Jsonw.write_float buf f
  | Trace.S s -> Jsonw.write_string buf s
  | Trace.B b -> Buffer.add_string buf (if b then "true" else "false")

(* A little over the mean size of a span event with its cycle args. *)
let bytes_per_event = 200

(* Track keys: (pid, tid) packed into one int, ordered as the pair
   (tids, engine indices and the events track, are below 2^24). *)
let track_key pid tid = (pid lsl 24) lor tid
let key_pid k = k lsr 24
let key_tid k = k land 0xFFFFFF

(* Fixed keys and constant values are written as pre-escaped literals:
   [{"name":] opens an event, [,"k":] adds a member. *)
let args buf = function
  | [] -> ()
  | (k, v) :: rest ->
      Buffer.add_string buf {|,"args":{|};
      Jsonw.write_field buf k;
      write_arg buf v;
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ',';
          Jsonw.write_field buf k;
          write_arg buf v)
        rest;
      Buffer.add_char buf '}'

let metadata buf ~name ~pid ?tid arg =
  Buffer.add_string buf {|{"name":|};
  Jsonw.write_string buf name;
  Buffer.add_string buf {|,"ph":"M","pid":|};
  Jsonw.write_int buf pid;
  Option.iter
    (fun tid ->
      Buffer.add_string buf {|,"tid":|};
      Jsonw.write_int buf tid)
    tid;
  args buf [ arg ];
  Buffer.add_string buf "},"

let to_string tr =
  let placed = Trace.assemble tr in
  let clock = Trace.clock_hz tr in
  let us cycles = cycles /. clock *. 1e6 in
  (* Metadata: name every process and track we are about to emit, in
     (pid, tid) order so the byte output is stable. *)
  let procs = Hashtbl.create 8 in
  let tracks = Hashtbl.create 64 in
  List.iter
    (fun (p : Trace.placed) ->
      let key = track_key p.Trace.p_pid p.Trace.p_tid in
      if not (Hashtbl.mem tracks key) then begin
        Hashtbl.add tracks key p.Trace.p_tname;
        Hashtbl.replace procs p.Trace.p_pid ()
      end)
    placed;
  let pids = List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) procs []) in
  let track_list =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tracks [])
  in
  let events =
    List.length placed + (2 * (List.length pids + List.length track_list))
  in
  let buf = Buffer.create ((bytes_per_event * events) + 256) in
  let ts v =
    Buffer.add_string buf {|,"ts":|};
    Jsonw.write_float buf (us v)
  in
  let pid_tid (p : Trace.placed) =
    Buffer.add_string buf {|,"pid":|};
    Jsonw.write_int buf p.Trace.p_pid;
    Buffer.add_string buf {|,"tid":|};
    Jsonw.write_int buf p.Trace.p_tid
  in
  let cat c =
    Buffer.add_string buf {|,"cat":|};
    Jsonw.write_string buf c
  in
  Buffer.add_string buf {|{"traceEvents":[|};
  List.iter
    (fun pid ->
      let name = if pid = 0 then "device" else Printf.sprintf "core %d" (pid - 1) in
      metadata buf ~name:"process_name" ~pid ("name", Trace.S name);
      metadata buf ~name:"process_sort_index" ~pid ("sort_index", Trace.I pid))
    pids;
  List.iter
    (fun (key, tname) ->
      let pid = key_pid key and tid = key_tid key in
      metadata buf ~name:"thread_name" ~pid ~tid ("name", Trace.S tname);
      metadata buf ~name:"thread_sort_index" ~pid ~tid ("sort_index", Trace.I tid))
    track_list;
  List.iter
    (fun (p : Trace.placed) ->
      Buffer.add_string buf {|{"name":|};
      Jsonw.write_string buf p.Trace.p_name;
      (match p.Trace.p_dur with
      | Some dur ->
          cat p.Trace.p_cat;
          Buffer.add_string buf {|,"ph":"X"|};
          pid_tid p;
          ts p.Trace.p_ts;
          Buffer.add_string buf {|,"dur":|};
          Jsonw.write_float buf (us dur)
      | None when p.Trace.p_cat = "flow_out" || p.Trace.p_cat = "flow_in" ->
          (* Dependency edges ride the Perfetto flow-event pair: ph
             "s" at the source span's end, ph "f" (binding to the
             enclosing slice's end) at the target's start, correlated
             by the numeric id arg. *)
          Buffer.add_string buf
            (if p.Trace.p_cat = "flow_in" then {|,"cat":"flow","ph":"f","bp":"e","id":|}
             else {|,"cat":"flow","ph":"s","id":|});
          Jsonw.write_int buf
            (match List.assoc_opt "id" p.Trace.p_args with
            | Some (Trace.I i) -> i
            | _ -> 0);
          pid_tid p;
          ts p.Trace.p_ts
      | None ->
          cat p.Trace.p_cat;
          Buffer.add_string buf {|,"ph":"i","s":"p"|};
          pid_tid p;
          ts p.Trace.p_ts);
      args buf p.Trace.p_args;
      Buffer.add_string buf "},")
    placed;
  (* Every event above ends in [,]: drop the last one. *)
  if events > 0 then Buffer.truncate buf (Buffer.length buf - 1);
  Buffer.add_string buf {|],"displayTimeUnit":"us","otherData":{|};
  Buffer.add_string buf {|"generator":"ascend-scan-sim","schema":"ascend-trace-1","clock_hz":|};
  Jsonw.write_float buf clock;
  Buffer.add_string buf {|,"spans":|};
  Jsonw.write_int buf (Trace.span_count tr);
  Buffer.add_string buf {|,"instants":|};
  Jsonw.write_int buf (Trace.mark_count tr);
  Buffer.add_string buf {|,"edges":|};
  Jsonw.write_int buf (Trace.edge_count tr);
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
