module Trace = Ascend.Trace

let write_arg buf = function
  | Trace.I i -> Jsonw.write_int buf i
  | Trace.F f -> Jsonw.write_float buf f
  | Trace.S s -> Jsonw.write_string buf s
  | Trace.B b -> Buffer.add_string buf (if b then "true" else "false")

(* A little over the mean size of a span event with its cycle args. *)
let bytes_per_event = 200

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
      if not (Hashtbl.mem procs p.Trace.p_pid) then
        Hashtbl.add procs p.Trace.p_pid ();
      let key = (p.Trace.p_pid, p.Trace.p_tid) in
      if not (Hashtbl.mem tracks key) then
        Hashtbl.add tracks key p.Trace.p_tname)
    placed;
  let pids = List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) procs []) in
  let track_list =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tracks [])
  in
  let events =
    List.length placed + (2 * (List.length pids + List.length track_list))
  in
  let buf = Buffer.create ((bytes_per_event * events) + 256) in
  (* [{"k":] opens an object at its first member; [,"k":] adds one. *)
  let open_ k =
    Buffer.add_char buf '{';
    Jsonw.write_field buf k
  in
  let next k =
    Buffer.add_char buf ',';
    Jsonw.write_field buf k
  in
  let close () = Buffer.add_char buf '}' in
  let str k v = next k; Jsonw.write_string buf v in
  let int k v = next k; Jsonw.write_int buf v in
  let num k v = next k; Jsonw.write_float buf v in
  let args = function
    | [] -> ()
    | (k, v) :: rest ->
        next "args";
        open_ k;
        write_arg buf v;
        List.iter (fun (k, v) -> next k; write_arg buf v) rest;
        close ()
  in
  let first = ref true in
  let event name =
    if !first then first := false else Buffer.add_char buf ',';
    open_ "name";
    Jsonw.write_string buf name
  in
  open_ "traceEvents";
  Buffer.add_char buf '[';
  List.iter
    (fun pid ->
      let name = if pid = 0 then "device" else Printf.sprintf "core %d" (pid - 1) in
      event "process_name";
      str "ph" "M";
      int "pid" pid;
      args [ ("name", Trace.S name) ];
      close ();
      event "process_sort_index";
      str "ph" "M";
      int "pid" pid;
      args [ ("sort_index", Trace.I pid) ];
      close ())
    pids;
  List.iter
    (fun ((pid, tid), tname) ->
      event "thread_name";
      str "ph" "M";
      int "pid" pid;
      int "tid" tid;
      args [ ("name", Trace.S tname) ];
      close ();
      event "thread_sort_index";
      str "ph" "M";
      int "pid" pid;
      int "tid" tid;
      args [ ("sort_index", Trace.I tid) ];
      close ())
    track_list;
  List.iter
    (fun (p : Trace.placed) ->
      event p.Trace.p_name;
      (match p.Trace.p_dur with
      | Some dur ->
          str "cat" p.Trace.p_cat;
          str "ph" "X";
          int "pid" p.Trace.p_pid;
          int "tid" p.Trace.p_tid;
          num "ts" (us p.Trace.p_ts);
          num "dur" (us dur)
      | None when p.Trace.p_cat = "flow_out" || p.Trace.p_cat = "flow_in" ->
          (* Dependency edges ride the Perfetto flow-event pair: ph
             "s" at the source span's end, ph "f" (binding to the
             enclosing slice's end) at the target's start, correlated
             by the numeric id arg. *)
          let flow_in = p.Trace.p_cat = "flow_in" in
          str "cat" "flow";
          str "ph" (if flow_in then "f" else "s");
          if flow_in then str "bp" "e";
          int "id"
            (match List.assoc_opt "id" p.Trace.p_args with
            | Some (Trace.I i) -> i
            | _ -> 0);
          int "pid" p.Trace.p_pid;
          int "tid" p.Trace.p_tid;
          num "ts" (us p.Trace.p_ts)
      | None ->
          str "cat" p.Trace.p_cat;
          str "ph" "i";
          str "s" "p";
          int "pid" p.Trace.p_pid;
          int "tid" p.Trace.p_tid;
          num "ts" (us p.Trace.p_ts));
      args p.Trace.p_args;
      close ())
    placed;
  Buffer.add_char buf ']';
  str "displayTimeUnit" "us";
  next "otherData";
  open_ "generator";
  Jsonw.write_string buf "ascend-scan-sim";
  str "schema" "ascend-trace-1";
  num "clock_hz" clock;
  int "spans" (Trace.span_count tr);
  int "instants" (Trace.mark_count tr);
  int "edges" (Trace.edge_count tr);
  int "dropped" (Trace.dropped tr);
  close ();
  close ();
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
  let tracks : (int * int, Track.t) Hashtbl.t = Hashtbl.create 64 in
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
  let rec go i = function
    | [] -> Ok ()
    | ev :: rest ->
        let err fmt =
          Printf.ksprintf (fun m -> Error (Printf.sprintf "event %d: %s" i m)) fmt
        in
        let num k = Option.bind (Jsonw.member k ev) Jsonw.number_opt in
        let* () =
          match Option.bind (Jsonw.member "ph" ev) Jsonw.string_opt with
          | Some "M" -> Ok ()
          | Some (("s" | "f") as ph) -> (
              match
                ( Option.bind (Jsonw.member "pid" ev) Jsonw.int_opt,
                  Option.bind (Jsonw.member "tid" ev) Jsonw.int_opt,
                  num "ts",
                  Option.bind (Jsonw.member "id" ev) Jsonw.int_opt )
              with
              | Some _, Some _, Some ts, Some id ->
                  if ts < -.slack then err "negative flow ts %g" ts
                  else begin
                    let d = if ph = "s" then 1 else -1 in
                    let open_n =
                      d + Option.value ~default:0 (Hashtbl.find_opt flow_open id)
                    in
                    if open_n < -1 || open_n > 1 then
                      err "flow id %d has repeated %S events" id ph
                    else begin
                      Hashtbl.replace flow_open id open_n;
                      if ph = "f" then incr flows;
                      Ok ()
                    end
                  end
              | None, _, _, _ -> err "flow missing pid"
              | _, None, _, _ -> err "flow missing tid"
              | _, _, None, _ -> err "flow missing ts"
              | _, _, _, None -> err "flow missing id")
          | Some (("X" | "i") as ph) -> (
              match
                ( Option.bind (Jsonw.member "pid" ev) Jsonw.int_opt,
                  Option.bind (Jsonw.member "tid" ev) Jsonw.int_opt,
                  num "ts",
                  Option.bind (Jsonw.member "name" ev) Jsonw.string_opt )
              with
              | Some pid, Some tid, Some ts, Some _ ->
                  if not (Hashtbl.mem procs pid) then Hashtbl.add procs pid ();
                  if ts < -.slack then err "negative ts %g" ts
                  else if ph = "i" then begin
                    incr instants;
                    Ok ()
                  end
                  else begin
                    match num "dur" with
                    | None -> err "span without dur"
                    | Some dur when dur < 0.0 -> err "negative dur %g" dur
                    | Some dur ->
                        incr spans;
                        let key = (pid, tid) in
                        let tr =
                          match Hashtbl.find_opt tracks key with
                          | Some tr -> tr
                          | None ->
                              let tr =
                                { Track.stack = []; last_ts = neg_infinity }
                              in
                              Hashtbl.add tracks key tr;
                              tr
                        in
                        if ts < tr.Track.last_ts -. slack then
                          err
                            "track (%d,%d) not sorted: span at ts %g after \
                             one at ts %g"
                            pid tid ts tr.Track.last_ts
                        else begin
                          tr.Track.last_ts <- ts;
                          (* Close every span that ended before this one
                             starts. *)
                          let rec close = function
                            | e :: rest when e <= ts +. slack -> close rest
                            | stack -> stack
                          in
                          tr.Track.stack <- close tr.Track.stack;
                          match tr.Track.stack with
                          | enclosing :: _ when ts +. dur > enclosing +. slack
                            ->
                              err
                                "track (%d,%d) spans partially overlap: \
                                 [%g,%g] crosses enclosing end %g"
                                pid tid ts (ts +. dur) enclosing
                          | stack ->
                              tr.Track.stack <- (ts +. dur) :: stack;
                              Ok ()
                        end
                  end
              | None, _, _, _ -> err "missing pid"
              | _, None, _, _ -> err "missing tid"
              | _, _, None, _ -> err "missing ts"
              | _, _, _, None -> err "missing name")
          | Some ph -> err "unknown ph %S" ph
          | None -> err "missing ph"
        in
        go (i + 1) rest
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
