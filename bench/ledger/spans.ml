(* Bench-side spans: the layer pass wraps each call into a layer's
   public function in one, so the split of host time is measured from
   outside the library. Spans stay in memory and are written once, at
   exit. The e2e pass uses the same [timed] with no recorder, so both
   passes read the clock at exactly the same places. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span. *)
  round : int;
  t0 : int64;  (** Monotonic nanoseconds. *)
  t1 : int64;
}

type t = {
  mutable closed : span list;  (** Newest first. *)
  mutable stack : int list;
  mutable next : int;
  mutable round : int;
}

let create () = { closed = []; stack = []; next = 0; round = 0 }
let now_ns = Monotonic_clock.now
let ms_of_ns ns = Int64.to_float ns /. 1e6
let set_round t r = t.round <- r

(* [f ()] and its wall-clock duration in ns; with a recorder, also a
   span named [name] under the innermost open span. *)
let timed rec_ name f =
  match rec_ with
  | None ->
      let t0 = now_ns () in
      let v = f () in
      (v, Int64.sub (now_ns ()) t0)
  | Some t ->
      let id = t.next in
      let parent = match t.stack with p :: _ -> p | [] -> -1 in
      t.next <- id + 1;
      t.stack <- id :: t.stack;
      let close t0 =
        let t1 = now_ns () in
        t.stack <- List.tl t.stack;
        t.closed <- { id; name; parent; round = t.round; t0; t1 } :: t.closed;
        Int64.sub t1 t0
      in
      let t0 = now_ns () in
      (match f () with
      | v -> (v, close t0)
      | exception e ->
          ignore (close t0);
          raise e)

let spans t = List.rev t.closed
let duration s = Int64.sub s.t1 s.t0

(* Self time: a span's duration minus the part its children cover
   (children never overlap: one thread, properly nested). *)
let self_ns t =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Int64.add (duration s)
             (Option.value ~default:0L (Hashtbl.find_opt child s.parent))))
    t.closed;
  fun s ->
    Int64.sub (duration s) (Option.value ~default:0L (Hashtbl.find_opt child s.id))

let to_json t =
  let self = self_ns t in
  let origin = List.fold_left (fun acc s -> min acc s.t0) Int64.max_int t.closed in
  let us ns = Obs.Jsonw.Float (Int64.to_float ns /. 1e3) in
  Obs.Jsonw.List
    (List.map
       (fun s ->
         Obs.Jsonw.Obj
           [
             ("id", Int s.id);
             ("name", String s.name);
             ("parent", Int s.parent);
             ("round", Int s.round);
             ("start_us", us (Int64.sub s.t0 origin));
             ("end_us", us (Int64.sub s.t1 origin));
             ("self_us", us (self s));
           ])
       (spans t))
