(* Deterministic multi-device pod: devices + a directed link matrix.

   Determinism contract: the pod's behaviour is a pure function of its
   construction arguments and the sequence of operations applied to it.
   Each directed link owns an independent splitmix64 stream seeded from
   (pod seed, src, dst), so the same storyline replays identically —
   the property the crash/resume harness and the QCheck bit-identity
   suite lean on. *)

open Ascend
module Link = Link

type topology = Ring | Fully_connected

let topology_to_string = function
  | Ring -> "ring"
  | Fully_connected -> "full"

type event_kind =
  | Local_scan
  | Fixup
  | Link_send
  | Reroute
  | Device_kill
  | Phase
  | Note

type event = {
  ev_kind : event_kind;
  ev_device : int;
  ev_peer : int option;
  ev_label : string;
  ev_start_s : float;
  ev_dur_s : float;
}

type t = {
  devices : Device.t array;
  alive : bool array;
  topo : topology;
  links : Link.t option array array;
  pod_seed : int;
  clocks : float array;
  mutable events_rev : event list;
  mutable n_reroutes : int;
}

let build ~topology:topo ~link_config ~seed devices_arr =
  let d = Array.length devices_arr in
  let links =
    Array.init d (fun src ->
        Array.init d (fun dst ->
            if src = dst then None
            else Some (Link.create ?config:link_config ~seed ~src ~dst ())))
  in
  {
    devices = devices_arr;
    alive = Array.make d true;
    topo;
    links;
    pod_seed = seed;
    clocks = Array.make d 0.0;
    events_rev = [];
    n_reroutes = 0;
  }

let create ?(topology = Ring) ?link_config ?(seed = 0) ?mode ?domains ~devices
    () =
  if devices < 1 then
    invalid_arg
      (Printf.sprintf "Pod.create: devices must be >= 1 (got %d)" devices);
  let devs =
    Array.init devices (fun _ -> Device.create ?mode ?domains ())
  in
  build ~topology ~link_config ~seed devs

let create_with ?(topology = Ring) ?link_config ?(seed = 0) ~primary ~devices
    () =
  if devices < 1 then
    invalid_arg
      (Printf.sprintf "Pod.create_with: devices must be >= 1 (got %d)" devices);
  let devs =
    Array.init devices (fun i ->
        if i = 0 then primary
        else
          Device.create ~mode:(Device.mode primary)
            ~domains:(Device.domains primary) ())
  in
  build ~topology ~link_config ~seed devs

let num_devices t = Array.length t.devices
let topology t = t.topo
let seed t = t.pod_seed

let check_index t name i =
  if i < 0 || i >= Array.length t.devices then
    invalid_arg
      (Printf.sprintf "Pod.%s: device %d out of range (pod has %d)" name i
         (Array.length t.devices))

let device t i =
  check_index t "device" i;
  t.devices.(i)

let primary t = t.devices.(0)

let alive t i =
  check_index t "alive" i;
  t.alive.(i)

let alive_count t =
  Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 t.alive

let alive_devices t =
  let out = ref [] in
  for i = Array.length t.alive - 1 downto 0 do
    if t.alive.(i) then out := i :: !out
  done;
  !out

let record t ev = t.events_rev <- ev :: t.events_rev
let events t = List.rev t.events_rev

let clock t i =
  check_index t "clock" i;
  t.clocks.(i)

let advance_clock t i ds =
  check_index t "advance_clock" i;
  t.clocks.(i) <- t.clocks.(i) +. ds

let sync_clocks t =
  let m = ref 0.0 in
  Array.iteri (fun i c -> if t.alive.(i) && c > !m then m := c) t.clocks;
  Array.iteri
    (fun i c -> if t.alive.(i) && c < !m then t.clocks.(i) <- !m)
    t.clocks

let kill_device t i =
  check_index t "kill_device" i;
  if t.alive.(i) then begin
    t.alive.(i) <- false;
    let dev = t.devices.(i) in
    let health = Device.health dev in
    for c = 0 to Device.num_cores dev - 1 do
      if Health.alive health c then Health.mark_dead ~reason:Health.Marked health ~core:c
    done;
    record t
      {
        ev_kind = Device_kill;
        ev_device = i;
        ev_peer = None;
        ev_label = Printf.sprintf "device %d killed" i;
        ev_start_s = t.clocks.(i);
        ev_dur_s = 0.0;
      }
  end

let link t ~src ~dst =
  check_index t "link" src;
  check_index t "link" dst;
  if src = dst then invalid_arg "Pod.link: src and dst are the same device";
  match t.links.(src).(dst) with
  | Some l -> l
  | None -> assert false

exception Partitioned of { src : int; dst : int }

type sent = { snd_seconds : float; snd_attempts : int; snd_via : int option }

let record_send t ~src ~dst ~label ~seconds =
  record t
    {
      ev_kind = Link_send;
      ev_device = src;
      ev_peer = Some dst;
      ev_label = label;
      ev_start_s = t.clocks.(src);
      ev_dur_s = seconds;
    };
  advance_clock t src seconds

let send t ~src ~dst ~bytes ~label =
  check_index t "send" src;
  check_index t "send" dst;
  if src = dst then { snd_seconds = 0.0; snd_attempts = 0; snd_via = None }
  else begin
    let direct = link t ~src ~dst in
    let o = Link.send direct ~bytes in
    if o.Link.delivered then begin
      record_send t ~src ~dst ~label ~seconds:o.Link.seconds;
      {
        snd_seconds = o.Link.seconds;
        snd_attempts = o.Link.attempts;
        snd_via = None;
      }
    end
    else begin
      (* Failover: relay through the first alive device whose two hops
         both deliver, in ascending device order — deterministic, like
         the re-sharding rule. *)
      let d = Array.length t.devices in
      let rec try_relay r acc_attempts acc_seconds =
        if r >= d then begin
          record t
            {
              ev_kind = Note;
              ev_device = src;
              ev_peer = Some dst;
              ev_label =
                Printf.sprintf "partitioned: %s (no route %d->%d)" label src
                  dst;
              ev_start_s = t.clocks.(src);
              ev_dur_s = 0.0;
            };
          raise (Partitioned { src; dst })
        end
        else if r = src || r = dst || not t.alive.(r) then
          try_relay (r + 1) acc_attempts acc_seconds
        else
          let hop1 = Link.send (link t ~src ~dst:r) ~bytes in
          if not hop1.Link.delivered then
            try_relay (r + 1)
              (acc_attempts + hop1.Link.attempts)
              (acc_seconds +. hop1.Link.seconds)
          else
            let hop2 = Link.send (link t ~src:r ~dst) ~bytes in
            if not hop2.Link.delivered then
              try_relay (r + 1)
                (acc_attempts + hop1.Link.attempts + hop2.Link.attempts)
                (acc_seconds +. hop1.Link.seconds +. hop2.Link.seconds)
            else begin
              t.n_reroutes <- t.n_reroutes + 1;
              let seconds =
                acc_seconds +. hop1.Link.seconds +. hop2.Link.seconds
              in
              record t
                {
                  ev_kind = Reroute;
                  ev_device = src;
                  ev_peer = Some dst;
                  ev_label =
                    Printf.sprintf "%s rerouted via device %d" label r;
                  ev_start_s = t.clocks.(src);
                  ev_dur_s = 0.0;
                };
              record_send t ~src ~dst ~label ~seconds;
              {
                snd_seconds = seconds;
                snd_attempts =
                  acc_attempts + hop1.Link.attempts + hop2.Link.attempts;
                snd_via = Some r;
              }
            end
      in
      try_relay 0 o.Link.attempts o.Link.seconds
    end
  end

let fold_links t f init =
  let acc = ref init in
  Array.iter
    (fun row ->
      Array.iter (function None -> () | Some l -> acc := f !acc l) row)
    t.links;
  !acc

let link_sends t = fold_links t (fun a l -> a + Link.sends l) 0
let link_retries t = fold_links t (fun a l -> a + Link.retries l) 0
let link_seconds t = fold_links t (fun a l -> a +. Link.seconds l) 0.0

let reroutes t = t.n_reroutes

let quarantined_links t =
  fold_links t (fun a l -> if Link.quarantined l then a + 1 else a) 0

let pp fmt t =
  Format.fprintf fmt
    "pod: %d devices (%d alive), topology %s, %d link sends (%d retries, %d reroutes, %d quarantined links)"
    (num_devices t) (alive_count t)
    (topology_to_string t.topo)
    (link_sends t) (link_retries t) (reroutes t) (quarantined_links t)
