type phase = {
  compute_seconds : float;
  bandwidth_seconds : float;
  seconds : float;
  gm_bytes : int;
  footprint_bytes : int;
  bandwidth_bound : bool;
}

type t = {
  name : string;
  seconds : float;
  phases : phase list;
  blocks : int;
  cores_used : int;
  gm_read_bytes : int;
  gm_write_bytes : int;
  engine_busy : (string * float) list;
  core_busy : float array;
  op_counts : (string * int) list;
  faults : Fault.event list;
  retries : int;
  degraded : int;
  host_seconds : float;
  domains : int;
  launches : int;
}

let host_seconds_per_launch t =
  if t.launches <= 0 then 0.0 else t.host_seconds /. float_of_int t.launches

(* Zero-duration guard: a launch (or combined stats) can legitimately
   report [seconds = 0.] — keep the array shape so callers can still
   index per core instead of crashing on [[||]]. *)
let core_utilization t =
  if t.seconds <= 0.0 then Array.make (Array.length t.core_busy) 0.0
  else Array.map (fun b -> b /. t.seconds) t.core_busy

let phase_occupancy (p : phase) ~busy_cycles ~clock_hz =
  if p.seconds <= 0.0 || clock_hz <= 0.0 then 0.0
  else busy_cycles /. (p.seconds *. clock_hz)

let op_count t name =
  Option.value ~default:0 (List.assoc_opt name t.op_counts)

let gm_bytes t = t.gm_read_bytes + t.gm_write_bytes

let empty ~name =
  {
    name;
    seconds = 0.0;
    phases = [];
    blocks = 0;
    cores_used = 0;
    gm_read_bytes = 0;
    gm_write_bytes = 0;
    engine_busy = [];
    core_busy = [||];
    op_counts = [];
    faults = [];
    retries = 0;
    degraded = 0;
    host_seconds = 0.0;
    domains = 1;
    launches = 0;
  }

let combine ~name = function
  | [] -> invalid_arg "Stats.combine: empty list"
  | first :: _ as stats ->
      {
        name;
        seconds = List.fold_left (fun acc s -> acc +. s.seconds) 0.0 stats;
        phases = List.concat_map (fun s -> s.phases) stats;
        blocks = List.fold_left (fun acc s -> max acc s.blocks) 0 stats;
        cores_used =
          List.fold_left (fun acc s -> max acc s.cores_used) 0 stats;
        gm_read_bytes =
          List.fold_left (fun acc s -> acc + s.gm_read_bytes) 0 stats;
        gm_write_bytes =
          List.fold_left (fun acc s -> acc + s.gm_write_bytes) 0 stats;
        engine_busy =
          List.map
            (fun (e, _) ->
              ( e,
                List.fold_left
                  (fun acc s ->
                    match List.assoc_opt e s.engine_busy with
                    | Some c -> acc +. c
                    | None -> acc)
                  0.0 stats ))
            first.engine_busy;
        core_busy =
          (let n =
             List.fold_left
               (fun acc s -> max acc (Array.length s.core_busy))
               0 stats
           in
           let acc = Array.make n 0.0 in
           List.iter
             (fun s ->
               Array.iteri (fun c b -> acc.(c) <- acc.(c) +. b) s.core_busy)
             stats;
           acc);
        op_counts =
          (let tbl = Hashtbl.create 16 in
           List.iter
             (fun s ->
               List.iter
                 (fun (k, v) ->
                   Hashtbl.replace tbl k
                     (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
                 s.op_counts)
             stats;
           List.sort
             (fun (_, a) (_, b) -> compare b a)
             (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []));
        faults = List.concat_map (fun s -> s.faults) stats;
        retries = List.fold_left (fun acc s -> acc + s.retries) 0 stats;
        degraded = List.fold_left (fun acc s -> acc + s.degraded) 0 stats;
        host_seconds =
          List.fold_left (fun acc s -> acc +. s.host_seconds) 0.0 stats;
        domains = List.fold_left (fun acc s -> max acc s.domains) 1 stats;
        launches = List.fold_left (fun acc s -> acc + s.launches) 0 stats;
      }
(* Equality of everything the simulation determines — i.e. every field
   except the host-side wall clock and execution width. The domain
   determinism suite asserts this across --domains settings. *)
let equal_simulated a b =
  a.name = b.name && a.seconds = b.seconds && a.phases = b.phases
  && a.blocks = b.blocks && a.cores_used = b.cores_used
  && a.gm_read_bytes = b.gm_read_bytes
  && a.gm_write_bytes = b.gm_write_bytes
  && a.engine_busy = b.engine_busy
  && a.core_busy = b.core_busy
  && a.op_counts = b.op_counts && a.faults = b.faults
  && a.retries = b.retries && a.degraded = b.degraded
  && a.launches = b.launches

let pp_summary fmt t =
  Format.fprintf fmt "%-24s %10.3f us  %8.2f GB/s moved  %d blocks" t.name
    (t.seconds *. 1e6)
    (float_of_int (gm_bytes t) /. t.seconds /. 1e9)
    t.blocks

let pp fmt t =
  Format.fprintf fmt "@[<v>kernel %s: %.3f us, %d blocks on %d cores@ " t.name
    (t.seconds *. 1e6) t.blocks t.cores_used;
  Format.fprintf fmt "GM: %.2f MiB read, %.2f MiB written@ "
    (float_of_int t.gm_read_bytes /. 1048576.0)
    (float_of_int t.gm_write_bytes /. 1048576.0);
  List.iteri
    (fun i (p : phase) ->
      Format.fprintf fmt
        "phase %d: %.3f us (%s-bound; compute %.3f us, bw %.3f us, %.2f MiB \
         traffic, %.2f MiB footprint)@ "
        i (p.seconds *. 1e6)
        (if p.bandwidth_bound then "bandwidth" else "compute")
        (p.compute_seconds *. 1e6)
        (p.bandwidth_seconds *. 1e6)
        (float_of_int p.gm_bytes /. 1048576.0)
        (float_of_int p.footprint_bytes /. 1048576.0))
    t.phases;
  Format.fprintf fmt "engine busy (kcycles):";
  List.iter
    (fun (e, c) ->
      if c > 0.0 then Format.fprintf fmt " %s=%.1f" e (c /. 1e3))
    t.engine_busy;
  if Array.exists (fun b -> b > 0.0) t.core_busy then begin
    Format.fprintf fmt "@ per-core busy (kcycles):";
    Array.iteri
      (fun c b -> Format.fprintf fmt " c%d=%.1f" c (b /. 1e3))
      t.core_busy
  end;
  (match t.op_counts with
  | [] -> ()
  | ops ->
      Format.fprintf fmt "@ instruction mix:";
      List.iteri
        (fun i (o, c) -> if i < 8 then Format.fprintf fmt " %s=%d" o c)
        ops);
  if t.faults <> [] then begin
    Format.fprintf fmt "@ faults injected: %d" (List.length t.faults);
    List.iteri
      (fun i e -> if i < 4 then Format.fprintf fmt "@   %a" Fault.pp_event e)
      t.faults
  end;
  if t.retries > 0 || t.degraded > 0 then
    Format.fprintf fmt "@ resilience: %d retries, %d degradations" t.retries
      t.degraded;
  if t.host_seconds > 0.0 then
    Format.fprintf fmt "@ host: %.2f ms wall-clock on %d domain%s%s"
      (t.host_seconds *. 1e3) t.domains
      (if t.domains = 1 then "" else "s")
      (if t.launches > 1 then Printf.sprintf " (%d launches)" t.launches
       else "");
  Format.fprintf fmt "@]"
