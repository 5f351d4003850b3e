type mode = Functional | Cost_only

type t = {
  cost : Cost_model.t;
  mode : mode;
  mutable next_id : int;
  mutable allocated_bytes : int;
  fault : Fault.t option;
  sanitizer : Sanitizer.t option;
  health : Health.t;
  deadline_cycles : float option;
  domains : int;
  mutable trace : Trace.t option;
}

(* Default host-parallelism width: the ASCEND_SIM_DOMAINS environment
   variable when it parses as a positive integer, else 1 (sequential).
   A garbage value falls back to 1 rather than failing device
   creation; the CLI validates its own --domains flag separately. *)
let default_domains () =
  match Sys.getenv_opt "ASCEND_SIM_DOMAINS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> d
      | _ -> 1)

let create ?(cost = Cost_model.default) ?(mode = Functional) ?fault
    ?(sanitize = false) ?deadline_cycles ?domains () =
  (match deadline_cycles with
  | Some d when d <= 0.0 || Float.is_nan d ->
      invalid_arg "Device.create: deadline_cycles must be positive"
  | _ -> ());
  let domains =
    match domains with
    | None -> default_domains ()
    | Some d when d >= 1 -> d
    | Some d ->
        invalid_arg
          (Printf.sprintf "Device.create: domains must be >= 1 (got %d)" d)
  in
  let num_cores = cost.Cost_model.num_ai_cores in
  let health =
    match fault with
    | Some (cfg : Fault.config) ->
        Health.create ~num_cores ~kills:cfg.Fault.kills
          ?quarantine_after:cfg.Fault.quarantine_after ()
    | None -> Health.create ~num_cores ()
  in
  {
    cost;
    mode;
    next_id = 0;
    allocated_bytes = 0;
    fault = Option.map Fault.create fault;
    sanitizer = (if sanitize then Some (Sanitizer.create ()) else None);
    health;
    deadline_cycles;
    domains;
    trace = None;
  }

let cost t = t.cost
let mode t = t.mode
let fault t = t.fault
let sanitizer t = t.sanitizer
let health t = t.health
let deadline_cycles t = t.deadline_cycles
let domains t = t.domains
let trace t = t.trace

let arm_trace t =
  let tr = Trace.create ~clock_hz:t.cost.Cost_model.clock_hz () in
  t.trace <- Some tr;
  tr

let functional t =
  match t.mode with Functional -> true | Cost_only -> false

let num_cores t = t.cost.Cost_model.num_ai_cores

let alloc t dtype length ~name =
  if length < 0 then
    invalid_arg
      (Printf.sprintf "Device.alloc: negative length %d for %S" length name);
  let id = t.next_id in
  t.next_id <- id + 1;
  t.allocated_bytes <- t.allocated_bytes + (length * Dtype.size_bytes dtype);
  Global_tensor.make ~id ~name ~dtype ~length ~backed:(functional t)

let of_array t dtype ~name a =
  let gt = alloc t dtype (Array.length a) ~name in
  Global_tensor.load gt a;
  gt

let allocated_bytes t = t.allocated_bytes

let pp fmt t =
  Format.fprintf fmt "device(%s, %d/%d cores alive, %d MiB allocated%s%s)"
    (match t.mode with Functional -> "functional" | Cost_only -> "cost-only")
    (Health.num_alive t.health) (num_cores t)
    (t.allocated_bytes / 1024 / 1024)
    (match t.fault with
    | Some f ->
        let cfg = Fault.config_of f in
        Printf.sprintf ", faults seed=%d rate=%g" cfg.Fault.seed cfg.Fault.rate
    | None -> "")
    (match t.sanitizer with Some _ -> ", sanitized" | None -> "")
