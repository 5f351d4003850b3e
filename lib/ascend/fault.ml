type kind = Bit_flip | Dropped_copy | Truncated_copy | Engine_stall

let kind_to_string = function
  | Bit_flip -> "bit_flip"
  | Dropped_copy -> "dropped_copy"
  | Truncated_copy -> "truncated_copy"
  | Engine_stall -> "engine_stall"

let all_kinds = [ Bit_flip; Dropped_copy; Truncated_copy; Engine_stall ]

let corrupts_data = function
  | Bit_flip | Dropped_copy | Truncated_copy -> true
  | Engine_stall -> false

type scope = All_mtes | Cube_mtes | Vec_mtes

type config = {
  seed : int;
  rate : float;
  kinds : kind list;
  scope : scope;
  stall_factor : float;
  kills : (int * float) list;
  quarantine_after : int option;
}

let config ?(kinds = all_kinds) ?(scope = All_mtes) ?(stall_factor = 8.0)
    ?(kills = []) ?quarantine_after ~seed ~rate () =
  if rate < 0.0 || rate > 1.0 || Float.is_nan rate then
    invalid_arg "Fault.config: rate must be in [0,1]";
  if kinds = [] then invalid_arg "Fault.config: empty kind list";
  if stall_factor < 1.0 then
    invalid_arg "Fault.config: stall_factor must be >= 1";
  List.iter
    (fun (core, cycle) ->
      if core < 0 then invalid_arg "Fault.config: negative core id in kills";
      if cycle < 0.0 then invalid_arg "Fault.config: negative kill cycle")
    kills;
  (match quarantine_after with
  | Some n when n < 1 ->
      invalid_arg "Fault.config: quarantine_after must be >= 1"
  | _ -> ());
  { seed; rate; kinds; scope; stall_factor; kills; quarantine_after }

let parse_spec spec =
  let fail () =
    Error
      (Printf.sprintf
         "invalid fault spec %S: expected SEED:RATE with SEED a \
          non-negative integer and RATE a probability in [0,1]"
         spec)
  in
  match String.split_on_char ':' spec with
  | [ seed_s; rate_s ] -> (
      match (int_of_string_opt seed_s, float_of_string_opt rate_s) with
      | Some seed, Some rate
        when seed >= 0 && rate >= 0.0 && rate <= 1.0 && not (Float.is_nan rate)
        ->
          Ok (seed, rate)
      | _ -> fail ())
  | _ -> fail ()

type event = {
  seq : int;
  kind : kind;
  op : string;
  engine : string;
  tensor : string;
  index : int;
  bit : int;
  detail : string;
}

type action =
  | No_fault
  | Flip of { index : int; bit : int }
  | Drop
  | Truncate of int
  | Stall of float

type t = {
  mutable cfg : config;
  mutable state : int64;
  mutable events : event list;  (* newest first *)
  mutable n_events : int;
}

let create cfg = { cfg; state = Int64.of_int cfg.seed; events = []; n_events = 0 }

let config_of t = t.cfg

(* Swap the live injection policy without touching the splitmix64
   stream: the chaos scheduler raises and restores storm windows
   mid-job while the draw sequence stays a pure function of the
   original seed and the transfer sequence. *)
let set_config t cfg = t.cfg <- cfg

(* splitmix64: a small, high-quality, deterministic stream. *)
let next_u64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform t =
  Int64.to_float (Int64.shift_right_logical (next_u64 t) 11) *. 0x1p-53

let rand_below t bound =
  if bound <= 1 then 0
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (next_u64 t) 1)
                       (Int64.of_int bound))

let in_scope t engine =
  match t.cfg.scope, engine with
  | All_mtes, _ -> true
  | Cube_mtes, (Engine.Cube_mte_in | Engine.Cube_mte_out) -> true
  | Cube_mtes, _ -> false
  | Vec_mtes, (Engine.Vec_mte_in _ | Engine.Vec_mte_out _) -> true
  | Vec_mtes, _ -> false

let record t ~kind ~op ~engine ~tensor ~index ~bit ~detail =
  let ev =
    { seq = t.n_events; kind; op; engine = Engine.to_string engine; tensor;
      index; bit; detail }
  in
  t.events <- ev :: t.events;
  t.n_events <- t.n_events + 1

let draw t ~engine ~op ~tensor ~dst_off ~len ~elem_bits =
  if len <= 0 || not (in_scope t engine) then No_fault
  else if uniform t >= t.cfg.rate then No_fault
  else begin
    let kind = List.nth t.cfg.kinds (rand_below t (List.length t.cfg.kinds)) in
    match kind with
    | Bit_flip ->
        let rel = rand_below t len in
        let bit = rand_below t elem_bits in
        record t ~kind ~op ~engine ~tensor ~index:(dst_off + rel) ~bit
          ~detail:(Printf.sprintf "flip bit %d of element %d" bit (dst_off + rel));
        Flip { index = rel; bit }
    | Dropped_copy ->
        record t ~kind ~op ~engine ~tensor ~index:dst_off ~bit:(-1)
          ~detail:(Printf.sprintf "dropped %d-element copy at %d" len dst_off);
        Drop
    | Truncated_copy ->
        let keep = rand_below t len in
        record t ~kind ~op ~engine ~tensor ~index:(dst_off + keep) ~bit:(-1)
          ~detail:(Printf.sprintf "copy truncated to %d of %d elements" keep len);
        Truncate keep
    | Engine_stall ->
        record t ~kind ~op ~engine ~tensor ~index:(-1) ~bit:(-1)
          ~detail:(Printf.sprintf "engine stalled %.1fx on %d elements"
                     t.cfg.stall_factor len);
        Stall t.cfg.stall_factor
  end

(* Flip one payload bit of element [index] of [buf], respecting the
   buffer's storage dtype (fp16 lanes flip in the binary16 encoding). *)
let flip_in_buffer buf ~index ~bit =
  let v = Host_buffer.get buf index in
  let dt = Host_buffer.dtype buf in
  let flipped =
    match dt with
    | Dtype.F16 -> Fp16.to_float (Fp16.of_float v lxor (1 lsl (bit mod 16)))
    | Dtype.F32 ->
        Int32.float_of_bits
          (Int32.logxor (Int32.bits_of_float v)
             (Int32.shift_left 1l (bit mod 32)))
    | Dtype.I8 | Dtype.I16 | Dtype.U16 | Dtype.I32 ->
        let bits = Dtype.size_bytes dt * 8 in
        let u = Dtype.unsigned_field dt v in
        Dtype.round dt (float_of_int (u lxor (1 lsl (bit mod bits))))
  in
  Host_buffer.set buf index flipped

let events t = List.rev t.events
let count t = t.n_events

let events_since t n =
  (* Events [n..] in injection order. *)
  let rec take k acc = function
    | [] -> acc
    | e :: tl -> if k <= 0 then acc else take (k - 1) (e :: acc) tl
  in
  take (t.n_events - n) [] t.events

let count_kind t kind =
  List.fold_left (fun acc e -> if e.kind = kind then acc + 1 else acc) 0 t.events

let pp_event fmt e =
  Format.fprintf fmt "#%d %s %s on %s[%s]: %s" e.seq (kind_to_string e.kind)
    e.op e.tensor e.engine e.detail

let pp_summary fmt t =
  Format.fprintf fmt "@[<v>fault log: %d events (seed %d, rate %g)" t.n_events
    t.cfg.seed t.cfg.rate;
  List.iter
    (fun k ->
      let c = count_kind t k in
      if c > 0 then Format.fprintf fmt "@   %s: %d" (kind_to_string k) c)
    all_kinds;
  Format.fprintf fmt "@]"
