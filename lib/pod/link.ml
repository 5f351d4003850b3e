(* Directed inter-device link with a seeded fault stream.

   The RNG is the same splitmix64 as Fault's so link behaviour is as
   reproducible as core-level fault injection: the stream depends only
   on (seed, src, dst) and the number of draws so far. Fault kinds are
   drawn uniformly from [config.fault_kinds]; a Corrupt is modelled
   faithfully — the payload image gets a seeded bit flip and the
   receiver's CRC32 comparison detects it — so corruption can never
   change delivered values, only cost time and retries. *)

type fault_kind = Drop | Corrupt | Stall

type config = {
  bandwidth_bytes_per_s : float;
  latency_s : float;
  fault_rate : float;
  fault_kinds : fault_kind list;
  stall_factor : float;
  timeout_s : float;
  max_attempts : int;
  backoff_s : float;
  quarantine_after : int;
}

let default_config =
  {
    bandwidth_bytes_per_s = 25.0e9;
    latency_s = 1.5e-6;
    fault_rate = 0.0;
    fault_kinds = [ Drop; Corrupt; Stall ];
    stall_factor = 4.0;
    timeout_s = 10.0e-6;
    max_attempts = 4;
    backoff_s = 1.0e-6;
    quarantine_after = 3;
  }

let validate_config c =
  if c.bandwidth_bytes_per_s <= 0.0 then
    Error "link bandwidth must be positive"
  else if c.latency_s < 0.0 then Error "link latency must be non-negative"
  else if c.fault_rate < 0.0 || c.fault_rate > 1.0 then
    Error "link fault rate must be in [0, 1]"
  else if c.fault_rate > 0.0 && c.fault_kinds = [] then
    Error "link fault rate is positive but no fault kinds are enabled"
  else if c.stall_factor < 1.0 then Error "link stall factor must be >= 1"
  else if c.timeout_s < 0.0 then Error "link timeout must be non-negative"
  else if c.max_attempts < 1 then Error "link max attempts must be >= 1"
  else if c.backoff_s < 0.0 then Error "link backoff must be non-negative"
  else if c.quarantine_after < 1 then
    Error "link quarantine threshold must be >= 1"
  else Ok ()

(* splitmix64, verbatim from Fault so streams are stylistically
   identical across the fault injectors. *)
type rng = { mutable state : int64 }

let next_u64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform t =
  Int64.to_float (Int64.shift_right_logical (next_u64 t) 11) *. 0x1p-53

let rand_below t bound =
  if bound <= 1 then 0
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (next_u64 t) 1) (Int64.of_int bound))

(* CRC32 (IEEE 802.3, reflected) — same polynomial as Checkpoint_store
   so "the wire check" and "the disk check" are the same arithmetic. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c))

let crc32 (b : Bytes.t) =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = 0 to Bytes.length b - 1 do
    c := table.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

type t = {
  config : config;
  l_src : int;
  l_dst : int;
  rng : rng;
  mutable is_down : bool;
  mutable is_quarantined : bool;
  mutable consec_failures : int;
  mutable n_sends : int;
  mutable n_delivered : int;
  mutable n_retries : int;
  mutable n_drops : int;
  mutable n_crc : int;
  mutable n_stalls : int;
  mutable total_seconds : float;
}

let create ?(config = default_config) ~seed ~src ~dst () =
  (match validate_config config with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Link.create: %s" e));
  let mix =
    Int64.logxor (Int64.of_int seed)
      (Int64.of_int ((src * 8191) + (dst * 131) + 0x5bd1))
  in
  {
    config;
    l_src = src;
    l_dst = dst;
    rng = { state = mix };
    is_down = false;
    is_quarantined = false;
    consec_failures = 0;
    n_sends = 0;
    n_delivered = 0;
    n_retries = 0;
    n_drops = 0;
    n_crc = 0;
    n_stalls = 0;
    total_seconds = 0.0;
  }

let src t = t.l_src
let dst t = t.l_dst

type outcome = {
  delivered : bool;
  attempts : int;
  seconds : float;
  dropped : int;
  crc_detected : int;
  stalled : int;
}

let transfer_time t bytes =
  t.config.latency_s +. (float_of_int bytes /. t.config.bandwidth_bytes_per_s)

(* Model the receiver's CRC check on a corrupted packet: flip one
   seeded bit of a synthetic payload image and compare checksums. A
   single bit flip is always caught by CRC32, so this returns true by
   construction — the point is that the check is real, not assumed. *)
let corrupt_detected t ~bytes =
  let n = max 1 (min bytes 64) in
  let payload = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set payload i (Char.chr ((i * 37 + t.n_sends) land 0xFF))
  done;
  let sent_crc = crc32 payload in
  let bit = rand_below t.rng (n * 8) in
  let byte = bit / 8 in
  Bytes.set payload byte
    (Char.chr (Char.code (Bytes.get payload byte) lxor (1 lsl (bit land 7))));
  crc32 payload <> sent_crc

let send t ~bytes =
  if bytes < 0 then invalid_arg "Link.send: negative byte count";
  t.n_sends <- t.n_sends + 1;
  if t.is_down || t.is_quarantined then begin
    t.consec_failures <- t.consec_failures + 1;
    {
      delivered = false;
      attempts = 0;
      seconds = 0.0;
      dropped = 0;
      crc_detected = 0;
      stalled = 0;
    }
  end
  else begin
    let c = t.config in
    let seconds = ref 0.0 in
    let dropped = ref 0 in
    let crc = ref 0 in
    let stalled = ref 0 in
    let delivered = ref false in
    let attempts = ref 0 in
    while (not !delivered) && !attempts < c.max_attempts do
      incr attempts;
      if !attempts > 1 then
        seconds :=
          !seconds +. (c.backoff_s *. (2.0 ** float_of_int (!attempts - 2)));
      let faulty = c.fault_rate > 0.0 && uniform t.rng < c.fault_rate in
      if not faulty then begin
        seconds := !seconds +. transfer_time t bytes;
        delivered := true
      end
      else
        match List.nth c.fault_kinds (rand_below t.rng (List.length c.fault_kinds)) with
        | Drop ->
            incr dropped;
            seconds := !seconds +. c.timeout_s
        | Corrupt ->
            (* The packet crosses the wire, fails the CRC compare, and
               is discarded by the receiver. *)
            seconds := !seconds +. transfer_time t bytes;
            assert (corrupt_detected t ~bytes);
            incr crc
        | Stall ->
            incr stalled;
            seconds := !seconds +. (transfer_time t bytes *. c.stall_factor);
            delivered := true
    done;
    t.n_retries <- t.n_retries + (!attempts - 1);
    t.n_drops <- t.n_drops + !dropped;
    t.n_crc <- t.n_crc + !crc;
    t.n_stalls <- t.n_stalls + !stalled;
    t.total_seconds <- t.total_seconds +. !seconds;
    if !delivered then begin
      t.n_delivered <- t.n_delivered + 1;
      t.consec_failures <- 0
    end
    else begin
      t.consec_failures <- t.consec_failures + 1;
      if t.consec_failures >= c.quarantine_after then t.is_quarantined <- true
    end;
    {
      delivered = !delivered;
      attempts = !attempts;
      seconds = !seconds;
      dropped = !dropped;
      crc_detected = !crc;
      stalled = !stalled;
    }
  end

let set_down t b = t.is_down <- b
let quarantined t = t.is_quarantined

let sends t = t.n_sends
let retries t = t.n_retries
let crc_detected t = t.n_crc
let seconds t = t.total_seconds

let pp fmt t =
  Format.fprintf fmt
    "link %d->%d: %d sends, %d delivered, %d retries, %d drops, %d crc, %d stalls, %.3e s%s%s"
    t.l_src t.l_dst t.n_sends t.n_delivered t.n_retries t.n_drops t.n_crc
    t.n_stalls t.total_seconds
    (if t.is_down then " [down]" else "")
    (if t.is_quarantined then " [quarantined]" else "")
