type state = Closed | Open | Half_open

let state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

type level =
  | Normal
  | Shrink_groups
  | Switch_schedule
  | Shrink_exchange
  | Shed_rows

let level_to_string = function
  | Normal -> "normal"
  | Shrink_groups -> "shrink_groups"
  | Switch_schedule -> "switch_schedule"
  | Shrink_exchange -> "shrink_exchange"
  | Shed_rows -> "shed_rows"

let level_rank = function
  | Normal -> 0
  | Shrink_groups -> 1
  | Switch_schedule -> 2
  | Shrink_exchange -> 3
  | Shed_rows -> 4

let level_of_rank = function
  | 0 -> Normal
  | 1 -> Shrink_groups
  | 2 -> Switch_schedule
  | 3 -> Shrink_exchange
  | _ -> Shed_rows

type policy = Adaptive | Fixed of { max_attempts : int; backoff_s : float }

let fixed ?(max_attempts = 3) ?(backoff_s = 0.0) () =
  if max_attempts < 1 then
    invalid_arg "Degrade_ctl.fixed: max_attempts must be >= 1";
  if backoff_s < 0.0 then invalid_arg "Degrade_ctl.fixed: negative backoff";
  Fixed { max_attempts; backoff_s }

(* The adaptive policy's constants, documented in the interface. *)
let window = 8
let min_samples = 4
let open_threshold = 0.5
let cooldown_s = 4e-6
let max_cooldown_s = 1e-3
let base_backoff_s = 1e-6
let max_backoff_s = 1e-4
let max_attempts = 3
let probe_attempts = 1
let shed_attempts = 6
let recover_after = 4

type decision = {
  seq : int;
  d_state : state;
  d_level : level;
  d_cooldown_s : float;
  d_reason : string;
}

(* The breaker and ladder state of the adaptive policy. *)
type breaker = {
  on_decision : decision -> unit;
  outcomes : bool array;  (* ring buffer, true = failure *)
  mutable filled : int;  (* samples in the window, <= window *)
  mutable cursor : int;
  mutable failures : int;  (* failures currently in the window *)
  mutable st : state;
  mutable lvl : level;
  mutable consec_successes : int;
  mutable pending_cooldown : float;  (* charged by the next before_attempt *)
  mutable next_cooldown : float;  (* doubles on every re-open *)
  mutable n_opens : int;
  mutable log : decision list;  (* newest first *)
}

(* A fixed controller has no state: its breaker never opens. *)
type t = Budget of { max_attempts : int; backoff_s : float } | Breaker of breaker

let create ?(policy = Adaptive) ?(on_decision = fun _ -> ()) () =
  match policy with
  | Fixed { max_attempts; backoff_s } -> Budget { max_attempts; backoff_s }
  | Adaptive ->
      Breaker
        {
          on_decision;
          outcomes = Array.make window false;
          filled = 0;
          cursor = 0;
          failures = 0;
          st = Closed;
          lvl = Normal;
          consec_successes = 0;
          pending_cooldown = 0.0;
          next_cooldown = cooldown_s;
          n_opens = 0;
          log = [];
        }

let policy = function
  | Budget { max_attempts; backoff_s } -> Fixed { max_attempts; backoff_s }
  | Breaker _ -> Adaptive

let state = function Budget _ -> Closed | Breaker t -> t.st
let level = function Budget _ -> Normal | Breaker t -> t.lvl
let opens = function Budget _ -> 0 | Breaker t -> t.n_opens
let decisions = function Budget _ -> [] | Breaker t -> List.rev t.log

let decide t ?(cooldown = 0.0) reason =
  let d =
    {
      seq = List.length t.log;
      d_state = t.st;
      d_level = t.lvl;
      d_cooldown_s = cooldown;
      d_reason = reason;
    }
  in
  t.log <- d :: t.log;
  t.on_decision d

let push_outcome t ~failed =
  if t.filled = window then begin
    (* Evict the oldest sample before overwriting its slot. *)
    if t.outcomes.(t.cursor) then t.failures <- t.failures - 1
  end
  else t.filled <- t.filled + 1;
  t.outcomes.(t.cursor) <- failed;
  if failed then t.failures <- t.failures + 1;
  t.cursor <- (t.cursor + 1) mod window

let clear_window t =
  Array.fill t.outcomes 0 window false;
  t.filled <- 0;
  t.cursor <- 0;
  t.failures <- 0

let failure_rate t =
  if t.filled = 0 then 0.0 else float_of_int t.failures /. float_of_int t.filled

let escalate t =
  t.lvl <- level_of_rank (min (level_rank Shed_rows) (level_rank t.lvl + 1))

let open_breaker t reason =
  t.st <- Open;
  t.n_opens <- t.n_opens + 1;
  t.pending_cooldown <- t.next_cooldown;
  let cooldown = t.pending_cooldown in
  t.next_cooldown <- Float.min max_cooldown_s (t.next_cooldown *. 2.0);
  escalate t;
  decide t ~cooldown reason

let record_breaker t ~ok =
  push_outcome t ~failed:(not ok);
  if ok then begin
    t.consec_successes <- t.consec_successes + 1;
    (match t.st with
    | Half_open ->
        t.st <- Closed;
        clear_window t;
        decide t "half-open probe validated";
        t.consec_successes <- 1
    | Closed | Open -> ());
    if
      t.consec_successes >= recover_after
      && level_rank t.lvl > 0 && t.st = Closed
    then begin
      t.lvl <- level_of_rank (level_rank t.lvl - 1);
      t.consec_successes <- 0;
      decide t
        (Printf.sprintf "%d consecutive successes, de-escalating"
           recover_after)
    end
  end
  else begin
    t.consec_successes <- 0;
    match t.st with
    | Half_open -> open_breaker t "half-open probe failed"
    | Closed ->
        let rate = failure_rate t in
        if t.filled >= min_samples && rate >= open_threshold then
          open_breaker t
            (Printf.sprintf "failure rate %.2f >= %.2f over %d" rate
               open_threshold t.filled)
    | Open -> ()
  end

let record ctl ~ok =
  match ctl with Budget _ -> () | Breaker t -> record_breaker t ~ok

(* [base * 2^(attempt-2)] capped at [cap], from the second attempt on. *)
let backoff ~base ~cap ~attempt =
  if attempt > 1 && base > 0.0 then
    Float.min cap (base *. (2.0 ** float_of_int (attempt - 2)))
  else 0.0

let before_attempt ctl ~attempt =
  match ctl with
  | Budget b -> backoff ~base:b.backoff_s ~cap:Float.infinity ~attempt
  | Breaker t ->
      let cooldown =
        match t.st with
        | Open ->
            let c = t.pending_cooldown in
            t.pending_cooldown <- 0.0;
            t.st <- Half_open;
            decide t "cooldown elapsed, half-open probe";
            c
        | Closed | Half_open -> 0.0
      in
      cooldown +. backoff ~base:base_backoff_s ~cap:max_backoff_s ~attempt

let attempts_allowed = function
  | Budget b -> b.max_attempts
  | Breaker { st = Closed; _ } -> max_attempts
  | Breaker { st = Open | Half_open; _ } -> probe_attempts

let granularity ctl ~base =
  match level ctl with
  | Normal -> base
  | Shrink_groups -> max 1 (base / 2)
  | Switch_schedule | Shrink_exchange | Shed_rows -> max 1 (base / 4)

let switch_schedule ctl = level_rank (level ctl) >= level_rank Switch_schedule

let shed ctl ~group_attempts =
  level ctl = Shed_rows && group_attempts >= shed_attempts

let pp_decision fmt d =
  Format.fprintf fmt "#%d %s/%s%s: %s" d.seq
    (state_to_string d.d_state)
    (level_to_string d.d_level)
    (if d.d_cooldown_s > 0.0 then
       Printf.sprintf " (%.1f us cooldown)" (d.d_cooldown_s *. 1e6)
     else "")
    d.d_reason

let pp fmt ctl =
  let ds = decisions ctl in
  let n_opens = opens ctl and n_ds = List.length ds in
  let plural k = if k = 1 then "" else "s" in
  Format.fprintf fmt
    "@[<v>degrade controller: %s/%s, %d opening%s, %d decision%s"
    (state_to_string (state ctl))
    (level_to_string (level ctl))
    n_opens (plural n_opens) n_ds (plural n_ds);
  List.iter (fun d -> Format.fprintf fmt "@   %a" pp_decision d) ds;
  Format.fprintf fmt "@]"
