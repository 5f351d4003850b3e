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

type config = {
  window : int;
  min_samples : int;
  open_threshold : float;
  cooldown_s : float;
  max_cooldown_s : float;
  base_backoff_s : float;
  max_backoff_s : float;
  max_attempts : int;
  probe_attempts : int;
  shed_attempts : int;
  recover_after : int;
}

let default_config =
  {
    window = 8;
    min_samples = 4;
    open_threshold = 0.5;
    cooldown_s = 4e-6;
    max_cooldown_s = 1e-3;
    base_backoff_s = 1e-6;
    max_backoff_s = 1e-4;
    max_attempts = 3;
    probe_attempts = 1;
    shed_attempts = 6;
    recover_after = 4;
  }

let config ?(window = default_config.window)
    ?(min_samples = default_config.min_samples)
    ?(open_threshold = default_config.open_threshold)
    ?(cooldown_s = default_config.cooldown_s)
    ?(max_cooldown_s = default_config.max_cooldown_s)
    ?(base_backoff_s = default_config.base_backoff_s)
    ?(max_backoff_s = default_config.max_backoff_s)
    ?(max_attempts = default_config.max_attempts)
    ?(probe_attempts = default_config.probe_attempts)
    ?(shed_attempts = default_config.shed_attempts)
    ?(recover_after = default_config.recover_after) () =
  if window < 1 then invalid_arg "Degrade_ctl.config: window must be >= 1";
  if min_samples < 1 then
    invalid_arg "Degrade_ctl.config: min_samples must be >= 1";
  if
    open_threshold <= 0.0 || open_threshold > 1.0
    || Float.is_nan open_threshold
  then invalid_arg "Degrade_ctl.config: open_threshold must be in (0,1]";
  if cooldown_s < 0.0 || max_cooldown_s < 0.0 || base_backoff_s < 0.0
     || max_backoff_s < 0.0
  then invalid_arg "Degrade_ctl.config: negative time";
  if max_attempts < 1 || probe_attempts < 1 then
    invalid_arg "Degrade_ctl.config: attempt budgets must be >= 1";
  if shed_attempts < 1 then
    invalid_arg "Degrade_ctl.config: shed_attempts must be >= 1";
  if recover_after < 1 then
    invalid_arg "Degrade_ctl.config: recover_after must be >= 1";
  {
    window;
    min_samples;
    open_threshold;
    cooldown_s;
    max_cooldown_s;
    base_backoff_s;
    max_backoff_s;
    max_attempts;
    probe_attempts;
    shed_attempts;
    recover_after;
  }

(* The breaker needs [min_samples] outcomes in a [window]-sized ring,
   so a window smaller than [min_samples] never trips it: no cooldown,
   no half-open probe, no brownout. *)
let fixed ?(max_attempts = 3) ?(backoff_s = 0.0) () =
  config ~window:1 ~min_samples:2 ~base_backoff_s:backoff_s
    ~max_backoff_s:Float.infinity ~max_attempts ()

type decision = {
  seq : int;
  d_state : state;
  d_level : level;
  d_cooldown_s : float;
  d_reason : string;
}

type t = {
  cfg : config;
  on_decision : decision -> unit;
  outcomes : bool array;  (* ring buffer, true = failure *)
  mutable filled : int;  (* samples in the window, <= cfg.window *)
  mutable cursor : int;
  mutable failures : int;  (* failures currently in the window *)
  mutable st : state;
  mutable lvl : level;
  mutable consec_successes : int;
  mutable pending_cooldown : float;  (* charged by the next before_attempt *)
  mutable next_cooldown : float;  (* doubles on every re-open *)
  mutable n_opens : int;
  mutable log : decision list;  (* newest first *)
  mutable n_decisions : int;
}

let create ?(config = default_config) ?(on_decision = fun _ -> ()) () =
  {
    cfg = config;
    on_decision;
    outcomes = Array.make config.window false;
    filled = 0;
    cursor = 0;
    failures = 0;
    st = Closed;
    lvl = Normal;
    consec_successes = 0;
    pending_cooldown = 0.0;
    next_cooldown = config.cooldown_s;
    n_opens = 0;
    log = [];
    n_decisions = 0;
  }

let state t = t.st
let level t = t.lvl
let can_open t = t.cfg.min_samples <= t.cfg.window
let opens t = t.n_opens
let decisions t = List.rev t.log

let decide t ?(cooldown = 0.0) reason =
  let d =
    {
      seq = t.n_decisions;
      d_state = t.st;
      d_level = t.lvl;
      d_cooldown_s = cooldown;
      d_reason = reason;
    }
  in
  t.log <- d :: t.log;
  t.n_decisions <- t.n_decisions + 1;
  t.on_decision d

let push_outcome t ~failed =
  if t.filled = t.cfg.window then begin
    (* Evict the oldest sample before overwriting its slot. *)
    if t.outcomes.(t.cursor) then t.failures <- t.failures - 1
  end
  else t.filled <- t.filled + 1;
  t.outcomes.(t.cursor) <- failed;
  if failed then t.failures <- t.failures + 1;
  t.cursor <- (t.cursor + 1) mod t.cfg.window

let clear_window t =
  Array.fill t.outcomes 0 t.cfg.window false;
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
  t.next_cooldown <- Float.min t.cfg.max_cooldown_s (t.next_cooldown *. 2.0);
  escalate t;
  decide t ~cooldown reason

let record t ~ok =
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
      t.consec_successes >= t.cfg.recover_after
      && level_rank t.lvl > 0 && t.st = Closed
    then begin
      t.lvl <- level_of_rank (level_rank t.lvl - 1);
      t.consec_successes <- 0;
      decide t
        (Printf.sprintf "%d consecutive successes, de-escalating"
           t.cfg.recover_after)
    end
  end
  else begin
    t.consec_successes <- 0;
    match t.st with
    | Half_open -> open_breaker t "half-open probe failed"
    | Closed ->
        let rate = failure_rate t in
        if t.filled >= t.cfg.min_samples && rate >= t.cfg.open_threshold then
          open_breaker t
            (Printf.sprintf "failure rate %.2f >= %.2f over %d" rate
               t.cfg.open_threshold t.filled)
    | Open -> ()
  end

let before_attempt t ~attempt =
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
  let backoff =
    if attempt > 1 && t.cfg.base_backoff_s > 0.0 then
      Float.min t.cfg.max_backoff_s
        (t.cfg.base_backoff_s *. (2.0 ** float_of_int (attempt - 2)))
    else 0.0
  in
  cooldown +. backoff

let attempts_allowed t =
  match t.st with
  | Closed -> t.cfg.max_attempts
  | Open | Half_open -> t.cfg.probe_attempts

let granularity t ~base =
  match t.lvl with
  | Normal -> base
  | Shrink_groups -> max 1 (base / 2)
  | Switch_schedule | Shrink_exchange | Shed_rows -> max 1 (base / 4)

let switch_schedule t = level_rank t.lvl >= level_rank Switch_schedule

let shed t ~group_attempts =
  t.lvl = Shed_rows && group_attempts >= t.cfg.shed_attempts

let pp_decision fmt d =
  Format.fprintf fmt "#%d %s/%s%s: %s" d.seq
    (state_to_string d.d_state)
    (level_to_string d.d_level)
    (if d.d_cooldown_s > 0.0 then
       Printf.sprintf " (%.1f us cooldown)" (d.d_cooldown_s *. 1e6)
     else "")
    d.d_reason

let pp fmt t =
  Format.fprintf fmt
    "@[<v>degrade controller: %s/%s, %d opening%s, %d decision%s"
    (state_to_string t.st) (level_to_string t.lvl) t.n_opens
    (if t.n_opens = 1 then "" else "s")
    t.n_decisions
    (if t.n_decisions = 1 then "" else "s");
  List.iter (fun d -> Format.fprintf fmt "@   %a" pp_decision d) (decisions t);
  Format.fprintf fmt "@]"
