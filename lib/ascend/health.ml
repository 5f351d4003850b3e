exception Core_dead of { core : int; cycle : float }
exception All_cores_dead

type reason = Killed | Quarantined of int | Marked

let reason_to_string = function
  | Killed -> "killed at seeded cycle"
  | Quarantined n -> Printf.sprintf "quarantined after %d faults" n
  | Marked -> "marked dead"

type t = {
  num_cores : int;
  kill_at : float array;  (* cycle threshold per core; infinity = never *)
  cycles : float array;  (* cumulative charged busy cycles per core *)
  faults : int array;  (* injected faults attributed per core *)
  dead : bool array;
  quarantine_after : int option;
  inert_config : bool;  (* no kills seeded and no quarantine budget *)
  mutable num_dead : int;
  mutable total_deaths : int;  (* cumulative, never decremented *)
  mutable revivals : int;  (* chaos revivals, part of the generation stamp *)
  mutable deaths : (int * float * reason) list;  (* newest first *)
}

let create ~num_cores ?(kills = []) ?quarantine_after () =
  if num_cores < 1 then invalid_arg "Health.create: num_cores must be >= 1";
  (match quarantine_after with
  | Some n when n < 1 ->
      invalid_arg "Health.create: quarantine_after must be >= 1"
  | _ -> ());
  let kill_at = Array.make num_cores infinity in
  List.iter
    (fun (core, cycle) ->
      if core < 0 || core >= num_cores then
        invalid_arg
          (Printf.sprintf "Health.create: core %d out of range [0,%d)" core
             num_cores);
      if cycle < 0.0 then
        invalid_arg "Health.create: kill cycle must be >= 0";
      kill_at.(core) <- Float.min kill_at.(core) cycle)
    kills;
  {
    num_cores;
    kill_at;
    cycles = Array.make num_cores 0.0;
    faults = Array.make num_cores 0;
    dead = Array.make num_cores false;
    quarantine_after;
    inert_config =
      quarantine_after = None && Array.for_all (fun k -> k = infinity) kill_at;
    num_dead = 0;
    total_deaths = 0;
    revivals = 0;
    deaths = [];
  }

let num_cores t = t.num_cores

let check_core t core =
  if core < 0 || core >= t.num_cores then
    invalid_arg
      (Printf.sprintf "Health: core %d out of range [0,%d)" core t.num_cores)

let kill_threshold t core =
  check_core t core;
  t.kill_at.(core)

let cycles_done t core =
  check_core t core;
  t.cycles.(core)

let alive t core =
  check_core t core;
  (not t.dead.(core)) && t.cycles.(core) < t.kill_at.(core)

let mark_dead ?(reason = Marked) t ~core =
  check_core t core;
  if not t.dead.(core) then begin
    t.dead.(core) <- true;
    t.num_dead <- t.num_dead + 1;
    t.total_deaths <- t.total_deaths + 1;
    t.deaths <- (core, t.cycles.(core), reason) :: t.deaths
  end

let alive_cores t =
  let acc = ref [] in
  for c = t.num_cores - 1 downto 0 do
    if alive t c then acc := c :: !acc
  done;
  !acc

let num_alive t =
  let n = ref 0 in
  for c = 0 to t.num_cores - 1 do
    if alive t c then incr n
  done;
  !n

let note_cycles t ~core cycles =
  check_core t core;
  t.cycles.(core) <- t.cycles.(core) +. cycles;
  if t.cycles.(core) >= t.kill_at.(core) then
    mark_dead ~reason:Killed t ~core

let note_fault t ~core ~cycle =
  check_core t core;
  t.faults.(core) <- t.faults.(core) + 1;
  match t.quarantine_after with
  | Some n when t.faults.(core) >= n && not t.dead.(core) ->
      t.cycles.(core) <- Float.max t.cycles.(core) cycle;
      mark_dead ~reason:(Quarantined t.faults.(core)) t ~core;
      raise (Core_dead { core; cycle })
  | _ -> ()

let revive t ~core =
  check_core t core;
  if t.dead.(core) then begin
    t.dead.(core) <- false;
    t.num_dead <- t.num_dead - 1;
    t.revivals <- t.revivals + 1;
    (* A seeded kill keeps [alive] false through the cycle clock; a
       revived core must not instantly re-die on its old threshold. *)
    if t.cycles.(core) >= t.kill_at.(core) then t.kill_at.(core) <- infinity
  end

let deaths t = List.rev t.deaths
(* Monotonic: [num_dead] would alias a kill->revive cycle back to the
   starting stamp, leaving a snapshot taken while the core was dead
   looking fresh after the revive. *)
let generation t = t.total_deaths + t.revivals

(* An inert monitor can never raise [Core_dead] nor shrink the alive
   set: no seeded kills, no quarantine budget, nothing dead yet. The
   launch engine uses this to prove a phase safe for domain-parallel
   block execution. *)
let inert t = t.inert_config && t.num_dead = 0

let parse_kill_spec s =
  let fail () =
    Error
      (Printf.sprintf
         "invalid kill spec %S: expected CORE or CORE@CYCLE with CORE a \
          non-negative integer and CYCLE a non-negative number"
         s)
  in
  let parse_core c =
    match int_of_string_opt c with
    | Some core when core >= 0 -> Some core
    | _ -> None
  in
  match String.split_on_char '@' s with
  | [ c ] -> (
      match parse_core c with
      | Some core -> Ok (core, 0.0)
      | None -> fail ())
  | [ c; cyc ] -> (
      match (parse_core c, float_of_string_opt cyc) with
      | Some core, Some cycle when cycle >= 0.0 && Float.is_finite cycle ->
          Ok (core, cycle)
      | _ -> fail ())
  | _ -> fail ()

let pp fmt t =
  let n_alive = num_alive t in
  Format.fprintf fmt "@[<v>core health: %d/%d alive" n_alive t.num_cores;
  List.iter
    (fun (core, cycle, reason) ->
      Format.fprintf fmt "@   core %d dead at %.0f cycles (%s)" core cycle
        (reason_to_string reason))
    (deaths t);
  Format.fprintf fmt "@]"
