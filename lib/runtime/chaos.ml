open Ascend

exception Host_crash of string

type action =
  | Kill of { core : int }
  | Quarantine of { core : int; for_launches : int }
  | Storm of {
      rate : float;
      kinds : Fault.kind list;
      scope : Fault.scope;
      stall_factor : float option;
      for_launches : int;
    }
  | Crash

type trigger = At_launch of int | At_time of float

type event = { trigger : trigger; action : action }

type scenario = {
  sc_name : string;
  sc_seed : int;
  sc_rate : float;
  sc_events : event list;
}

let scope_to_string = function
  | Fault.All_mtes -> "all"
  | Fault.Cube_mtes -> "cube"
  | Fault.Vec_mtes -> "vec"

let action_to_string = function
  | Kill { core } -> Printf.sprintf "kill core=%d" core
  | Quarantine { core; for_launches } ->
      Printf.sprintf "quarantine core=%d for=%d" core for_launches
  | Storm { rate; kinds; scope; stall_factor; for_launches } ->
      Printf.sprintf "storm rate=%g kinds=%s scope=%s%s for=%d" rate
        (String.concat "," (List.map Fault.kind_to_string kinds))
        (scope_to_string scope)
        (match stall_factor with
        | Some f -> Printf.sprintf " factor=%g" f
        | None -> "")
        for_launches
  | Crash -> "crash"

let trigger_to_string = function
  | At_launch n -> Printf.sprintf "launch %d" n
  | At_time t -> Printf.sprintf "time %g" t

let pp_scenario fmt sc =
  Format.fprintf fmt "@[<v>scenario %S: seed %d, base rate %g, %d event%s"
    sc.sc_name sc.sc_seed sc.sc_rate
    (List.length sc.sc_events)
    (if List.length sc.sc_events = 1 then "" else "s");
  List.iter
    (fun e ->
      Format.fprintf fmt "@   at %s %s"
        (trigger_to_string e.trigger)
        (action_to_string e.action))
    sc.sc_events;
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Parser *)

let fail_line ln msg = Error (Printf.sprintf "line %d: %s" ln msg)

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  String.split_on_char ' ' (String.trim (strip_comment line))
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

(* key=value arguments of an event action. *)
let parse_kv ln tok =
  match String.index_opt tok '=' with
  | Some i when i > 0 && i < String.length tok - 1 ->
      Ok
        ( String.sub tok 0 i,
          String.sub tok (i + 1) (String.length tok - i - 1) )
  | _ -> fail_line ln (Printf.sprintf "expected key=value, got %S" tok)

let parse_int ln key s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> fail_line ln (Printf.sprintf "%s: expected an integer, got %S" key s)

let parse_float ln key s =
  match float_of_string_opt s with
  | Some v when not (Float.is_nan v) -> Ok v
  | _ -> fail_line ln (Printf.sprintf "%s: expected a number, got %S" key s)

let parse_kind ln s =
  match
    List.find_opt (fun k -> Fault.kind_to_string k = s) Fault.all_kinds
  with
  | Some k -> Ok k
  | None ->
      fail_line ln
        (Printf.sprintf "unknown fault kind %S (expected one of %s)" s
           (String.concat ", " (List.map Fault.kind_to_string Fault.all_kinds)))

let parse_scope ln s =
  match s with
  | "all" -> Ok Fault.All_mtes
  | "cube" -> Ok Fault.Cube_mtes
  | "vec" -> Ok Fault.Vec_mtes
  | _ -> fail_line ln (Printf.sprintf "scope: expected all|cube|vec, got %S" s)

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let rec parse_kvs ln = function
  | [] -> Ok []
  | tok :: rest ->
      let* kv = parse_kv ln tok in
      let* kvs = parse_kvs ln rest in
      Ok (kv :: kvs)

let find_kv kvs key = List.assoc_opt key kvs

let require_kv ln kvs key =
  match find_kv kvs key with
  | Some v -> Ok v
  | None -> fail_line ln (Printf.sprintf "missing required argument %s=..." key)

let reject_unknown ln kvs allowed =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) kvs with
  | Some (k, _) -> fail_line ln (Printf.sprintf "unknown argument %S" k)
  | None -> Ok ()

let parse_for ln kvs ~default =
  match find_kv kvs "for" with
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> fail_line ln "missing required argument for=LAUNCHES")
  | Some s ->
      let* v = parse_int ln "for" s in
      if v < 1 then fail_line ln "for: window must be >= 1 launches" else Ok v

let parse_action ln = function
  | [] -> fail_line ln "missing action"
  | verb :: args -> (
      let* kvs = parse_kvs ln args in
      match verb with
      | "kill" ->
          if find_kv kvs "device" <> None then
            fail_line ln
              "kill device=D: whole-device kills are not supported (a run \
               has one device); use kill core=C"
          else
            let* () = reject_unknown ln kvs [ "core" ] in
            let* core_s = require_kv ln kvs "core" in
            let* core = parse_int ln "core" core_s in
            if core < 0 then fail_line ln "core: must be >= 0"
            else Ok (Kill { core })
      | "quarantine" ->
          let* () = reject_unknown ln kvs [ "core"; "for" ] in
          let* core_s = require_kv ln kvs "core" in
          let* core = parse_int ln "core" core_s in
          let* for_launches = parse_for ln kvs ~default:None in
          if core < 0 then fail_line ln "core: must be >= 0"
          else Ok (Quarantine { core; for_launches })
      | "storm" ->
          let* () =
            reject_unknown ln kvs [ "rate"; "kinds"; "scope"; "factor"; "for" ]
          in
          let* rate_s = require_kv ln kvs "rate" in
          let* rate = parse_float ln "rate" rate_s in
          if rate < 0.0 || rate > 1.0 then
            fail_line ln "rate: must be a probability in [0,1]"
          else
            let* kinds =
              match find_kv kvs "kinds" with
              | None ->
                  Ok (List.filter Fault.corrupts_data Fault.all_kinds)
              | Some s ->
                  let rec go = function
                    | [] -> Ok []
                    | k :: rest ->
                        let* kind = parse_kind ln k in
                        let* kinds = go rest in
                        Ok (kind :: kinds)
                  in
                  let* ks = go (String.split_on_char ',' s) in
                  if ks = [] then fail_line ln "kinds: empty list" else Ok ks
            in
            let* scope =
              match find_kv kvs "scope" with
              | None -> Ok Fault.All_mtes
              | Some s -> parse_scope ln s
            in
            let* stall_factor =
              match find_kv kvs "factor" with
              | None -> Ok None
              | Some s ->
                  let* f = parse_float ln "factor" s in
                  if f < 1.0 then fail_line ln "factor: must be >= 1"
                  else Ok (Some f)
            in
            let* for_launches = parse_for ln kvs ~default:None in
            Ok (Storm { rate; kinds; scope; stall_factor; for_launches })
      | "stall" ->
          let* () = reject_unknown ln kvs [ "factor"; "for" ] in
          let* factor_s = require_kv ln kvs "factor" in
          let* factor = parse_float ln "factor" factor_s in
          if factor < 1.0 then fail_line ln "factor: must be >= 1"
          else
            let* for_launches = parse_for ln kvs ~default:None in
            Ok
              (Storm
                 {
                   rate = 1.0;
                   kinds = [ Fault.Engine_stall ];
                   scope = Fault.All_mtes;
                   stall_factor = Some factor;
                   for_launches;
                 })
      | "link" ->
          fail_line ln
            "link: device-link outages are not supported (a run has one \
             device and no links)"
      | "crash" ->
          let* () = reject_unknown ln kvs [] in
          Ok Crash
      | _ ->
          fail_line ln
            (Printf.sprintf
               "unknown action %S (expected kill, quarantine, storm, stall \
                or crash)"
               verb))

let parse contents =
  let lines = String.split_on_char '\n' contents in
  let name = ref "" in
  let seed = ref 0 in
  let rate = ref 0.0 in
  let events = ref [] in
  let rec go ln = function
    | [] -> Ok ()
    | line :: rest -> (
        let* () =
          match tokens line with
          | [] -> Ok ()
          | [ "name"; n ] ->
              name := n;
              Ok ()
          | [ "seed"; s ] ->
              let* v = parse_int ln "seed" s in
              if v < 0 then fail_line ln "seed: must be >= 0"
              else begin
                seed := v;
                Ok ()
              end
          | [ "rate"; s ] ->
              let* v = parse_float ln "rate" s in
              if v < 0.0 || v > 1.0 then
                fail_line ln "rate: must be a probability in [0,1]"
              else begin
                rate := v;
                Ok ()
              end
          | "at" :: "launch" :: n :: action ->
              let* idx = parse_int ln "launch" n in
              if idx < 0 then fail_line ln "launch: index must be >= 0"
              else
                let* act = parse_action ln action in
                events := { trigger = At_launch idx; action = act } :: !events;
                Ok ()
          | "at" :: "time" :: t :: action ->
              let* time = parse_float ln "time" t in
              if time < 0.0 then fail_line ln "time: must be >= 0 seconds"
              else
                let* act = parse_action ln action in
                events := { trigger = At_time time; action = act } :: !events;
                Ok ()
          | tok :: _ ->
              fail_line ln
                (Printf.sprintf
                   "unknown directive %S (expected name, seed, rate, or 'at \
                    launch N ...' / 'at time T ...')"
                   tok)
        in
        go (ln + 1) rest)
  in
  match go 1 lines with
  | Error e ->
      Error
        (Printf.sprintf
           "invalid chaos scenario: %s" e)
  | Ok () ->
      Ok
        {
          sc_name = !name;
          sc_seed = !seed;
          sc_rate = !rate;
          sc_events = List.rev !events;
        }

let load path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match parse contents with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok sc ->
          let name = if sc.sc_name = "" then Filename.basename path else sc.sc_name in
          Ok { sc with sc_name = name })

let fault_config sc =
  Fault.config ~seed:sc.sc_seed ~rate:sc.sc_rate ()

(* ------------------------------------------------------------------ *)
(* Armed scheduler *)

type expiry = Restore_fault of Fault.config | Revive of int

type t = {
  sc : scenario;
  skip_crashes : bool;
  on_crash : string -> unit;
  mutable pending : event list;  (* unfired, file order *)
  mutable expiries : (int * expiry) list;  (* (due launch index, action) *)
  mutable log : (int * string) list;  (* newest first *)
  mutable did_crash : bool;
}

let arm ?(skip_crashes = false) ?on_crash sc =
  {
    sc;
    skip_crashes;
    on_crash =
      (match on_crash with
      | Some f -> f
      | None -> fun msg -> raise (Host_crash msg));
    pending = sc.sc_events;
    expiries = [];
    log = [];
    did_crash = false;
  }

let scenario t = t.sc
let fired t = List.rev t.log
let crashed t = t.did_crash

let note t device ~launch_index msg =
  t.log <- (launch_index, msg) :: t.log;
  match Device.trace device with
  | Some tr -> Trace.note tr Trace.Info ~name:("chaos: " ^ msg)
  | None -> ()

let apply_expiry t device ~launch_index = function
  | Restore_fault cfg -> (
      match Device.fault device with
      | Some f ->
          Fault.set_config f cfg;
          note t device ~launch_index "storm expired, base policy restored"
      | None -> ())
  | Revive core ->
      Health.revive (Device.health device) ~core;
      note t device ~launch_index
        (Printf.sprintf "quarantine expired, core %d revived" core)

let apply t device ~launch_index = function
  | Kill { core } ->
      if core < Device.num_cores device then begin
        Health.mark_dead (Device.health device) ~core;
        note t device ~launch_index (Printf.sprintf "killed core %d" core)
      end
      else
        note t device ~launch_index
          (Printf.sprintf "kill skipped: core %d out of range" core)
  | Quarantine { core; for_launches } ->
      if core < Device.num_cores device then begin
        Health.mark_dead (Device.health device) ~core;
        t.expiries <-
          t.expiries @ [ (launch_index + for_launches, Revive core) ];
        note t device ~launch_index
          (Printf.sprintf "quarantined core %d for %d launches" core
             for_launches)
      end
      else
        note t device ~launch_index
          (Printf.sprintf "quarantine skipped: core %d out of range" core)
  | Storm { rate; kinds; scope; stall_factor; for_launches } -> (
      match Device.fault device with
      | None ->
          note t device ~launch_index
            "storm skipped: device has no fault model"
      | Some f ->
          let base = Fault.config_of f in
          (* Stack discipline: a storm landing inside a storm restores
             to the original base config, never the inner override. *)
          let restore_to =
            match
              List.find_opt
                (function _, Restore_fault _ -> true | _ -> false)
                t.expiries
            with
            | Some (_, Restore_fault cfg) -> cfg
            | _ -> base
          in
          t.expiries <-
            List.filter
              (function _, Restore_fault _ -> false | _ -> true)
              t.expiries
            @ [ (launch_index + for_launches, Restore_fault restore_to) ];
          Fault.set_config f
            (Fault.config ~seed:base.Fault.seed ~rate ~kinds ~scope
               ?stall_factor ~kills:base.Fault.kills
               ?quarantine_after:base.Fault.quarantine_after ());
          note t device ~launch_index
            (Printf.sprintf "storm: rate %g, %d kind%s, scope %s, %d launches"
               rate (List.length kinds)
               (if List.length kinds = 1 then "" else "s")
               (scope_to_string scope) for_launches))
  | Crash ->
      t.did_crash <- true;
      if t.skip_crashes then
        note t device ~launch_index "crash skipped (resume)"
      else begin
        note t device ~launch_index "host crash";
        t.on_crash
          (Printf.sprintf "chaos crash event at launch %d" launch_index)
      end

let due trigger ~launch_index ~elapsed_s =
  match trigger with
  | At_launch n -> launch_index >= n
  | At_time s -> elapsed_s >= s

let before_launch t device ~launch_index ~elapsed_s =
  let due_exp, rest =
    List.partition (fun (at, _) -> launch_index >= at) t.expiries
  in
  t.expiries <- rest;
  List.iter (fun (_, e) -> apply_expiry t device ~launch_index e) due_exp;
  let fire, keep =
    List.partition (fun e -> due e.trigger ~launch_index ~elapsed_s) t.pending
  in
  t.pending <- keep;
  List.iter (fun e -> apply t device ~launch_index e.action) fire
