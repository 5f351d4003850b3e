open Ascend

type oracle = Checksum | Reference

type 'a report = {
  value : 'a;
  stats : Stats.t;
  attempts : int;
  detections : int;
  degraded : bool;
  backoff_seconds : float;
  ok : bool;
}

let fixed_ctl () = Degrade_ctl.create ~policy:(Degrade_ctl.fixed ()) ()

let run ?(name = "resilient") ?(ctl = fixed_ctl ()) ?fallback
    ?(on_event = fun _ -> ()) ~validate attempt =
  let stats_acc = ref [] in
  let detections = ref 0 in
  let attempts = ref 0 in
  let backoff = ref 0.0 in
  let last_exn = ref None in
  (* A launch aborted by the watchdog or by running out of cores is a
     detection like any other: the structured exceptions below count
     against the attempt budget instead of escaping mid-loop. *)
  let guarded f =
    match f () with
    | v, st ->
        stats_acc := st :: !stats_acc;
        Some v
    | exception ((Launch.Deadline_exceeded _ | Health.All_cores_dead) as e) ->
        last_exn := Some e;
        None
  in
  let rec primary () =
    incr attempts;
    backoff := !backoff +. Degrade_ctl.before_attempt ctl ~attempt:!attempts;
    let v = guarded attempt in
    let ok =
      match v with Some v -> Result.is_ok (validate v) | None -> false
    in
    Degrade_ctl.record ctl ~ok;
    if ok then (v, true)
    else begin
      incr detections;
      if !attempts < Degrade_ctl.attempts_allowed ctl then begin
        on_event `Retry;
        primary ()
      end
      else (v, false)
    end
  in
  let v, ok = primary () in
  let v, ok, degraded =
    if ok then (v, ok, false)
    else
      match fallback with
      | None -> (v, false, false)
      | Some fb -> (
          incr attempts;
          on_event `Degrade;
          match guarded fb with
          | None -> (v, false, true)
          | Some fv ->
              let fok =
                match validate fv with
                | Ok () -> true
                | Error _ ->
                    incr detections;
                    false
              in
              (Some fv, fok, true))
  in
  let v =
    match (v, !last_exn) with
    | Some v, _ -> v
    | None, Some e -> raise e
    | None, None -> assert false
  in
  let stats = Stats.combine ~name (List.rev !stats_acc) in
  let stats =
    { stats with
      Stats.seconds = stats.Stats.seconds +. !backoff;
      retries = !attempts - 1;
      degraded = (if degraded then 1 else 0) }
  in
  { value = v; stats; attempts = !attempts; detections = !detections;
    degraded; backoff_seconds = !backoff; ok }

let trace_events device name =
  match Device.trace device with
  | None -> fun _ -> ()
  | Some tr -> (
      function
      | `Retry -> Trace.note tr Trace.Retry ~name:(name ^ " retry")
      | `Degrade -> Trace.note tr Trace.Degrade ~name:(name ^ " degraded"))

(* Cheap scan oracle: one host pass chaining the dtype rounding, with
   comparisons only at [checksum_samples] strided positions plus the
   last element. O(n) time, O(1) space, no expected-array allocation.
   Generic in the monoid: [combine]/[init] default to the sum scan. *)
let checksum_samples = 64

let scan_checksum ?(combine = ( +. )) ?(init = 0.0) ~round ~exclusive ~input
    output =
  let n = Array.length input in
  if Global_tensor.length output <> n then
    Error
      (Printf.sprintf "length mismatch: expected %d, got %d" n
         (Global_tensor.length output))
  else begin
    let step = max 1 (n / checksum_samples) in
    let acc = ref init in
    let bad = ref None in
    for i = 0 to n - 1 do
      let expect =
        if exclusive then begin
          let e = !acc in
          acc := round (combine !acc input.(i));
          e
        end
        else begin
          acc := round (combine !acc input.(i));
          !acc
        end
      in
      if (i mod step = 0 || i = n - 1) && !bad = None then begin
        let got = Global_tensor.get output i in
        if not (Scan.Reference.float_eq got expect) then
          bad := Some (i, expect, got)
      end
    done;
    match !bad with
    | None -> Ok ()
    | Some (i, want, got) ->
        Error
          (Printf.sprintf "checksum mismatch at index %d: expected %g, got %g"
             i want got)
  end

let validate_scan ~oracle ~cfg ~(algo : Scan.Op_registry.entry) ~input output =
  match oracle with
  | Checksum ->
      let combine, init =
        match algo.Scan.Op_registry.monoid with
        | Some (module Op : Scan.Scan_op.S) ->
            (Op.combine, Op.identity Dtype.F16)
        | None -> (( +. ), 0.0)
      in
      scan_checksum ~combine ~init ~round:Fp16.round
        ~exclusive:cfg.Scan.Op_registry.exclusive ~input output
  | Reference ->
      algo.Scan.Op_registry.check cfg
        { Scan.Op_registry.x = input; mask = None }
        { Scan.Op_registry.y = Some output; aux = [] }

let scan ?(s = 128) ?ctl ?(oracle = Checksum) ?fallback
    ?(exclusive = false) ~(algo : Scan.Op_registry.entry) device ~input =
  if not (Device.functional device) then
    invalid_arg "Resilient.scan: requires a functional-mode device";
  let cfg =
    { Scan.Op_registry.default_config with
      Scan.Op_registry.s = Some s; exclusive }
  in
  let validate = validate_scan ~oracle ~cfg ~algo ~input in
  let launch entry name =
    let x = Device.of_array device Dtype.F16 ~name input in
    match Scan.Op_registry.run entry cfg device (Scan.Op_registry.Tensor x) with
    | Ok ({ Scan.Op_registry.y = Some y; _ }, st) -> (y, st)
    | Ok ({ y = None; _ }, _) ->
        invalid_arg
          ("Resilient.scan: " ^ entry.Scan.Op_registry.name
         ^ " returned no output tensor")
    | Error msg -> invalid_arg ("Resilient.scan: " ^ msg)
  in
  let fallback =
    (* Entries hold closures: compare by name, never structurally. *)
    match fallback with
    | Some fb when not (Scan.Op_registry.equal fb algo) ->
        Some (fun () -> launch fb "resilient_x_fb")
    | _ -> None
  in
  let name = "resilient_" ^ algo.Scan.Op_registry.name in
  run ~name ~on_event:(trace_events device name) ?ctl ?fallback ~validate
    (fun () -> launch algo "resilient_x")

type batched_schedule = U | Ul1

let batched_schedule_to_string = function U -> "u" | Ul1 -> "ul1"
let other_schedule = function U -> Ul1 | Ul1 -> U

type batched_report = {
  y : Global_tensor.t;
  bstats : Stats.t;
  checkpoint : Checkpoint.t;
  group_attempts : int;
  replayed_rows : int;
  restored_rows : int;
  shed_rows : int;
  backoff_seconds : float;
  bok : bool;
}

(* Validate rows [lo, hi): chain the fp16 host reference per row and
   compare every 64th element plus the row tail. *)
let validate_rows ~input ~len y ~lo ~hi =
  let ok = ref true in
  for r = lo to hi - 1 do
    if !ok then begin
      let acc = ref 0.0 in
      for i = 0 to len - 1 do
        acc := Fp16.round (!acc +. input.((r * len) + i));
        if
          (i land 63 = 0 || i = len - 1)
          && not
               (Scan.Reference.float_eq
                  (Global_tensor.get y ((r * len) + i))
                  !acc)
        then ok := false
      done
    end
  done;
  !ok

let batched_scan ?(s = 128) ?granularity ?(schedule = U) ?store
    ?(ctl = fixed_ctl ()) ?chaos device ~batch ~len ~input =
  let who = "Resilient.batched_scan" in
  if not (Device.functional device) then
    invalid_arg (who ^ ": requires a functional-mode device");
  if batch < 1 || len < 1 then
    invalid_arg (who ^ ": batch and len must be positive");
  if Array.length input < batch * len then
    invalid_arg (who ^ ": input shorter than batch * len");
  let base_granularity =
    match granularity with
    | None -> max 1 ((batch + 3) / 4)
    | Some g when g >= 1 -> g
    | Some _ -> invalid_arg (who ^ ": granularity must be >= 1")
  in
  let x = Device.of_array device Dtype.F16 ~name:"bscan_x" input in
  let y = Device.alloc device Dtype.F16 (batch * len) ~name:"bscan_y" in
  let stats_name =
    "resilient_bscan_" ^ batched_schedule_to_string schedule
  in
  let ck = Checkpoint.create ~rows:batch in
  let note kind name =
    match Device.trace device with
    | Some tr -> Trace.note tr kind ~name
    | None -> ()
  in
  (* Resume: replay the store's validated groups into the checkpoint
     and the output tensor before touching the device — committed rows
     are never re-executed, and their bytes are exactly the ones the
     killed process validated. *)
  let restored_rows =
    match store with
    | None -> 0
    | Some st ->
        if Checkpoint_store.rows st <> batch || Checkpoint_store.len st <> len
        then
          invalid_arg
            (Printf.sprintf "%s: store is %d rows x %d, run is %d x %d" who
               (Checkpoint_store.rows st) (Checkpoint_store.len st) batch len);
        List.iter
          (fun (lo, hi, values) ->
            for r = lo to hi - 1 do
              for i = 0 to len - 1 do
                Global_tensor.set y ((r * len) + i)
                  values.(((r - lo) * len) + i)
              done
            done;
            Checkpoint.mark ck ~lo ~hi;
            note Trace.Checkpoint
              (Printf.sprintf "rows %d-%d restored from store" lo hi))
          (Checkpoint_store.groups st);
        Checkpoint.done_count ck
  in
  let commits0 = Checkpoint.commits ck in
  let stats_acc = ref [] in
  let group_attempts = ref 0 in
  let replayed_rows = ref 0 in
  let backoff = ref 0.0 in
  let elapsed = ref 0.0 in
  let dead = ref false in
  let fail_count = Array.make batch 0 in
  let shed = Array.make batch false in
  let exec ~lo ~hi =
    let run =
      match
        if Degrade_ctl.switch_schedule ctl then other_schedule schedule
        else schedule
      with
      | U -> Scan.Batched_scan.run_u
      | Ul1 -> Scan.Batched_scan.run_ul1
    in
    let _, st = run ~s ~rows:(lo, hi) ~y device ~batch ~len x in
    stats_acc := st :: !stats_acc;
    elapsed := !elapsed +. st.Stats.seconds
  in
  let charge_backoff sec =
    if sec > 0.0 then begin
      backoff := !backoff +. sec;
      elapsed := !elapsed +. sec
    end
  in
  (* One group: retry until its rows validate or the controller's
     attempt budget is spent. Already-checkpointed rows are never
     touched again — a mid-batch failure replays only the unfinished
     remainder. *)
  let run_group (lo, hi) =
    let rec go attempt =
      (* Every group launch is a chaos boundary: due scenario events
         (kills, storms, crashes, expiries) land exactly here, so a
         storyline is a pure function of the attempt sequence. *)
      Option.iter
        (fun ch ->
          Chaos.before_launch ch device ~launch_index:!group_attempts
            ~elapsed_s:!elapsed)
        chaos;
      if !dead then false
      else begin
        charge_backoff (Degrade_ctl.before_attempt ctl ~attempt);
        incr group_attempts;
        if attempt > 1 then begin
          replayed_rows := !replayed_rows + (hi - lo);
          note Trace.Retry
            (Printf.sprintf "bscan rows %d-%d attempt %d" lo hi attempt)
        end;
        let budget = Degrade_ctl.attempts_allowed ctl in
        let outcome =
          match exec ~lo ~hi with
          | () -> if validate_rows ~input ~len y ~lo ~hi then `Ok else `Failed
          | exception Launch.Deadline_exceeded _ -> `Failed
          | exception Health.All_cores_dead -> `Dead
        in
        match outcome with
        | `Ok ->
            Degrade_ctl.record ctl ~ok:true;
            Checkpoint.mark ck ~lo ~hi;
            note Trace.Checkpoint
              (Printf.sprintf "rows %d-%d committed" lo hi);
            (match store with
            | Some st ->
                let values =
                  Array.init
                    ((hi - lo) * len)
                    (fun i -> Global_tensor.get y ((lo * len) + i))
                in
                Checkpoint_store.commit st ~lo ~hi ~values
            | None -> ());
            true
        | `Failed ->
            Degrade_ctl.record ctl ~ok:false;
            for r = lo to hi - 1 do
              fail_count.(r) <- fail_count.(r) + 1
            done;
            if Degrade_ctl.shed ctl ~group_attempts:fail_count.(lo) then begin
              (* Brownout floor: give the rows up so the rest of the
                 batch completes instead of burning the budget. *)
              for r = lo to hi - 1 do
                shed.(r) <- true
              done;
              note Trace.Degrade (Printf.sprintf "rows %d-%d shed" lo hi);
              false
            end
            else attempt < budget && go (attempt + 1)
        | `Dead ->
            dead := true;
            false
      end
    in
    go 1
  in
  (* Pending groups at the controller's brownout granularity, with
     shed rows carved out (they stay un-done but are never retried). *)
  let pending_groups () =
    Checkpoint.pending ck
      ~granularity:(Degrade_ctl.granularity ctl ~base:base_granularity)
    |> List.concat_map (fun (lo, hi) ->
           let acc = ref [] in
           let start = ref (-1) in
           for r = lo to hi - 1 do
             if shed.(r) then begin
               if !start >= 0 then begin
                 acc := (!start, r) :: !acc;
                 start := -1
               end
             end
             else if !start < 0 then start := r
           done;
           if !start >= 0 then acc := (!start, hi) :: !acc;
           List.rev !acc)
  in
  (* Keep sweeping while any group makes progress. The adaptive
     policy gets a few zero-progress sweeps: an open breaker fails its
     probes by design and needs a sweep or two before the cooldown,
     the brownout ladder or a chaos expiry turns the tide. *)
  let grace =
    match Degrade_ctl.policy ctl with Adaptive -> 3 | Fixed _ -> 0
  in
  let rec drain stalled =
    match pending_groups () with
    | [] -> ()
    | groups ->
        let any_ok =
          List.fold_left
            (fun acc g -> if !dead then acc else run_group g || acc)
            false groups
        in
        if !dead then ()
        else if any_ok then drain 0
        else if stalled < grace then drain (stalled + 1)
  in
  drain 0;
  let bstats =
    match List.rev !stats_acc with
    | [] ->
        (* Nothing launched: legitimate when the store already covered
           every row; otherwise the target died before any launch. *)
        if restored_rows > 0 then Stats.empty ~name:stats_name
        else raise Health.All_cores_dead
    | stats ->
        let st = Stats.combine ~name:stats_name stats in
        { st with
          Stats.seconds = st.Stats.seconds +. !backoff;
          retries = !group_attempts - (Checkpoint.commits ck - commits0) }
  in
  {
    y;
    bstats;
    checkpoint = ck;
    group_attempts = !group_attempts;
    replayed_rows = !replayed_rows;
    restored_rows;
    shed_rows =
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 shed;
    backoff_seconds = !backoff;
    bok = Checkpoint.complete ck;
  }

let pp_batched_report fmt r =
  Format.fprintf fmt
    "@[<v>%s: %s, %a, %d group attempts, %d rows replayed%s%s%s@ %a@]"
    r.bstats.Stats.name
    (if r.bok then "ok"
     else if r.shed_rows > 0 then "DEGRADED (rows shed)"
     else "FAILED")
    Checkpoint.pp r.checkpoint r.group_attempts r.replayed_rows
    (if r.restored_rows > 0 then
       Printf.sprintf ", %d rows restored from store" r.restored_rows
     else "")
    (if r.shed_rows > 0 then Printf.sprintf ", %d rows shed" r.shed_rows
     else "")
    (if r.backoff_seconds > 0.0 then
       Printf.sprintf ", %.1f us backoff" (r.backoff_seconds *. 1e6)
     else "")
    Stats.pp_summary r.bstats

let pp_report pp_value fmt r =
  Format.fprintf fmt
    "@[<v>resilient %s: %s after %d attempt%s (%d detection%s%s)@ %a@]"
    r.stats.Stats.name
    (if r.ok then "ok" else "FAILED")
    r.attempts
    (if r.attempts = 1 then "" else "s")
    r.detections
    (if r.detections = 1 then "" else "s")
    (if r.degraded then ", degraded to fallback" else "")
    pp_value r.value
