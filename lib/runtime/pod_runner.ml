(* Checkpointed distributed batched scan: Resilient.run_groups with
   the group work running as Dist_scan rows across a pod instead of a
   batched kernel on one device.

   Failure semantics layered on top of the shared loop:

   - a whole-device death (chaos [kill device=D], or every core of a
     device dying under fire) permanently removes the device from the
     pod; the next attempt of the failed group re-runs Dist_scan, whose
     failover rule re-shards the dead device's slots over the
     survivors — output bytes are placement-invariant, so the retried
     group validates against the same reference;
   - a link failure that survives retry/reroute raises Partitioned,
     which counts as a plain failed attempt (the quarantine and the
     brownout ladder decide what happens next);
   - the Shrink_exchange brownout rung halves the exchange group
     (shard slots), cutting link traffic before any rows are shed. *)

open Ascend

let batched_scan ?(s = 128) ?granularity ?schedule ?store
    ?(ctl = Resilient.fixed_ctl ()) ?chaos pod ~batch ~len ~input =
  let primary = Pod.primary pod in
  let base_schedule =
    match schedule with
    | Some sch -> sch
    | None -> Scan.Dist_scan.default_schedule pod
  in
  let note kind name =
    match Device.trace primary with
    | Some tr -> Trace.note tr kind ~name
    | None -> ()
  in
  let link_s0 = Pod.link_seconds pod in
  let sends0 = Pod.link_sends pod in
  let retries0 = Pod.link_retries pod in
  let reroutes0 = Pod.reroutes pod in
  let devices_lost = ref 0 in
  (* A device whose last core died under fire is a pod-level death:
     retire it so the next attempt re-shards around it. *)
  let retire_dead_devices () =
    for d = 0 to Pod.num_devices pod - 1 do
      if
        Pod.alive pod d
        && Health.num_alive (Device.health (Pod.device pod d)) = 0
      then begin
        Pod.kill_device pod d;
        incr devices_lost;
        note Trace.Death (Printf.sprintf "pod device %d lost" d)
      end
    done
  in
  let boundary ~launch_index ~elapsed_s =
    Option.iter
      (fun ch ->
        let before = Pod.alive_count pod in
        Chaos.before_launch_pod ch pod ~launch_index ~elapsed_s;
        let lost = before - Pod.alive_count pod in
        if lost > 0 then devices_lost := !devices_lost + lost)
      chaos;
    Pod.alive_count pod > 0
  in
  let exec y ~charge ~lo ~hi =
    let sched =
      match (Degrade_ctl.switch_schedule ctl, base_schedule) with
      | false, sch -> sch
      | true, Scan.Dist_scan.Ring -> Scan.Dist_scan.All_gather
      | true, Scan.Dist_scan.All_gather -> Scan.Dist_scan.Ring
    in
    let shards =
      if Degrade_ctl.shrink_exchange ctl then max 1 (Pod.alive_count pod / 2)
      else Pod.num_devices pod
    in
    for r = lo to hi - 1 do
      let row = Array.init len (fun i -> input.((r * len) + i)) in
      let x =
        Device.of_array primary Dtype.F16
          ~name:(Printf.sprintf "pod_row%d" r)
          row
      in
      let rr = Scan.Dist_scan.run ~s ~schedule:sched ~shards pod x in
      for i = 0 to len - 1 do
        Global_tensor.set y
          ((r * len) + i)
          (Global_tensor.get rr.Scan.Dist_scan.y i)
      done;
      charge rr.Scan.Dist_scan.stats ~link_s:rr.Scan.Dist_scan.link_seconds
    done
  in
  let on_exn ~lo ~hi = function
    | Pod.Partitioned _ ->
        note Trace.Fault
          (Printf.sprintf "pod rows %d-%d: exchange partitioned" lo hi);
        `Failed
    | Health.All_cores_dead ->
        retire_dead_devices ();
        if Pod.alive_count pod = 0 then `Dead else `Failed
    | e -> raise e
  in
  let r =
    Resilient.run_groups ~who:"Pod_runner.batched_scan" ?granularity ?store ~ctl
      primary ~batch ~len ~input (fun () ->
        let y =
          Device.alloc primary Dtype.F16 (batch * len) ~name:"pod_bscan_y"
        in
        {
          Resilient.out = y;
          stats_name = "pod_bscan";
          label = "pod";
          boundary;
          exec = exec y;
          on_exn;
        })
  in
  {
    r with
    Resilient.pod =
      Some
        {
          Resilient.link_seconds = Pod.link_seconds pod -. link_s0;
          link_sends = Pod.link_sends pod - sends0;
          link_retries = Pod.link_retries pod - retries0;
          rerouted = Pod.reroutes pod - reroutes0;
          devices_lost = !devices_lost;
        };
  }
