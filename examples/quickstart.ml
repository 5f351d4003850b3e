(* Quickstart: create a device, scan an array with every algorithm,
   and inspect the execution statistics.

   Run with: dune exec examples/quickstart.exe *)

open Ascend

let () =
  (* A functional device computes real results and models their cost. *)
  let device = Device.create () in

  (* Upload an input array (fp16, like most AI-workload tensors). *)
  let n = 100_000 in
  (* 1-in-53 ones keep the fp16 running sum below 2048, i.e. exact. *)
  let data = Array.init n (fun i -> if i mod 53 = 0 then 1.0 else 0.0) in
  let x = Device.of_array device Dtype.F16 ~name:"input" data in

  Format.printf "Scanning %d fp16 elements on %a@.@." n Device.pp device;

  (* Run each registered unary scan through the registry and check it
     with the entry's own oracle, which derives the reference from the
     entry's monoid: the running-maximum scan validates alongside the
     sums. *)
  let module R = Scan.Op_registry in
  let cfg = R.default_config in
  List.iter
    (fun (algo : R.entry) ->
      match R.run algo cfg device (R.Tensor x) with
      | Error e -> Format.printf "%-9s error: %s@." algo.R.name e
      | Ok (out, stats) ->
          let ok =
            match algo.R.check cfg { R.x = data; mask = None } out with
            | Ok () -> "ok"
            | Error e -> "MISMATCH: " ^ e
          in
          Format.printf "%-9s %a  [%s]@." algo.R.name Stats.pp_summary stats ok)
    (R.unary_scans ());

  (* Exclusive scans and int8 masks work through MCScan. *)
  let mask =
    Device.of_array device Dtype.I8 ~name:"mask"
      (Array.init n (fun i -> if i mod 3 = 0 then 1.0 else 0.0))
  in
  let offsets, stats = Scan.Mcscan.run ~exclusive:true device mask in
  Format.printf "@.exclusive int8 scan: offsets[0]=%g offsets[%d]=%g (%a)@."
    (Global_tensor.get offsets 0) (n - 1)
    (Global_tensor.get offsets (n - 1))
    Stats.pp_summary stats;

  (* Full per-launch statistics are available too. *)
  let _, stats = Scan.Mcscan.run device x in
  Format.printf "@.%a@." Stats.pp stats
