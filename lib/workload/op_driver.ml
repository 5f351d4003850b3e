open Ascend
module Reg = Scan.Op_registry

(* Deterministic inputs per dtype: strictly synthetic (no RNG), so
   every front-end sharing the driver — CLI smoke, trace tests, CI —
   sees the same tensors for the same (entry, n). Float data is kept
   positive so probability-consuming operators (top-p, weighted
   sampling) get a valid distribution from the same generator. *)
let input_data (entry : Reg.entry) n =
  let dt = match entry.Reg.caps.Reg.dtypes with d :: _ -> d | [] -> Dtype.F16 in
  let gen =
    match dt with
    | Dtype.I8 -> fun i -> float_of_int ((i mod 7) - 3)
    | Dtype.U16 -> fun i -> float_of_int ((i * 131) mod 251)
    | Dtype.I16 | Dtype.I32 -> fun i -> float_of_int (((i * 131) mod 251) - 125)
    | Dtype.F16 | Dtype.F32 ->
        fun i -> if i mod 37 = 0 then 2.0 else 0.25
  in
  (dt, Array.init n gen)

let flags_data n =
  Array.init n (fun i -> if (i * 7) mod 13 < 2 then 1.0 else 0.0)

let config_for (entry : Reg.entry) ~n ~s =
  let batched = entry.Reg.caps.Reg.batched in
  {
    Reg.default_config with
    Reg.s;
    batch = (if batched then Some 4 else None);
    len = (if batched then Some (n / 4) else None);
    k = Some (min 64 n);
    p = Some 0.9;
    theta = Some 0.4;
    seed = Some 3;
  }

let input (entry : Reg.entry) device ~n =
  let dt, data = input_data entry n in
  let x = Device.of_array device dt ~name:"drv_x" data in
  if entry.Reg.caps.Reg.masked then
    Reg.Masked
      { x; mask = Device.of_array device Dtype.I8 ~name:"drv_m" (flags_data n) }
  else Reg.Tensor x

let run ?(n = 4096) ?s ?domains ?(traced = true) (entry : Reg.entry) =
  if n < 16 then invalid_arg "Op_driver.run: n must be >= 16";
  let device = Device.create ?domains () in
  let trace = if traced then Some (Device.arm_trace device) else None in
  match Reg.run entry (config_for entry ~n ~s) device (input entry device ~n) with
  | Ok (_out, stats) -> Ok (stats, trace)
  | Error e -> Error e

let run_all ?n ?s ?domains ?traced () =
  List.map
    (fun (entry : Reg.entry) ->
      (entry, run ?n ?s ?domains ?traced entry))
    (Reg.all ())
