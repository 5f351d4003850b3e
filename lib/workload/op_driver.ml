open Ascend
module Reg = Scan.Op_registry

(* Deterministic inputs per dtype, so every front-end sharing the
   driver — CLI, trace tests, CI — sees the same tensors for the same
   (entry, n, seed). The default seed 0 puts a 1.0 at index 0, so
   probability-consuming operators (top-p, weighted sampling) get
   positive mass at every n. *)
let dtype (entry : Reg.entry) =
  match entry.Reg.caps.Reg.dtypes with d :: _ -> d | [] -> Dtype.F16

let data ?(seed = 0) entry ~n =
  let int_data gen = Array.init n (fun i -> float_of_int (gen i)) in
  match dtype entry with
  | Dtype.I8 -> int_data (fun i -> (i mod 7) - 3)
  | Dtype.U16 -> int_data (fun i -> (i * 131) mod 251)
  | Dtype.I16 | Dtype.I32 -> int_data (fun i -> ((i * 131) mod 251) - 125)
  | Dtype.F16 | Dtype.F32 -> Generators.sparse_ones ~seed n

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

(* A Cost_only device gets unbacked tensors: no host array is built,
   whatever [n]. *)
let input ?seed (entry : Reg.entry) device ~n =
  let stage dt name data =
    if Device.functional device then Device.of_array device dt ~name (data ())
    else Device.alloc device dt n ~name
  in
  let x = stage (dtype entry) "x" (fun () -> data ?seed entry ~n) in
  if entry.Reg.caps.Reg.masked then
    Reg.Masked { x; mask = stage Dtype.I8 "mask" (fun () -> flags_data n) }
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
