open Ascend

type caps = {
  dtypes : Dtype.t list;
  exclusive : bool;
  batched : bool;
  segmented : bool;
  masked : bool;
}

type config = {
  s : int option;
  exclusive : bool;
  blocks : int option;
  batch : int option;
  len : int option;
  bits : int option;
  k : int option;
  p : float option;
  theta : float option;
  seed : int option;
  devices : int option;
}

let default_config =
  {
    s = None;
    exclusive = false;
    blocks = None;
    batch = None;
    len = None;
    bits = None;
    k = None;
    p = None;
    theta = None;
    seed = None;
    devices = None;
  }

type param = S | Exclusive | Bits | K | P | Theta | Devices | Batch

let param_name = function
  | S -> "s"
  | Exclusive -> "exclusive"
  | Bits -> "bits"
  | K -> "k"
  | P -> "p"
  | Theta -> "theta"
  | Devices -> "devices"
  | Batch -> "batch"

type input =
  | Tensor of Global_tensor.t
  | Masked of { x : Global_tensor.t; mask : Global_tensor.t }

type output = { y : Global_tensor.t option; aux : (string * float) list }

type entry = {
  name : string;
  aliases : string list;
  kind : [ `Scan | `Op ];
  caps : caps;
  monoid : (module Scan_op.S) option;
  params : param list;
  describe : string;
  run : config -> Device.t -> input -> output * Stats.t;
}

(* Entries hold closures, so they must never be compared structurally;
   the name is the identity. *)
let equal a b = String.equal a.name b.name

let registry : (string, entry) Hashtbl.t = Hashtbl.create 64
let order : entry list ref = ref []

let register e =
  List.iter
    (fun key ->
      if Hashtbl.mem registry key then
        invalid_arg
          (Printf.sprintf "Op_registry.register: duplicate operator name %S"
             key))
    (e.name :: e.aliases);
  List.iter (fun key -> Hashtbl.replace registry key e) (e.name :: e.aliases);
  order := e :: !order

let all () = List.rev !order
let find name = Hashtbl.find_opt registry name
let scans () = List.filter (fun e -> e.kind = `Scan) (all ())

(* Unary scans: one tensor in, one tensor out — the entries a generic
   cross-kernel test matrix or CLI scan dispatch can enumerate. *)
let unary_scans () =
  List.filter
    (fun e -> e.kind = `Scan && (not e.caps.batched) && not e.caps.masked)
    (all ())

let dtype_list dtypes = String.concat "/" (List.map Dtype.to_string dtypes)

let validate e cfg input =
  let dtype_ok dt = List.exists (Dtype.equal dt) e.caps.dtypes in
  let input_err =
    match input with
    | Tensor x ->
        if e.caps.masked then
          Some (Printf.sprintf "%s requires a mask/flags input" e.name)
        else if not (dtype_ok (Global_tensor.dtype x)) then
          Some
            (Printf.sprintf "%s: unsupported dtype %s (supported: %s)" e.name
               (Dtype.to_string (Global_tensor.dtype x))
               (dtype_list e.caps.dtypes))
        else None
    | Masked { x; mask = _ } ->
        if not e.caps.masked then
          Some (Printf.sprintf "%s takes a single tensor input" e.name)
        else if not (dtype_ok (Global_tensor.dtype x)) then
          Some
            (Printf.sprintf "%s: unsupported dtype %s (supported: %s)" e.name
               (Dtype.to_string (Global_tensor.dtype x))
               (dtype_list e.caps.dtypes))
        else None
  in
  match input_err with
  | Some msg -> Error msg
  | None ->
      if cfg.exclusive && not e.caps.exclusive then
        Error (Printf.sprintf "%s does not support exclusive scans" e.name)
      else if e.caps.batched && (cfg.batch = None || cfg.len = None) then
        Error (Printf.sprintf "%s requires batch and len" e.name)
      else
        let n = match input with Tensor x | Masked { x; _ } -> Global_tensor.length x in
        match cfg.devices with
        | Some v when v < 1 ->
            Error (Printf.sprintf "devices: device count must be >= 1 (got %d)" v)
        | Some v when v > n ->
            Error
              (Printf.sprintf
                 "devices: device count must be at most the input length %d (got %d)"
                 n v)
        | _ -> Ok ()

(* The one source of truth for the README operator table: the CLI's
   --list-ops prints exactly this, and CI diffs it against the README
   section so the two can never drift. *)
let pp_markdown_table fmt () =
  Format.fprintf fmt
    "| Operator | Aliases | Kind | Dtypes | Capabilities | Params | \
     Description |@.";
  Format.fprintf fmt "|---|---|---|---|---|---|---|@.";
  List.iter
    (fun e ->
      let capabilities =
        List.filter_map
          (fun (flag, label) -> if flag then Some label else None)
          [
            (e.caps.exclusive, "exclusive");
            (e.caps.batched, "batched");
            (e.caps.segmented, "segmented");
            (e.caps.masked, "masked");
          ]
      in
      let or_dash = function [] -> "-" | l -> String.concat ", " l in
      Format.fprintf fmt "| %s | %s | %s | %s | %s | %s | %s |@." e.name
        (or_dash e.aliases)
        (match e.kind with `Scan -> "scan" | `Op -> "op")
        (String.concat ", " (List.map Dtype.to_string e.caps.dtypes))
        (or_dash capabilities)
        (or_dash (List.map param_name e.params))
        e.describe)
    (all ())

let run e cfg device input =
  match validate e cfg input with
  | Error _ as err -> err
  | Ok () -> (
      match e.run cfg device input with
      | out -> Ok out
      | exception Invalid_argument msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* The scan kernels register here (in the defining library, so linking
   the library always populates them — side-effect registration in a
   separate unreferenced module would be dropped by the linker). *)

let tensor_in = function
  | Tensor x -> x
  | Masked _ -> invalid_arg "expected a single tensor input"

let simple run1 cfg device input =
  let y, st = run1 cfg device (tensor_in input) in
  ({ y = Some y; aux = [] }, st)

let caps ?(dtypes = [ Dtype.F16 ]) ?(exclusive = false) ?(batched = false)
    ?(segmented = false) ?(masked = false) () =
  { dtypes; exclusive; batched; segmented; masked }

let sum = Some (module Scan_op.Sum : Scan_op.S)

let () =
  register
    {
      name = "vec_only";
      aliases = [ "cumsum" ];
      kind = `Scan;
      caps = caps ~dtypes:[ Dtype.F16; Dtype.F32 ] ();
      monoid = sum;
      params = [];
      describe = "CumSum baseline: single block, vector core only";
      (* [s] is ignored: the CumSum tile shape is fixed at 128 x 128. *)
      run = simple (fun _cfg device x -> Scan_vec_only.run device x);
    };
  register
    {
      name = "scanu";
      aliases = [ "u"; "scan_u" ];
      kind = `Scan;
      caps = caps ();
      monoid = sum;
      params = [ S ];
      describe = "Algorithm 1: cube local scans + vector propagation";
      run = simple (fun cfg device x -> Scan_u.run ?s:cfg.s device x);
    };
  register
    {
      name = "scanul1";
      aliases = [ "ul1"; "scan_ul1" ];
      kind = `Scan;
      caps = caps ();
      monoid = sum;
      params = [ S ];
      describe = "Algorithm 2: three-matmul tiles staged through L1";
      run = simple (fun cfg device x -> Scan_ul1.run ?s:cfg.s device x);
    };
  register
    {
      name = "mcscan";
      aliases = [ "mc" ];
      kind = `Scan;
      caps = caps ~dtypes:[ Dtype.F16; Dtype.I8 ] ~exclusive:true ();
      monoid = sum;
      params = [ S; Exclusive ];
      describe = "Algorithm 3: two-phase multi-core scan";
      run =
        simple (fun cfg device x ->
            Mcscan.run ?s:cfg.s ?blocks:cfg.blocks ~exclusive:cfg.exclusive
              device x);
    };
  register
    {
      name = "tcu";
      aliases = [];
      kind = `Scan;
      caps = caps ();
      monoid = sum;
      params = [ S ];
      describe = "Recursive matmul-only scan (TCU-model extension)";
      run = simple (fun cfg device x -> Tcu_scan.run ?s:cfg.s device x);
    };
  register
    {
      name = "max_scan";
      aliases = [ "maxscan"; "max" ];
      kind = `Scan;
      caps = caps ~dtypes:Scan_op.Max.(dtypes) ();
      monoid = Some (module Scan_op.Max : Scan_op.S);
      params = [];
      describe = "Running maximum: vector-only two-phase engine";
      run = simple (fun cfg device x -> Max_scan.run ?blocks:cfg.blocks device x);
    };
  register
    {
      name = "segmented_scan";
      aliases = [ "segscan" ];
      kind = `Scan;
      caps = caps ~segmented:true ~masked:true ();
      monoid = sum;
      params = [];
      describe = "Segmented sum over (value, start-flag) pairs";
      run =
        (fun cfg device input ->
          match input with
          | Masked { x; mask } ->
              let y, st =
                Segmented_scan.run ?blocks:cfg.blocks device ~x ~flags:mask ()
              in
              ({ y = Some y; aux = [] }, st)
          | Tensor _ ->
              invalid_arg "segmented_scan requires a mask/flags input");
    };
  register
    {
      name = "batched_u";
      aliases = [ "bu" ];
      kind = `Scan;
      caps = caps ~batched:true ();
      monoid = sum;
      params = [ S; Batch ];
      describe = "Batched ScanU: row pairs per block, both vector cores";
      run =
        simple (fun cfg device x ->
            let batch = Option.get cfg.batch and len = Option.get cfg.len in
            Batched_scan.run_u ?s:cfg.s device ~batch ~len x);
    };
  register
    {
      name = "batched_ul1";
      aliases = [ "bul1" ];
      kind = `Scan;
      caps = caps ~batched:true ();
      monoid = sum;
      params = [ S; Batch ];
      describe = "Batched ScanUL1: one full row scan per block";
      run =
        simple (fun cfg device x ->
            let batch = Option.get cfg.batch and len = Option.get cfg.len in
            Batched_scan.run_ul1 ?s:cfg.s device ~batch ~len x);
    };
  register
    {
      name = "dist_scan";
      aliases = [ "dscan" ];
      kind = `Scan;
      caps = caps ();
      monoid = sum;
      params = [ S; Devices ];
      describe = "Sharded scan over N devices: local scans + prefix fixup";
      (* The caller's device is the primary, so its armed trace, faults
         and deadline apply to the shard it executes. *)
      run =
        simple (fun cfg device x ->
            Dist_scan.run ?s:cfg.s
              ~devices:(Option.value ~default:2 cfg.devices)
              device x);
    };
  register
    {
      name = "cube_reduce";
      aliases = [ "reduce" ];
      kind = `Op;
      caps = caps ();
      monoid = None;
      params = [ S ];
      describe = "Matmul-only sum reduction (tensor-core reduction lineage)";
      run =
        (fun cfg device input ->
          let sum, y, st =
            Cube_reduce.run_cube ?s:cfg.s device (tensor_in input)
          in
          ({ y = Some y; aux = [ ("sum", sum) ] }, st));
    }
