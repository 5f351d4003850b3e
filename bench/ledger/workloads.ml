(* The four workloads. A workload is a list of calls into the operator
   registry; one pass over the list is a round. Every input comes from
   Workload.Generators under seeds derived from the run's --seed, and
   every call carries the oracle its output is checked against. *)

open Ascend
module Reg = Scan.Op_registry
module G = Workload.Generators

(* What readback returns: the output tensor's contents, if any, and the
   operator's scalar results (token, count, ...). *)
type view = { y : float array option; aux : (string * float) list }

type call = {
  entry : Reg.entry;
  mode : Device.mode;
  n : int;  (** Input elements. *)
  batch : int option;  (** Batched entries: [batch] rows of [n / batch]. *)
  cfg : Reg.config;
  x : float array;  (** Payload; empty on Cost_only. *)
  mask : float array;  (** Mask or flags of masked entries; empty otherwise. *)
  traced : bool;
      (** A trace is armed, and the call exports, parses, validates and
          profiles it. *)
  trace_div : int;
      (** The layer pass traces a twin of this call at [n / trace_div]. *)
  check : view -> (unit, string) result;
}

type t = {
  name : string;
  calls : call list;
  prechecks : call list;  (** Run and checked once, during set-up. *)
}

let names = [ "scan-1m"; "sampling-2k"; "paper-sweep-16m"; "profile-64k" ]

let entry name =
  match Reg.find name with
  | Some e -> e
  | None -> invalid_arg ("ledger: no registry entry " ^ name)

let dtype call = List.hd call.entry.Reg.caps.Reg.dtypes

let cfg_at call n =
  match call.batch with
  | Some b -> { call.cfg with Reg.batch = Some b; len = Some (n / b) }
  | None -> call.cfg

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)

let ( let* ) = Result.bind

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prefix_equal ~what expected = function
  | { y = None; _ } -> Error (what ^ ": no output tensor")
  | { y = Some y; _ } ->
      let n = Array.length expected in
      if Array.length y < n then
        Error (Printf.sprintf "%s: %d outputs, expected %d" what (Array.length y) n)
      else
        let rec go i =
          if i = n then Ok ()
          else if same_bits y.(i) expected.(i) then go (i + 1)
          else
            Error
              (Printf.sprintf "%s: mismatch at %d (got %g, expected %g)" what i
                 y.(i) expected.(i))
        in
        go 0

let aux ~what key v =
  match List.assoc_opt key v.aux with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: no %s result" what key)

(* A sampled token must index an item that carries mass. *)
let token_with_mass ~what weights v =
  let* t = aux ~what "token" v in
  let t = int_of_float t in
  if t < 0 || t >= Array.length weights then
    Error (Printf.sprintf "%s: token %d out of range" what t)
  else if weights.(t) <= 0.0 then
    Error (Printf.sprintf "%s: token %d has no mass" what t)
  else Ok ()

let segmented_reference x flags =
  let acc = ref 0.0 in
  Array.mapi
    (fun i v ->
      if flags.(i) <> 0.0 then acc := 0.0;
      acc := Fp16.round (!acc +. v);
      !acc)
    x

let fp16_scan = Scan.Reference.inclusive_scan ~round:Fp16.round

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)

let call ?(mode = Device.Functional) ?batch ?(cfg = Reg.default_config)
    ?(mask = [||]) ?(traced = false) ?(trace_div = 1) ~n ~x ~check name =
  { entry = entry name; mode; n; batch; cfg; x; mask; traced; trace_div; check }

(* Independent seeds for the inputs of one run. *)
let sub seed k = (seed * 1000) + k

let draw seed k = Random.State.float (Random.State.make [| seed; k |]) 1.0

let compress_call ?traced ~seed ~n () =
  let x = G.uniform_f16 ~seed:(sub seed 2) n in
  let mask = G.ones_and_zeros ~seed:(sub seed 3) ~density:0.5 n in
  let expected = Scan.Reference.compress x ~mask in
  call ?traced ~n ~x ~mask "compress" ~check:(fun v ->
      let* count = aux ~what:"compress" "count" v in
      if int_of_float count <> Array.length expected then
        Error
          (Printf.sprintf "compress: count %g, expected %d" count
             (Array.length expected))
      else prefix_equal ~what:"compress" expected v)

let weighted_call ?traced ~seed ~n () =
  let w = G.softmax_probs ~seed:(sub seed 4) n in
  let cfg = { Reg.default_config with Reg.theta = Some (draw seed 5) } in
  call ?traced ~n ~x:w ~cfg "weighted_sampling"
    ~check:(token_with_mass ~what:"weighted_sampling" w)

(* Densities 1/1024 and below keep every prefix sum under 2048 at these
   sizes, so fp16 sums are exact and the sequential reference matches
   bit for bit at any blocking. *)
let scan_1m ~seed ~div =
  let n = (1 lsl 20) / div in
  let x = G.ones_and_zeros ~seed:(sub seed 1) ~density:(1.0 /. 1024.0) n in
  let expected = fp16_scan x in
  let scan name =
    call ~n ~x name ~check:(prefix_equal ~what:name expected)
  in
  {
    name = "scan-1m";
    calls =
      List.map scan [ "mcscan"; "scanu"; "scanul1"; "vec_only" ]
      @ [ compress_call ~seed ~n () ];
    prechecks = [];
  }

(* At 2048 entries a call's Cost_only twin takes about 80% of its host
   time, so a round measures the fixed cost of each launch, not payload;
   at 32768 payload was 76% of it. Top-k is read off a full radix sort:
   radix_select and quickselect stop early on some data, so their launch
   counts, and the round's simulated cycles, would change with the seed
   (radix_select: 41 to 71 launches over seeds 1 to 10). *)
let sampling_2k ~seed ~div =
  let n = 2048 / div in
  let probs = G.softmax_probs ~seed:(sub seed 1) n in
  let sorted = Array.copy probs in
  Array.sort Float.compare sorted;
  let oracle_kept = Scan.Reference.top_p_threshold_count probs ~p:0.9 in
  let cfg = Reg.default_config in
  {
    name = "sampling-2k";
    calls =
      [
        call ~n ~x:probs "topp"
          ~cfg:{ cfg with Reg.p = Some 0.9; theta = Some (draw seed 2) }
          ~check:(fun v ->
            let* () = token_with_mass ~what:"topp" probs v in
            let* kept = aux ~what:"topp" "kept" v in
            (* fp16 cumsum plateaus blur the cutoff: the band of
               test_sampling.ml's kept-near-oracle case. *)
            let o = float_of_int oracle_kept in
            if kept >= 0.5 *. o && kept <= (2.0 *. o) +. 4.0 then Ok ()
            else Error (Printf.sprintf "topp: kept %g, oracle %d" kept oracle_kept));
        call ~n ~x:probs "radix_sort" ~check:(prefix_equal ~what:"radix_sort" sorted);
        call ~n ~x:probs "weighted_sampling"
          ~cfg:{ cfg with Reg.theta = Some (draw seed 3) }
          ~check:(token_with_mass ~what:"weighted_sampling" probs);
      ];
    prechecks = [];
  }

(* The registry entries that run on Cost_only devices. radix_sort and
   topp are left out: at 2^24 each spends over a second of host time per
   call in its 16 split passes, which would leave too few rounds. *)
let sweep_entries =
  [ "vec_only"; "scanu"; "scanul1"; "mcscan"; "tcu"; "max_scan";
    "segmented_scan"; "batched_u"; "batched_ul1"; "dist_scan"; "compress";
    "split"; "weighted_sampling" ]

let sweep_batch = 16

(* One sweep entry: cost-only at [n] for the timed rounds, or functional
   with an oracle for the set-up check. *)
let sweep_call ~seed ~mode ~n name =
  let functional = mode = Device.Functional in
  let gen f = if functional then f () else [||] in
  let ones density = gen (fun () -> G.ones_and_zeros ~seed:(sub seed 11) ~density n) in
  let uniform () = gen (fun () -> G.uniform_f16 ~seed:(sub seed 12) n) in
  let half_mask () = gen (fun () -> G.ones_and_zeros ~seed:(sub seed 13) ~density:0.5 n) in
  let theta = draw seed 14 in
  let cfg = { Reg.default_config with Reg.theta = Some theta } in
  let make ?batch ?(mask = [||]) ~x check =
    call ~mode ~n ?batch ~cfg ~x ~mask ~trace_div:16 name
      ~check:(if functional then check x mask else fun _ -> Ok ())
  in
  let sum_scan x _ = prefix_equal ~what:name (fp16_scan x) in
  match name with
  | "max_scan" ->
      make ~x:(uniform ()) (fun x _ ->
          prefix_equal ~what:name
            (Scan.Reference.inclusive_scan_op ~combine:Float.max
               ~init:Float.neg_infinity x))
  | "segmented_scan" ->
      make ~x:(ones (1.0 /. 32.0))
        ~mask:(gen (fun () -> G.ones_and_zeros ~seed:(sub seed 15) ~density:(1.0 /. 64.0) n))
        (fun x flags -> prefix_equal ~what:name (segmented_reference x flags))
  | "batched_u" | "batched_ul1" ->
      make ~batch:sweep_batch ~x:(ones (1.0 /. 32.0)) (fun x _ ->
          prefix_equal ~what:name
            (Scan.Reference.batched_inclusive ~round:Fp16.round
               ~batch:sweep_batch ~len:(n / sweep_batch) x))
  | "compress" ->
      make ~x:(uniform ()) ~mask:(half_mask ()) (fun x mask ->
          prefix_equal ~what:name (Scan.Reference.compress x ~mask))
  | "split" ->
      make ~x:(uniform ()) ~mask:(half_mask ()) (fun x flags ->
          prefix_equal ~what:name (fst (Scan.Reference.split x ~flags)))
  | "weighted_sampling" ->
      let w = gen (fun () -> G.softmax_probs ~seed:(sub seed 16) n) in
      make ~x:w (fun w _ -> token_with_mass ~what:name w)
  | _ -> make ~x:(ones (1.0 /. 32.0)) sum_scan

(* Paper-scale figures regenerate on Cost_only devices, where no payload
   exists; each entry is first checked functionally at n = 30000, as
   bench/main.ml does before a sweep. *)
let paper_sweep_16m ~seed ~div =
  let n = (1 lsl 24) / div in
  {
    name = "paper-sweep-16m";
    calls = List.map (sweep_call ~seed ~mode:Device.Cost_only ~n) sweep_entries;
    prechecks =
      List.map (sweep_call ~seed ~mode:Device.Functional ~n:30000) sweep_entries;
  }

let profile_64k ~seed ~div =
  let n = 65536 / div in
  let x = G.ones_and_zeros ~seed:(sub seed 1) ~density:(1.0 /. 64.0) n in
  let expected = fp16_scan x in
  {
    name = "profile-64k";
    calls =
      [
        call ~n ~x ~traced:true "mcscan"
          ~check:(prefix_equal ~what:"mcscan" expected);
        compress_call ~traced:true ~seed ~n ();
        weighted_call ~traced:true ~seed ~n ();
      ];
    prechecks = [];
  }

let make name ~seed ~div =
  match name with
  | "scan-1m" -> Some (scan_1m ~seed ~div)
  | "sampling-2k" -> Some (sampling_2k ~seed ~div)
  | "paper-sweep-16m" -> Some (paper_sweep_16m ~seed ~div)
  | "profile-64k" -> Some (profile_64k ~seed ~div)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Digests for the seed-discipline check                               *)

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let op_list w =
  List.map (fun c -> Printf.sprintf "%s@%d" c.entry.Reg.name c.n) (w.prechecks @ w.calls)

let input_digest w =
  digest (List.map (fun c -> (c.entry.Reg.name, c.n, c.cfg, c.x, c.mask)) (w.prechecks @ w.calls))
