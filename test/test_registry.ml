(* Tests of the operator registry itself: name/alias resolution
   round-trips over every registered entry (scans and ops), uniform
   capability-violation Error paths, and identity semantics for
   entries, which hold closures and must never be compared
   structurally. *)

open Ascend

(* Force the [ops] library's registrations so the whole registry is
   under test, exactly as the CLI sees it. *)
let () = Ops.Ops_registry.install ()

let check_bool = Alcotest.(check bool)
let entries = Scan.Op_registry.all ()

let arb_entry =
  QCheck.make
    ~print:(fun (e : Scan.Op_registry.entry) -> e.Scan.Op_registry.name)
    QCheck.Gen.(oneofl entries)

(* Pair every entry with one of its names (canonical or alias). *)
let arb_entry_key =
  QCheck.make
    ~print:(fun ((e : Scan.Op_registry.entry), key) ->
      e.Scan.Op_registry.name ^ " via " ^ key)
    QCheck.Gen.(
      let* e = oneofl entries in
      let* key = oneofl (e.Scan.Op_registry.name :: e.Scan.Op_registry.aliases) in
      return (e, key))

let prop_name_roundtrip =
  QCheck.Test.make ~name:"find (name e) = Some e for every operator"
    ~count:(4 * List.length entries)
    arb_entry
    (fun e ->
      match Scan.Op_registry.find e.Scan.Op_registry.name with
      | Some e' -> Scan.Op_registry.equal e e'
      | None -> false)

let prop_alias_resolution =
  QCheck.Test.make ~name:"every alias resolves to its entry"
    ~count:(4 * List.length entries)
    arb_entry_key
    (fun (e, key) ->
      match Scan.Op_registry.find key with
      | Some e' -> Scan.Op_registry.equal e e'
      | None -> false)

let test_names_unique () =
  (* Name and alias sets are globally disjoint — [register] enforces it
     at registration time; this asserts the final state. *)
  let keys =
    List.concat_map
      (fun (e : Scan.Op_registry.entry) ->
        e.Scan.Op_registry.name :: e.Scan.Op_registry.aliases)
      entries
  in
  let sorted = List.sort_uniq String.compare keys in
  Alcotest.(check int) "no duplicate names or aliases" (List.length keys)
    (List.length sorted)

let test_duplicate_registration_rejected () =
  let e = List.hd entries in
  check_bool "re-registering an existing name raises" true
    (try
       Scan.Op_registry.register e;
       false
     with Invalid_argument _ -> true)

let test_equal_is_by_name () =
  let a = Registry_util.entry "scanu" and b = Registry_util.entry "scanul1" in
  check_bool "same entry equal" true (Scan.Op_registry.equal a a);
  check_bool "distinct entries differ" false (Scan.Op_registry.equal a b);
  (* The whole point of [equal]: a looked-up entry equals itself even
     through different lookup paths (alias vs canonical name). *)
  let via_alias = Option.get (Scan.Op_registry.find "u") in
  check_bool "alias lookup equals name lookup" true
    (Scan.Op_registry.equal a via_alias)

(* Uniform error paths: capability violations come back as [Error]
   from [Op_registry.run] — never as an exception, never kernel-specific
   ad-hoc text the caller must pattern-match. *)

let dev () = Device.create ()
let cfg = Scan.Op_registry.default_config

let expect_error name what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: %s was accepted" name what

let test_exclusive_rejected_uniformly () =
  let d = dev () in
  let x = Device.of_array d Dtype.F16 ~name:"x" [| 1.0; 2.0 |] in
  let excl = { cfg with Scan.Op_registry.exclusive = true } in
  List.iter
    (fun (e : Scan.Op_registry.entry) ->
      if not e.Scan.Op_registry.caps.Scan.Op_registry.exclusive then
        expect_error e.Scan.Op_registry.name "exclusive"
          (Scan.Op_registry.run e excl d (Scan.Op_registry.Tensor x)))
    (Scan.Op_registry.unary_scans ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_unsupported_dtype_rejected () =
  let d = dev () in
  let xi = Device.of_array d Dtype.I32 ~name:"xi" [| 1.0 |] in
  List.iter
    (fun name ->
      let e = Registry_util.entry name in
      match Scan.Op_registry.run e cfg d (Scan.Op_registry.Tensor xi) with
      | Error msg ->
          check_bool (name ^ " error names the dtype") true (contains msg "i32")
      | Ok _ -> Alcotest.failf "%s accepted an i32 input" name)
    [ "scanu"; "vec_only"; "mcscan"; "tcu" ]

let test_input_arity_checked () =
  let d = dev () in
  let x = Device.of_array d Dtype.F16 ~name:"x" [| 1.0; 2.0 |] in
  let mask = Device.of_array d Dtype.I8 ~name:"m" [| 1.0; 0.0 |] in
  (* A masked operator given a bare tensor... *)
  expect_error "segmented_scan" "bare tensor"
    (Scan.Op_registry.run
       (Option.get (Scan.Op_registry.find "segmented_scan"))
       cfg d (Scan.Op_registry.Tensor x));
  (* ... and a unary scan given a masked pair. *)
  expect_error "scanu" "masked input"
    (Scan.Op_registry.run (Registry_util.entry "scanu") cfg d
       (Scan.Op_registry.Masked { x; mask }))

let test_batched_requires_shape () =
  let d = dev () in
  let x = Device.of_array d Dtype.F16 ~name:"x" (Array.make 16 1.0) in
  expect_error "batched_u" "missing batch/len"
    (Scan.Op_registry.run
       (Option.get (Scan.Op_registry.find "batched_u"))
       cfg d (Scan.Op_registry.Tensor x))

let test_op_param_errors_are_errors () =
  (* Operator-side parameter validation (k missing) funnels through the
     same Error path as capability violations. *)
  let d = dev () in
  let x = Device.of_array d Dtype.F16 ~name:"x" (Array.make 64 1.0) in
  expect_error "topk" "missing k"
    (Scan.Op_registry.run
       (Option.get (Scan.Op_registry.find "topk"))
       cfg d (Scan.Op_registry.Tensor x))

(* The acceptance path for new monoids: the max scan registered like
   any other kernel is reachable by name, runs over f32, and checks
   against its own (max) reference with its registered oracle. *)
let test_max_scan_through_registry () =
  let d = dev () in
  let data = Array.init 5000 (fun i -> float_of_int ((i * 13 mod 101) - 50)) in
  let x = Device.of_array d Dtype.F32 ~name:"x" data in
  let algo = Registry_util.entry "max_scan" in
  let y, _ = Registry_util.run algo d x in
  match Registry_util.check algo data y with
  | Ok () -> ()
  | Error e -> Alcotest.failf "max_scan reference check: %s" e

(* Every entry's oracle, on the driver's inputs: it accepts the entry's
   own output and rejects a copy with one value changed, naming that
   index. A token-only entry's copy points the token at an item with no
   mass instead. *)
let test_oracle_per_entry () =
  let module R = Scan.Op_registry in
  let n = 4096 in
  List.iter
    (fun (e : R.entry) ->
      let d = dev () in
      let cfg = Workload.Op_driver.config_for e ~n ~s:None in
      let host = Workload.Op_driver.host e ~n in
      let out =
        match R.run e cfg d (Workload.Op_driver.input e d ~n) with
        | Ok (out, _) -> out
        | Error msg -> Alcotest.failf "%s: %s" e.R.name msg
      in
      (match e.R.check cfg host out with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s rejects its own output: %s" e.R.name msg);
      let i, bad =
        match out.R.y with
        | Some y ->
            let len =
              match List.assoc_opt "count" out.R.aux with
              | Some c -> int_of_float c
              | None -> Global_tensor.length y
            in
            let i = len / 2 in
            let a = Global_tensor.to_array y in
            a.(i) <- a.(i) +. 1.0;
            let y = Device.of_array d (Global_tensor.dtype y) ~name:"bad" a in
            (i, { out with R.y = Some y })
        | None ->
            let i = ref 0 in
            while host.R.x.(!i) > 0.0 do incr i done;
            ( !i,
              { out with
                R.aux =
                  ("token", float_of_int !i) :: List.remove_assoc "token" out.R.aux
              } )
      in
      match e.R.check cfg host bad with
      | Ok () -> Alcotest.failf "%s accepts a wrong value at %d" e.R.name i
      | Error msg ->
          check_bool
            (Printf.sprintf "%s names index %d (%s)" e.R.name i msg)
            true
            (contains msg (Printf.sprintf "index %d:" i)))
    entries

(* Recycled scratch storage is invisible. Every entry runs twice in
   one process, the second pass on tiles the first pass retired: at
   n = 3000 most tiles are only partly written, so a write that did not
   raise its buffer's dirty extent would leave stale data in the pool
   and show up here as different output bits or Stats. *)

let bits a = Array.map Int64.bits_of_float a

type outcome = {
  y : int64 array option;
  aux : (string * int64) list;
  stats : Stats.t;
}

let run_entry ~domains (e : Scan.Op_registry.entry) =
  let n = 3000 in
  let d = Device.create ~domains () in
  let input = Workload.Op_driver.input e d ~n in
  match
    Scan.Op_registry.run e (Workload.Op_driver.config_for e ~n ~s:None) d input
  with
  | Error msg -> Alcotest.failf "%s: %s" e.Scan.Op_registry.name msg
  | Ok (out, stats) ->
      {
        y = Option.map (fun y -> bits (Global_tensor.to_array y)) out.y;
        aux = List.map (fun (k, v) -> (k, Int64.bits_of_float v)) out.aux;
        stats;
      }

let same_outcome a b =
  a.y = b.y && a.aux = b.aux
  && Stats.equal_simulated a.stats b.stats
  && a.stats.Stats.domains = b.stats.Stats.domains

let test_recycled_deterministic domains () =
  let pass () = List.map (fun e -> (e, run_entry ~domains e)) entries in
  let first = pass () in
  List.iter2
    (fun ((e : Scan.Op_registry.entry), a) (_, b) ->
      if not (same_outcome a b) then
        Alcotest.failf "%s at %d domains: second run differs"
          e.Scan.Op_registry.name domains)
    first (pass ())

let () =
  Alcotest.run "registry"
    [
      ( "roundtrip",
        List.map QCheck_alcotest.to_alcotest
          [ prop_name_roundtrip; prop_alias_resolution ]
        @ [
            Alcotest.test_case "names unique" `Quick test_names_unique;
            Alcotest.test_case "duplicate rejected" `Quick
              test_duplicate_registration_rejected;
            Alcotest.test_case "equality by name" `Quick test_equal_is_by_name;
          ] );
      ( "recycled",
        [
          Alcotest.test_case "every entry twice, 1 domain" `Quick
            (test_recycled_deterministic 1);
          Alcotest.test_case "every entry twice, 4 domains" `Quick
            (test_recycled_deterministic 4);
        ] );
      ( "errors",
        [
          Alcotest.test_case "exclusive rejected uniformly" `Quick
            test_exclusive_rejected_uniformly;
          Alcotest.test_case "unsupported dtype" `Quick
            test_unsupported_dtype_rejected;
          Alcotest.test_case "input arity" `Quick test_input_arity_checked;
          Alcotest.test_case "batched shape required" `Quick
            test_batched_requires_shape;
          Alcotest.test_case "operator params" `Quick
            test_op_param_errors_are_errors;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "max scan f32 via registry" `Quick
            test_max_scan_through_registry;
          Alcotest.test_case "every entry's oracle" `Quick
            test_oracle_per_entry;
        ] );
    ]
