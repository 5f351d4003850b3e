(* Integration tests of weighted sampling, the multinomial baseline and
   top-p (nucleus) sampling. *)

open Ascend

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* With unit weights the fp16 cdf is exact (n <= 2048) and the expected
   sample is analytic: first i with (i + 1) > theta * n. *)
let test_uniform_weights_exact () =
  let n = 2000 in
  let dev = Device.create () in
  let w = Device.of_array dev Dtype.F16 ~name:"w" (Array.make n 1.0) in
  List.iter
    (fun theta ->
      let expected = int_of_float (Float.floor (theta *. float_of_int n)) in
      let got, _ = Ops.Weighted_sampling.sample dev ~weights:w ~theta in
      check_int (Printf.sprintf "theta=%g" theta) expected got)
    [ 0.0; 0.1; 0.25; 0.5; 0.9; 0.9995 ]

let test_point_mass () =
  (* All mass on one index: every theta must return it. *)
  let n = 1000 in
  let data = Array.make n 0.0 in
  data.(617) <- 5.0;
  let dev = Device.create () in
  let w = Device.of_array dev Dtype.F16 ~name:"w" data in
  List.iter
    (fun theta ->
      let got, _ = Ops.Weighted_sampling.sample dev ~weights:w ~theta in
      check_int (Printf.sprintf "theta=%g" theta) 617 got)
    [ 0.0; 0.3; 0.99 ]

let test_matches_kernel_cdf () =
  (* For arbitrary weights the sample is defined against the kernel's
     own (fp16 MCScan) cdf. *)
  let n = 1500 in
  let data = Workload.Generators.small_ints ~seed:3 ~max_value:2 n in
  let dev = Device.create () in
  let w = Device.of_array dev Dtype.F16 ~name:"w" data in
  let cdf_t, _ = Scan.Mcscan.run dev w in
  let total = Global_tensor.get cdf_t (n - 1) in
  let theta = 0.61 in
  let target = theta *. total in
  let expected =
    let rec go i = if Global_tensor.get cdf_t i > target then i else go (i + 1) in
    go 0
  in
  let got, _ = Ops.Weighted_sampling.sample dev ~weights:w ~theta in
  check_int "kernel-cdf sample" expected got

let test_agrees_with_multinomial_baseline () =
  (* Both implementations draw from the same inverse-transform map when
     the cdf is exact. *)
  let n = 1024 in
  let data = Array.make n 1.0 in
  let dev = Device.create () in
  let w = Device.of_array dev Dtype.F16 ~name:"w" data in
  List.iter
    (fun theta ->
      let a, _ = Ops.Weighted_sampling.sample dev ~weights:w ~theta in
      let b, _ = Ops.Baseline.multinomial dev ~weights:w ~theta in
      check_int (Printf.sprintf "theta=%g" theta) a b)
    [ 0.05; 0.33; 0.77 ]

let test_multinomial_support_limit () =
  let dev = Device.create ~mode:Device.Cost_only () in
  let w =
    Device.alloc dev Dtype.F16 (Ops.Baseline.max_multinomial_support + 1)
      ~name:"w"
  in
  check_bool "limit enforced" true
    (try
       ignore (Ops.Baseline.multinomial dev ~weights:w ~theta:0.5);
       false
     with Invalid_argument _ -> true);
  (* Our operator accepts the same size (cost-only run). *)
  ignore (Ops.Weighted_sampling.sample dev ~weights:w ~theta:0.5);
  check_bool "ours unbounded" true true

let test_validation () =
  let dev = Device.create () in
  let w = Device.of_array dev Dtype.F16 ~name:"w" [| 1.0 |] in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_bool "theta range" true
    (raises (fun () -> ignore (Ops.Weighted_sampling.sample dev ~weights:w ~theta:1.0)));
  check_bool "theta nan" true
    (raises (fun () ->
         ignore (Ops.Weighted_sampling.sample dev ~weights:w ~theta:Float.nan)));
  check_bool "theta nan, many draws" true
    (raises (fun () ->
         ignore
           (Ops.Weighted_sampling.sample_many dev ~weights:w
              ~thetas:[| 0.5; Float.nan |])));
  let zero = Device.of_array dev Dtype.F16 ~name:"z" [| 0.0; 0.0 |] in
  check_bool "zero weights" true
    (raises (fun () ->
         ignore (Ops.Weighted_sampling.sample dev ~weights:zero ~theta:0.5)))

(* Top-p. *)

let topp_setup ~seed ~vocab =
  let probs = Workload.Generators.softmax_probs ~seed vocab in
  let dev = Device.create () in
  let pt = Device.of_array dev Dtype.F16 ~name:"probs" probs in
  (dev, probs, pt)

let test_topp_token_valid_and_in_nucleus () =
  let vocab = 4096 in
  let dev, probs, pt = topp_setup ~seed:11 ~vocab in
  let r = Ops.Topp.sample dev ~probs:pt ~p:0.9 ~theta:0.35 in
  (match r.Ops.Topp.token with
  | Some tok ->
      check_bool "token in range" true (tok >= 0 && tok < vocab);
      (* The sampled token must have probability at least as large as
         the smallest nucleus member: being generous, it must be
         strictly positive. *)
      check_bool "token has mass" true (probs.(tok) > 0.0)
  | None -> Alcotest.fail "token missing");
  check_bool "nucleus nonempty" true (r.Ops.Topp.kept >= 1);
  check_bool "nucleus below vocab" true (r.Ops.Topp.kept < vocab)

let test_topp_kept_close_to_oracle () =
  let vocab = 2048 in
  let dev, probs, pt = topp_setup ~seed:13 ~vocab in
  let r = Ops.Topp.sample dev ~probs:pt ~p:0.8 ~theta:0.2 in
  let oracle = Scan.Reference.top_p_threshold_count probs ~p:0.8 in
  (* fp16 cumsum plateaus make the cutoff fuzzy; require the same order
     of magnitude (within a factor of two of the exact count). *)
  check_bool
    (Printf.sprintf "kept %d vs oracle %d" r.Ops.Topp.kept oracle)
    true
    (float_of_int r.Ops.Topp.kept >= 0.5 *. float_of_int oracle
    && float_of_int r.Ops.Topp.kept <= 2.0 *. float_of_int oracle +. 4.0)

let test_topp_p_one_keeps_everything_with_mass () =
  let vocab = 512 in
  let dev, probs, pt = topp_setup ~seed:17 ~vocab in
  let r = Ops.Topp.sample dev ~probs:pt ~p:1.0 ~theta:0.5 in
  let with_mass =
    Array.fold_left (fun a v -> if v > 0.0 then a + 1 else a) 0 probs
  in
  check_bool "keeps almost everything" true
    (r.Ops.Topp.kept >= with_mass - (vocab / 16))

let test_topp_small_p_keeps_head () =
  let vocab = 1024 in
  let dev, _, pt = topp_setup ~seed:19 ~vocab in
  let r = Ops.Topp.sample dev ~probs:pt ~p:0.05 ~theta:0.0 in
  check_bool "small nucleus" true
    (r.Ops.Topp.kept >= 1 && r.Ops.Topp.kept <= vocab / 4);
  (* theta = 0 always samples the most probable token. *)
  match r.Ops.Topp.token with
  | Some _ -> ()
  | None -> Alcotest.fail "token missing"

let test_topp_baseline_agrees_roughly () =
  let vocab = 2048 in
  let dev, _, pt = topp_setup ~seed:23 ~vocab in
  let r = Ops.Topp.sample dev ~probs:pt ~p:0.9 ~theta:0.4 in
  let b = Ops.Topp.sample_baseline dev ~probs:pt ~p:0.9 ~theta:0.4 in
  check_bool "baseline kept similar" true
    (float_of_int b.Ops.Topp.kept >= 0.5 *. float_of_int r.Ops.Topp.kept
    && float_of_int b.Ops.Topp.kept <= 2.0 *. float_of_int r.Ops.Topp.kept);
  check_bool "baseline token is none" true (b.Ops.Topp.token = None)

let test_topp_batch () =
  let batch = 4 and len = 1024 in
  let dev = Device.create () in
  let rows =
    Array.init batch (fun b -> Workload.Generators.softmax_probs ~seed:(50 + b) len)
  in
  let flat = Array.concat (Array.to_list rows) in
  let pt = Device.of_array dev Dtype.F16 ~name:"probs" flat in
  let thetas = [| 0.1; 0.4; 0.7; 0.95 |] in
  let results = Ops.Topp.sample_batch dev ~probs:pt ~batch ~len ~p:0.9 ~thetas in
  check_int "one result per row" batch (Array.length results);
  Array.iteri
    (fun b r ->
      match r.Ops.Topp.token with
      | Some tok ->
          check_bool
            (Printf.sprintf "row %d token in range" b)
            true
            (tok >= 0 && tok < len);
          check_bool
            (Printf.sprintf "row %d token has mass" b)
            true
            (rows.(b).(tok) > 0.0)
      | None -> Alcotest.fail "token missing")
    results;
  check_bool "batch validation" true
    (try
       ignore (Ops.Topp.sample_batch dev ~probs:pt ~batch ~len ~p:0.9 ~thetas:[| 0.5 |]);
       false
     with Invalid_argument _ -> true)

(* A NaN p or theta fails the parameter's own range check, naming it,
   in every top-p entry point. *)
let test_topp_nan_params () =
  let dev, _, pt = topp_setup ~seed:3 ~vocab:64 in
  let expect what f =
    match f () with
    | () -> Alcotest.failf "NaN %s accepted" what
    | exception Invalid_argument msg ->
        let needle = what ^ " out of" in
        let n = String.length needle and m = String.length msg in
        let rec has i =
          i + n <= m && (String.sub msg i n = needle || has (i + 1))
        in
        check_bool (Printf.sprintf "%S names %s" msg what) true (has 0)
  in
  let nan = Float.nan in
  expect "theta" (fun () ->
      ignore (Ops.Topp.sample dev ~probs:pt ~p:0.9 ~theta:nan));
  expect "p" (fun () ->
      ignore (Ops.Topp.sample dev ~probs:pt ~p:nan ~theta:0.3));
  expect "theta" (fun () ->
      ignore (Ops.Topp.sample_baseline dev ~probs:pt ~p:0.9 ~theta:nan));
  expect "p" (fun () ->
      ignore (Ops.Topp.sample_baseline dev ~probs:pt ~p:nan ~theta:0.3));
  expect "theta" (fun () ->
      ignore
        (Ops.Topp.sample_batch dev ~probs:pt ~batch:2 ~len:32 ~p:0.9
           ~thetas:[| 0.3; nan |]));
  expect "p" (fun () ->
      ignore
        (Ops.Topp.sample_batch dev ~probs:pt ~batch:2 ~len:32 ~p:nan
           ~thetas:[| 0.3; 0.6 |]))

let test_topp_17_scans () =
  (* The headline structural claim: 16 radix scans + 1 cumsum, visible
     as at least 17 two-phase MCScan launches in the combined stats. *)
  let vocab = 1024 in
  let dev, _, pt = topp_setup ~seed:29 ~vocab in
  let r = Ops.Topp.sample dev ~probs:pt ~p:0.9 ~theta:0.4 in
  let phases = List.length r.Ops.Topp.stats.Stats.phases in
  check_bool (Printf.sprintf "phases %d >= 17 * 2" phases) true
    (phases >= 17 * 2)

let () =
  Alcotest.run "sampling"
    [
      ( "weighted",
        [
          Alcotest.test_case "uniform exact" `Quick test_uniform_weights_exact;
          Alcotest.test_case "point mass" `Quick test_point_mass;
          Alcotest.test_case "kernel cdf" `Quick test_matches_kernel_cdf;
          Alcotest.test_case "matches multinomial" `Quick
            test_agrees_with_multinomial_baseline;
          Alcotest.test_case "support limit" `Quick
            test_multinomial_support_limit;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "topp",
        [
          Alcotest.test_case "token valid" `Quick
            test_topp_token_valid_and_in_nucleus;
          Alcotest.test_case "kept near oracle" `Quick
            test_topp_kept_close_to_oracle;
          Alcotest.test_case "p=1" `Quick
            test_topp_p_one_keeps_everything_with_mass;
          Alcotest.test_case "small p" `Quick test_topp_small_p_keeps_head;
          Alcotest.test_case "baseline agrees" `Quick
            test_topp_baseline_agrees_roughly;
          Alcotest.test_case "batched rows" `Quick test_topp_batch;
          Alcotest.test_case "17 scans" `Quick test_topp_17_scans;
          Alcotest.test_case "NaN p and theta" `Quick test_topp_nan_params;
        ] );
    ]
