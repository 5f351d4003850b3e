(* Integration tests of the segmented scan, and of the in-UB
   Hillis-Steele networks it and the max scan are built from. *)

open Ascend

let check_bool = Alcotest.(check bool)

let run_case ~name x flags =
  let dev = Device.create () in
  let xt = Device.of_array dev Dtype.F16 ~name:"x" x in
  let ft = Device.of_array dev Dtype.I8 ~name:"f" flags in
  let y, stats = Scan.Segmented_scan.run dev ~x:xt ~flags:ft () in
  (match
     Registry_util.(check ~mask:flags (entry "segmented_scan")) x y
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e);
  stats

(* Exact fp16 data: values in {-1, 0, 1}; segments short enough that
   every partial stays well inside the exact integer range. *)
let values ~seed n =
  let rng = Random.State.make [| seed |] in
  Array.init n (fun _ -> float_of_int (Random.State.int rng 3 - 1))

let seg_flags ~seed ~avg_len n =
  let rng = Random.State.make [| seed |] in
  Array.init n (fun i ->
      if i = 0 || Random.State.int rng avg_len = 0 then 1.0 else 0.0)

let test_basic_shapes () =
  List.iter
    (fun (n, avg) ->
      ignore
        (run_case
           ~name:(Printf.sprintf "n=%d avg=%d" n avg)
           (values ~seed:n n)
           (seg_flags ~seed:(n + 1) ~avg_len:avg n)))
    [ (1, 1); (100, 5); (8192, 40); (8193, 7); (30000, 100); (50000, 3) ]

let test_single_segment_equals_scan () =
  let n = 20000 in
  let x = Array.init n (fun i -> if i mod 37 = 0 then 1.0 else 0.0) in
  let flags = Array.make n 0.0 in
  flags.(0) <- 1.0;
  let dev = Device.create () in
  let xt = Device.of_array dev Dtype.F16 ~name:"x" x in
  let ft = Device.of_array dev Dtype.I8 ~name:"f" flags in
  let y, _ = Scan.Segmented_scan.run dev ~x:xt ~flags:ft () in
  let plain, _ = Scan.Mcscan.run dev xt in
  for i = 0 to n - 1 do
    if Global_tensor.get y i <> Global_tensor.get plain i then
      Alcotest.failf "diverges from plain scan at %d" i
  done

let test_all_boundaries_is_identity () =
  let n = 5000 in
  let x = values ~seed:9 n in
  let flags = Array.make n 1.0 in
  let dev = Device.create () in
  let xt = Device.of_array dev Dtype.F16 ~name:"x" x in
  let ft = Device.of_array dev Dtype.I8 ~name:"f" flags in
  let y, _ = Scan.Segmented_scan.run dev ~x:xt ~flags:ft () in
  for i = 0 to n - 1 do
    if Global_tensor.get y i <> x.(i) then Alcotest.failf "not identity at %d" i
  done

let test_boundary_at_tile_edges () =
  (* Boundaries exactly at 8192-tile and sub-block edges; sparse ones
     keep every segment sum exactly representable in fp16. *)
  let n = 3 * 8192 in
  let x = Array.init n (fun i -> if i mod 5 = 0 then 1.0 else 0.0) in
  let flags = Array.make n 0.0 in
  flags.(0) <- 1.0;
  flags.(8191) <- 1.0;
  flags.(8192) <- 1.0;
  flags.(16384) <- 1.0;
  ignore (run_case ~name:"tile edges" x flags)

let test_implicit_first_segment () =
  (* flags.(0) = 0 must still behave as a segment start. *)
  let n = 1000 in
  let x = Array.make n 1.0 in
  let flags = Array.make n 0.0 in
  flags.(500) <- 1.0;
  let dev = Device.create () in
  let xt = Device.of_array dev Dtype.F16 ~name:"x" x in
  let ft = Device.of_array dev Dtype.I8 ~name:"f" flags in
  let y, _ = Scan.Segmented_scan.run dev ~x:xt ~flags:ft () in
  check_bool "prefix before flag" true (Global_tensor.get y 499 = 500.0);
  check_bool "restart at flag" true (Global_tensor.get y 500 = 1.0)

let test_validation () =
  let dev = Device.create () in
  let x = Device.of_array dev Dtype.F16 ~name:"x" [| 1.0 |] in
  let f2 = Device.of_array dev Dtype.I8 ~name:"f" [| 1.0; 0.0 |] in
  check_bool "length mismatch" true
    (try
       ignore (Scan.Segmented_scan.run dev ~x ~flags:f2 ());
       false
     with Invalid_argument _ -> true)

(* The in-UB Hillis-Steele networks. *)

let test_hillis_steele_add_max () =
  let dev = Device.create () in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  let n = 100 in
  let buf = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F32 n in
  let tmp = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F32 n in
  let data = Array.init n (fun i -> float_of_int ((i * 7 mod 5) - 2)) in
  Array.iteri (fun i v -> Local_tensor.set buf i v) data;
  Vec.hillis_steele ctx ~op:Vec.Add ~buf ~tmp ~len:n ();
  let expect = Scan.Reference.inclusive_scan data in
  for i = 0 to n - 1 do
    if Local_tensor.get buf i <> expect.(i) then
      Alcotest.failf "hs add mismatch at %d" i
  done;
  Array.iteri (fun i v -> Local_tensor.set buf i v) data;
  Vec.hillis_steele ctx ~op:Vec.Max ~buf ~tmp ~len:n ();
  let acc = ref neg_infinity in
  for i = 0 to n - 1 do
    acc := Float.max !acc data.(i);
    if Local_tensor.get buf i <> !acc then
      Alcotest.failf "hs max mismatch at %d" i
  done

let test_segmented_network_tile () =
  let dev = Device.create () in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  let n = 257 in
  let ub dt = Block.alloc ctx (Mem_kind.Ub 0) dt 512 in
  let v = ub Dtype.F16 and tmp_v = ub Dtype.F16 and zero = ub Dtype.F16 in
  let f = ub Dtype.I8 and tmp_f = ub Dtype.I8 in
  let data = values ~seed:3 n and flags = seg_flags ~seed:4 ~avg_len:10 n in
  Array.iteri (fun i x -> Local_tensor.set v i x) data;
  Array.iteri (fun i x -> Local_tensor.set f i x) flags;
  Vec.dup ctx ~dst:zero ~scalar:0.0 ~len:512 ();
  Vec.segmented_hillis_steele ctx ~v ~f ~tmp_v ~tmp_f ~zero ~len:n ();
  let expect = Scan.Reference.segmented_inclusive ~round:Fun.id data ~flags in
  for i = 0 to n - 1 do
    if Local_tensor.get v i <> expect.(i) then
      Alcotest.failf "segmented network mismatch at %d" i
  done;
  (* Scanned flags: boundary seen up to i. *)
  let seen = ref false in
  for i = 0 to n - 1 do
    if flags.(i) <> 0.0 then seen := true;
    let got = Local_tensor.get f i <> 0.0 in
    if got <> !seen then Alcotest.failf "flag or-scan mismatch at %d" i
  done

(* Equivalence of the tile-batched networks with the per-instruction
   loops the kernels ran before {!Vec.hillis_steele} and
   {!Vec.segmented_hillis_steele}, kept here as the reference. *)

let loop_hillis_steele ctx ~op ~buf ~tmp ~len =
  let d = ref 1 in
  while !d < len do
    Vec.binop ctx op ~src0:buf ~src0_off:!d ~src1:buf ~src1_off:0 ~dst:tmp
      ~dst_off:!d ~len:(len - !d) ();
    Vec.copy ctx ~src:tmp ~src_off:!d ~dst:buf ~dst_off:!d ~len:(len - !d) ();
    d := !d * 2
  done

let loop_segmented ctx ~v ~f ~tmp_v ~tmp_f ~zero ~len =
  let d = ref 1 in
  while !d < len do
    Vec.select ctx ~mask_off:!d ~mask:f ~src0_off:0 ~src0:zero ~src1_off:0
      ~src1:v ~dst_off:!d ~dst:tmp_v ~len:(len - !d) ();
    Vec.binop ctx Vec.Add ~src0:v ~src0_off:!d ~src1:tmp_v ~src1_off:!d ~dst:v
      ~dst_off:!d ~len:(len - !d) ();
    Vec.copy ctx ~src:f ~dst:tmp_f ~len ();
    Vec.bit_op ctx Vec.Or ~src0:tmp_f ~src0_off:!d ~src1:tmp_f ~src1_off:0
      ~dst:f ~dst_off:!d ~len:(len - !d) ();
    d := !d * 2
  done

type impl = Loop | Batched
type net = Plain of Vec.binop | Segmented

let net_name = function
  | Plain Vec.Add -> "add" | Plain Vec.Sub -> "sub" | Plain Vec.Mul -> "mul"
  | Plain Vec.Max -> "max" | Plain Vec.Min -> "min" | Segmented -> "segmented"

let eq_lens = [ 0; 1; 2; 3; 5; 128; 8191; 8192 ]

let eq_nets =
  Segmented :: List.map (fun op -> Plain op) Vec.[ Add; Max; Min; Mul ]

let bits lt n =
  List.init (min n lt.Local_tensor.length) (fun i ->
      Int64.bits_of_float (Local_tensor.get lt i))

(* How one named operand tile departs from a well-formed network. *)
type odd = Short  (* [len - 1] elements, or none *) | In_l1 | As_f16 | As_f32

(* One network over [len] elements of [dt] values (I8 flags). The
   tiles hold [max len 1] elements; [odd] names one tile made wrong.
   [pre] runs after the tiles are filled (e.g. an async copy left in
   flight); [prelude] issues a one-element copy first, so the network's
   names meet a name seen before them. Returns the scanned values' bits
   (and flags' for the segmented network). *)
let run_net ?(pre = fun _ ~value:_ ~flag:_ -> ()) ?(prelude = false)
    ?(odd = ("", Short)) ~impl ~net ~dt ~len ctx =
  let tile = max len 1 in
  let ub name d =
    match odd with
    | n, Short when n = name ->
        Block.alloc ctx (Mem_kind.Ub 0) d (max 0 (len - 1))
    | n, In_l1 when n = name -> Block.alloc ctx Mem_kind.L1 d tile
    | n, As_f16 when n = name -> Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 tile
    | n, As_f32 when n = name -> Block.alloc ctx (Mem_kind.Ub 0) Dtype.F32 tile
    | _ -> Block.alloc ctx (Mem_kind.Ub 0) d tile
  in
  let fill lt f =
    if Block.functional ctx then
      for i = 0 to lt.Local_tensor.length - 1 do
        Local_tensor.set lt i (f i)
      done
  in
  let value i = float_of_int ((i * 7 mod 5) - 2) *. 0.75 in
  match net with
  | Plain op ->
      let buf = ub "buf" dt and tmp = ub "tmp" dt in
      fill buf value;
      pre ctx ~value:buf ~flag:buf;
      if prelude then Vec.copy ctx ~src:buf ~dst:tmp ~len:1 ();
      (match impl with
      | Loop -> loop_hillis_steele ctx ~op ~buf ~tmp ~len
      | Batched -> Vec.hillis_steele ctx ~op ~buf ~tmp ~len ());
      bits buf len
  | Segmented ->
      let v = ub "v" dt and tmp_v = ub "tmp_v" dt and zero = ub "zero" dt in
      let f = ub "f" Dtype.I8 and tmp_f = ub "tmp_f" Dtype.I8 in
      fill v value;
      fill f (fun i -> if i mod 11 = 3 then 1.0 else 0.0);
      pre ctx ~value:v ~flag:f;
      if prelude then Vec.copy ctx ~src:f ~dst:tmp_f ~len:1 ();
      (match impl with
      | Loop -> loop_segmented ctx ~v ~f ~tmp_v ~tmp_f ~zero ~len
      | Batched ->
          Vec.segmented_hillis_steele ctx ~v ~f ~tmp_v ~tmp_f ~zero ~len ());
      bits v len @ bits f len

let eq_device ?(mode = Device.Functional) ?(sanitize = false) ?(kills = [])
    ?(trace = false) () =
  let fault =
    if kills = [] then None else Some (Fault.config ~seed:0 ~rate:0.0 ~kills ())
  in
  let dev = Device.create ~mode ?fault ~sanitize () in
  if trace then ignore (Device.arm_trace dev);
  dev

(* One block on a bare context: its result and the data bits. *)
let block_run ?mode ?trace ?prelude ?odd ~impl ~net ~dt ~len () =
  let dev = eq_device ?mode ?trace () in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  let data = run_net ?prelude ?odd ~impl ~net ~dt ~len ctx in
  (Block.finish ctx, data)

let case_name ~net ~dt ~len ~mode ~prelude =
  Printf.sprintf "%s %s len=%d %s%s" (net_name net) (Dtype.to_string dt) len
    (match mode with
    | Device.Functional -> "functional"
    | Cost_only -> "cost-only")
    (if prelude then " after copy" else "")

(* Data bits, cycles, busy cycles, and op counts in first-seen order,
   for every length, operator, dtype and mode; with a trace armed, the
   spans, edges and marks. [scratch] gives the scratch value tile
   another dtype than the scanned one. *)
let check_equivalent ?(trace = false) ?scratch ?(dts = Dtype.[ F16; F32 ]) ()
    =
  List.iter
    (fun net ->
      List.iter
        (fun dt ->
          List.iter
            (fun len ->
              List.iter
                (fun (mode, prelude) ->
                  let what = case_name ~net ~dt ~len ~mode ~prelude in
                  let tmp =
                    match net with Plain _ -> "tmp" | Segmented -> "tmp_v"
                  in
                  let odd = Option.map (fun d -> (tmp, d)) scratch in
                  let run impl =
                    block_run ~mode ~trace ~prelude ?odd ~impl ~net ~dt ~len ()
                  in
                  let (a : Block.result), da = run Loop in
                  let (b : Block.result), db = run Batched in
                  let fbits = Int64.bits_of_float in
                  check_bool (what ^ ": data") true (da = db);
                  check_bool (what ^ ": cycles") true
                    (fbits a.cycles = fbits b.cycles);
                  check_bool (what ^ ": busy") true
                    (Array.map fbits a.busy = Array.map fbits b.busy);
                  Alcotest.(check (list (pair string int)))
                    (what ^ ": op counts") a.op_counts b.op_counts;
                  check_bool (what ^ ": trace") true (a.trace = b.trace))
                [
                  (Device.Functional, false); (Device.Functional, true);
                  (Device.Cost_only, false); (Device.Cost_only, true);
                ])
            eq_lens)
        dts)
    eq_nets

let test_equivalent () =
  check_equivalent ();
  check_equivalent ~scratch:As_f32 ~dts:[ Dtype.F16 ] ()
let test_equivalent_traced () = check_equivalent ~trace:true ()

(* A tile of [len <= 1] issues, checks and counts nothing: even a tile
   too short to hold it passes. *)
let test_short_tile_issues_nothing () =
  List.iter
    (fun net ->
      List.iter
        (fun len ->
          let dev = eq_device () in
          let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
          ignore
            (run_net ~impl:Batched ~net ~dt:Dtype.F16 ~len
               ~odd:
                 ((match net with Plain _ -> "buf" | Segmented -> "v"), Short)
               ctx);
          let r = Block.finish ctx in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s len=%d: no ops" (net_name net) len)
            [] r.Block.op_counts;
          check_bool "no cycles" true (r.Block.cycles = 0.0))
        [ 0; 1 ])
    eq_nets

let stats_bytes (st : Stats.t) =
  Marshal.to_string { st with Stats.host_seconds = 0.0 } [ Marshal.No_sharing ]

let block_recs dev =
  match Device.trace dev with
  | None -> []
  | Some tr ->
      List.concat_map
        (fun l ->
          List.concat_map (fun p -> p.Trace.ph_blocks) l.Trace.ln_phases)
        (Trace.launches tr)

(* A launch of two blocks, each the network plus as many [muls] as the
   network has steps, so names tie: the merged [Stats.op_counts] keep
   the tie order of the per-instruction loop, before and after a
   prelude copy. With [kills], core 0 dies inside the network and the
   block replays on a survivor. *)
let steps len =
  let rec go d k = if d >= len then k else go (2 * d) (k + 1) in
  go 1 0

(* The async copy of [hazard] ([`Value] or [`Flag] tile) is left in
   flight across the network. *)
let launch_run ?mode ?sanitize ?kills ?trace ?hazard ?odd ?(prelude = false)
    ~impl ~net ~dt ~len () =
  let dev = eq_device ?mode ?sanitize ?kills ?trace () in
  let pre ctx ~value ~flag =
    Option.iter
      (fun which ->
        let dst = match which with `Value -> value | `Flag -> flag in
        let src = Device.alloc dev dst.Local_tensor.dtype 1 ~name:"g" in
        Mte.copy_in_async ctx ~engine:(Engine.Vec_mte_in 0) ~src ~dst ~len:1 ())
      hazard
  in
  let data = ref [] in
  let result =
    match
      Launch.run dev ~blocks:2 (fun ctx ->
          data := run_net ~pre ?odd ~prelude ~impl ~net ~dt ~len ctx;
          let t = Block.alloc ctx (Mem_kind.Ub 0) dt 4 in
          for _ = 1 to steps len do
            Vec.muls ctx ~src:t ~dst:t ~scalar:1.0 ~len:4 ()
          done)
    with
    | st -> Ok (stats_bytes st)
    | exception Invalid_argument msg -> Error msg
  in
  let diags =
    match Device.sanitizer dev with
    | Some san -> Sanitizer.diagnostics san
    | None -> []
  in
  (result, !data, block_recs dev, diags, dev)

let check_launches what (ra, da, ta, ga, _) (rb, db, tb, gb, _) =
  check_bool (what ^ ": stats or error") true (ra = rb);
  check_bool (what ^ ": data") true (da = db);
  check_bool (what ^ ": block records") true (ta = tb);
  check_bool (what ^ ": diagnostics") true (ga = gb)

let both ?mode ?sanitize ?kills ?trace ?hazard ?odd ?prelude ~net ~dt ~len () =
  let run impl =
    launch_run ?mode ?sanitize ?kills ?trace ?hazard ?odd ?prelude ~impl ~net
      ~dt ~len ()
  in
  (run Loop, run Batched)

let test_launch_tie_order () =
  List.iter
    (fun net ->
      List.iter
        (fun len ->
          List.iter
            (fun (mode, prelude) ->
              let what =
                case_name ~net ~dt:Dtype.F16 ~len ~mode ~prelude
              in
              let a, b = both ~mode ~prelude ~net ~dt:Dtype.F16 ~len () in
              check_launches what a b)
            [
              (Device.Functional, false); (Device.Functional, true);
              (Device.Cost_only, false); (Device.Cost_only, true);
            ])
        [ 2; 5; 128; 8192 ])
    eq_nets

(* Core 0 dies halfway through block 0's charged cycles, inside the
   network: the same death cycle (the trace's death mark), the same
   partial block and the same replay, traced or not. *)
let test_killed_inside_tile () =
  List.iter
    (fun net ->
      List.iter
        (fun (mode, len) ->
          let probe = eq_device ~mode () in
          let st =
            Launch.run probe ~blocks:2 (fun ctx ->
                ignore (run_net ~impl:Batched ~net ~dt:Dtype.F16 ~len ctx))
          in
          let kill = st.Stats.core_busy.(0) /. 2.0 in
          List.iter
            (fun trace ->
              let what =
                Printf.sprintf "%s len=%d killed at %g%s" (net_name net) len
                  kill (if trace then " traced" else "")
              in
              let a, b =
                both ~mode ~kills:[ (0, kill) ] ~trace ~net ~dt:Dtype.F16
                  ~len ()
              in
              check_launches what a b;
              let _, _, _, _, dev = b in
              check_bool (what ^ ": core 0 died") false
                (Health.alive (Device.health dev) 0);
              if trace then begin
                let _, _, recs, _, _ = b in
                check_bool (what ^ ": death mark") true
                  (List.exists
                     (fun r ->
                       List.exists
                         (fun m -> m.Trace.mk_kind = Trace.Death)
                         r.Trace.b_marks)
                     recs)
              end)
            [ false; true ])
        [ (Device.Functional, 128); (Device.Cost_only, 8192) ])
    eq_nets

(* Under an armed sanitizer: an async copy still in flight into the
   value or flag tile leaves the loop's async-hazard diagnostics, and a
   tile too short for [len], outside UB or of a non-integer flag dtype
   raises the loop's [Invalid_argument] after recording the same
   out-of-bounds diagnostic. *)
let test_sanitized () =
  List.iter
    (fun mode ->
      List.iter
        (fun (net, hazard) ->
          let what = net_name net ^ " async copy in flight" in
          let ((_, _, _, diags, _) as a), b =
            both ~mode ~sanitize:true ~hazard ~net ~dt:Dtype.F16 ~len:8192 ()
          in
          check_launches what a b;
          check_bool (what ^ ": hazards seen") true (diags <> []))
        [
          (Plain Vec.Max, `Value); (Segmented, `Value); (Segmented, `Flag);
        ];
      List.iter
        (fun (net, odd) ->
          let what =
            Printf.sprintf "%s %s %s" (net_name net) (fst odd)
              (match snd odd with
              | Short -> "short" | In_l1 -> "in L1" | As_f16 -> "f16"
              | As_f32 -> "f32")
          in
          List.iter
            (fun len ->
              let ((result, _, _, _, _) as a), b =
                both ~mode ~sanitize:true ~odd ~net ~dt:Dtype.F16 ~len ()
              in
              check_launches what a b;
              check_bool (what ^ ": raises") true
                (fst odd = "zero" || Result.is_error result))
            [ 5; 8192 ])
        [
          (Plain Vec.Add, ("buf", Short)); (Plain Vec.Add, ("tmp", Short));
          (Plain Vec.Add, ("tmp", In_l1)); (Segmented, ("f", Short));
          (Segmented, ("zero", Short)); (Segmented, ("v", Short));
          (Segmented, ("tmp_v", Short)); (Segmented, ("tmp_f", Short));
          (Segmented, ("tmp_f", In_l1)); (Segmented, ("tmp_f", As_f16));
          (Segmented, ("f", As_f16));
        ])
    [ Device.Functional; Device.Cost_only ]

let () =
  Alcotest.run "segmented"
    [
      ( "segmented_scan",
        [
          Alcotest.test_case "shapes" `Quick test_basic_shapes;
          Alcotest.test_case "single segment = plain scan" `Quick
            test_single_segment_equals_scan;
          Alcotest.test_case "all boundaries = identity" `Quick
            test_all_boundaries_is_identity;
          Alcotest.test_case "tile edges" `Quick test_boundary_at_tile_edges;
          Alcotest.test_case "implicit first segment" `Quick
            test_implicit_first_segment;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "networks",
        [
          Alcotest.test_case "hillis-steele add/max" `Quick
            test_hillis_steele_add_max;
          Alcotest.test_case "segmented network" `Quick
            test_segmented_network_tile;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "batched = per-instruction loop" `Quick
            test_equivalent;
          Alcotest.test_case "traced" `Quick test_equivalent_traced;
          Alcotest.test_case "len <= 1 issues nothing" `Quick
            test_short_tile_issues_nothing;
          Alcotest.test_case "launch op count tie order" `Quick
            test_launch_tie_order;
          Alcotest.test_case "core killed inside the tile" `Quick
            test_killed_inside_tile;
          Alcotest.test_case "sanitized" `Quick test_sanitized;
        ] );
    ]
