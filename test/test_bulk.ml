(* QCheck equivalence suite for the bulk Host_buffer kernels: every
   dtype-specialised loop must reproduce the scalar get/set shim it
   replaced bit for bit — same operand order, same rounding, same NaN
   canonicalization — across all dtypes, every operator, and unaligned
   offsets/lengths. Comparisons are on [Int64.bits_of_float] so NaN
   payload differences and -0.0 vs 0.0 are observable. *)

open Ascend

let all_dtypes = Dtype.[ F16; F32; I8; I16; U16; I32 ]

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Whole-buffer bitwise comparison: catches both wrong results in the
   target range and stray writes outside it. *)
let same_buffer a b =
  Host_buffer.length a = Host_buffer.length b
  && (let ok = ref true in
      for i = 0 to Host_buffer.length a - 1 do
        if not (same_float (Host_buffer.get a i) (Host_buffer.get b i)) then
          ok := false
      done;
      !ok)

(* Value generator biased towards the observable corners: NaNs with
   distinct payloads (quieting and canonicalization differ per dtype),
   infinities, signed zeros, fp16/fp32 overflow and subnormal
   boundaries, integer wrap points. *)
let interesting =
  [| 0.0; -0.0; 1.0; -1.0; 0.5; -0.5; 2049.0; 65504.0; 65519.0; 65520.0;
     -65520.0; 1e-8; 0x1p-24; 0x1p-25; 0x1p-14; infinity; neg_infinity;
     Float.nan; -.Float.nan;
     Int64.float_of_bits 0x7FF0000000000001L;
     Int64.float_of_bits 0xFFF8000000001234L;
     3.4e38; -3.4e38; 1e300; 126.5; 127.0; 128.0; -128.5; -129.0; 255.0;
     256.0; 32767.5; -32769.0; 65535.0; 65536.0; 2.147483648e9 |]

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (4, float);
        (4, oneofl (Array.to_list interesting));
        (2, map float_of_int (int_range (-2000) 2000));
        (1, map (fun f -> f *. 0x1p-30) float);
      ])

type case = {
  dt : Dtype.t;  (* destination dtype *)
  dt2 : Dtype.t;  (* source dtype *)
  len : int;
  o0 : int;  (* src0 offset *)
  o1 : int;  (* src1 / mask offset *)
  o2 : int;  (* src2 offset *)
  od : int;  (* dst offset *)
  a0 : float array;  (* length o0 + len *)
  a1 : float array;  (* length o1 + len *)
  a2 : float array;  (* length o2 + len *)
  d0 : float array;  (* initial dst contents, length od + len + 2 *)
  scalar : float;
  seg : int;
  bop : Host_buffer.binop;
  sop : Host_buffer.scalar_op;
}

let gen_case =
  let open QCheck.Gen in
  let* dt = oneofl all_dtypes in
  let* dt2 = oneofl all_dtypes in
  let* len = int_range 1 48 in
  let* o0 = int_range 0 5 in
  let* o1 = int_range 0 5 in
  let* o2 = int_range 0 5 in
  let* od = int_range 0 5 in
  let* a0 = array_size (return (o0 + len)) gen_value in
  let* a1 = array_size (return (o1 + len)) gen_value in
  let* a2 = array_size (return (o2 + len)) gen_value in
  let* d0 = array_size (return (od + len + 2)) gen_value in
  let* scalar = gen_value in
  let* seg = int_range 1 (len + 3) in
  let* bop = oneofl Host_buffer.[ Add; Sub; Mul; Max; Min ] in
  let* sop = oneofl Host_buffer.[ Adds; Muls; Maxs; Mins ] in
  return { dt; dt2; len; o0; o1; o2; od; a0; a1; a2; d0; scalar; seg; bop; sop }

let print_case c =
  let arr a =
    "[|"
    ^ String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") a))
    ^ "|]"
  in
  Printf.sprintf
    "dt=%s dt2=%s len=%d o0=%d o1=%d o2=%d od=%d seg=%d scalar=%h\n\
     a0=%s\na1=%s\na2=%s\nd0=%s"
    (Dtype.to_string c.dt) (Dtype.to_string c.dt2) c.len c.o0 c.o1 c.o2 c.od
    c.seg c.scalar (arr c.a0) (arr c.a1) (arr c.a2) (arr c.d0)

let arb_case = QCheck.make ~print:print_case gen_case

let fun_of_binop : Host_buffer.binop -> float -> float -> float = function
  | Host_buffer.Add -> ( +. )
  | Host_buffer.Sub -> ( -. )
  | Host_buffer.Mul -> ( *. )
  | Host_buffer.Max -> Float.max
  | Host_buffer.Min -> Float.min

(* The historical Vec operand order: adds/muls put the element left,
   maxs/mins partially applied the scalar first. *)
let fun_of_scalar_op scalar : Host_buffer.scalar_op -> float -> float = function
  | Host_buffer.Adds -> fun v -> v +. scalar
  | Host_buffer.Muls -> fun v -> v *. scalar
  | Host_buffer.Maxs -> Float.max scalar
  | Host_buffer.Mins -> Float.min scalar

let test ~name prop = QCheck.Test.make ~name ~count:400 arb_case prop

let prop_map2_binop =
  test ~name:"map2_binop = scalar shim" (fun c ->
      let src0 = Host_buffer.of_array c.dt2 c.a0 in
      let src1 = Host_buffer.of_array c.dt2 c.a1 in
      let bulk = Host_buffer.of_array c.dt c.d0 in
      let shim = Host_buffer.of_array c.dt c.d0 in
      Host_buffer.map2_binop c.bop ~src0 ~src0_off:c.o0 ~src1 ~src1_off:c.o1
        ~dst:bulk ~dst_off:c.od ~len:c.len;
      let f = fun_of_binop c.bop in
      for i = 0 to c.len - 1 do
        Host_buffer.set shim (c.od + i)
          (f
             (Host_buffer.get src0 (c.o0 + i))
             (Host_buffer.get src1 (c.o1 + i)))
      done;
      same_buffer bulk shim)

let prop_map1_scalar =
  test ~name:"map1_scalar = scalar shim" (fun c ->
      let src = Host_buffer.of_array c.dt2 c.a0 in
      let bulk = Host_buffer.of_array c.dt c.d0 in
      let shim = Host_buffer.of_array c.dt c.d0 in
      Host_buffer.map1_scalar c.sop ~src ~src_off:c.o0 ~dst:bulk ~dst_off:c.od
        ~scalar:c.scalar ~len:c.len;
      let f = fun_of_scalar_op c.scalar c.sop in
      for i = 0 to c.len - 1 do
        Host_buffer.set shim (c.od + i) (f (Host_buffer.get src (c.o0 + i)))
      done;
      same_buffer bulk shim)

let prop_map1_f =
  test ~name:"map1_f = scalar shim" (fun c ->
      let f v = (v *. 0.5) +. c.scalar in
      let src = Host_buffer.of_array c.dt2 c.a0 in
      let bulk = Host_buffer.of_array c.dt c.d0 in
      let shim = Host_buffer.of_array c.dt c.d0 in
      Host_buffer.map1_f f ~src ~src_off:c.o0 ~dst:bulk ~dst_off:c.od
        ~len:c.len;
      for i = 0 to c.len - 1 do
        Host_buffer.set shim (c.od + i) (f (Host_buffer.get src (c.o0 + i)))
      done;
      same_buffer bulk shim)

let cmps = Host_buffer.[| Eq; Ne; Lt; Le; Gt; Ge |]

let fun_of_cmp : Host_buffer.cmp -> int -> int -> bool = function
  | Host_buffer.Eq -> ( = )
  | Host_buffer.Ne -> ( <> )
  | Host_buffer.Lt -> ( < )
  | Host_buffer.Le -> ( <= )
  | Host_buffer.Gt -> ( > )
  | Host_buffer.Ge -> ( >= )

(* The closure [Vec.compare] ran before the typed kernel. *)
let compare_closure cmp a b =
  if fun_of_cmp cmp (Float.compare a b) 0 then 1.0 else 0.0

let prop_map2_compare =
  test ~name:"map2_compare = scalar shim" (fun c ->
      let cmp = cmps.(c.seg mod Array.length cmps) in
      let src0 = Host_buffer.of_array c.dt2 c.a0 in
      let src1 = Host_buffer.of_array c.dt2 c.a1 in
      let bulk = Host_buffer.of_array c.dt c.d0 in
      let shim = Host_buffer.of_array c.dt c.d0 in
      Host_buffer.map2_compare cmp ~src0 ~src0_off:c.o0 ~src1 ~src1_off:c.o1
        ~dst:bulk ~dst_off:c.od ~len:c.len;
      for i = 0 to c.len - 1 do
        Host_buffer.set shim (c.od + i)
          (compare_closure cmp
             (Host_buffer.get src0 (c.o0 + i))
             (Host_buffer.get src1 (c.o1 + i)))
      done;
      same_buffer bulk shim)

let prop_select_range =
  test ~name:"select_range = scalar shim" (fun c ->
      let mask = Host_buffer.of_array c.dt2 c.a1 in
      let src0 = Host_buffer.of_array c.dt2 c.a0 in
      let src1 = Host_buffer.of_array c.dt2 c.a2 in
      let bulk = Host_buffer.of_array c.dt c.d0 in
      let shim = Host_buffer.of_array c.dt c.d0 in
      Host_buffer.select_range ~mask ~mask_off:c.o1 ~src0 ~src0_off:c.o0 ~src1
        ~src1_off:c.o2 ~dst:bulk ~dst_off:c.od ~len:c.len;
      for i = 0 to c.len - 1 do
        Host_buffer.set shim (c.od + i)
          (if Host_buffer.get mask (c.o1 + i) <> 0.0 then
             Host_buffer.get src0 (c.o0 + i)
           else Host_buffer.get src1 (c.o2 + i))
      done;
      same_buffer bulk shim)

let prop_fill_range =
  test ~name:"fill_range = scalar shim" (fun c ->
      let bulk = Host_buffer.of_array c.dt c.d0 in
      let shim = Host_buffer.of_array c.dt c.d0 in
      Host_buffer.fill_range bulk ~off:c.od ~len:c.len c.scalar;
      for i = 0 to c.len - 1 do
        Host_buffer.set shim (c.od + i) c.scalar
      done;
      same_buffer bulk shim)

let prop_arange_range =
  test ~name:"arange_range = scalar shim" (fun c ->
      let bulk = Host_buffer.of_array c.dt c.d0 in
      let shim = Host_buffer.of_array c.dt c.d0 in
      Host_buffer.arange_range bulk ~off:c.od ~start:c.scalar ~len:c.len;
      for i = 0 to c.len - 1 do
        Host_buffer.set shim (c.od + i) (c.scalar +. float_of_int i)
      done;
      same_buffer bulk shim)

let prop_blit =
  test ~name:"blit (same-dtype and converting) = scalar shim" (fun c ->
      let src = Host_buffer.of_array c.dt2 c.a0 in
      let bulk = Host_buffer.of_array c.dt c.d0 in
      let shim = Host_buffer.of_array c.dt c.d0 in
      Host_buffer.blit ~src ~src_off:c.o0 ~dst:bulk ~dst_off:c.od ~len:c.len;
      for i = 0 to c.len - 1 do
        Host_buffer.set shim (c.od + i) (Host_buffer.get src (c.o0 + i))
      done;
      same_buffer bulk shim)

let prop_blit_overlap =
  test ~name:"overlapping same-buffer blit is memmove" (fun c ->
      (* d0 has length od + len + 2; shift by up to 2 in either
         direction so source and destination ranges overlap. *)
      let shift = (c.seg mod 5) - 2 in
      let src_off = max 0 (min 2 (2 + shift)) in
      let dst_off = max 0 (min 2 (2 - shift)) in
      let bulk = Host_buffer.of_array c.dt c.d0 in
      let snapshot = Host_buffer.to_array bulk in
      Host_buffer.blit ~src:bulk ~src_off ~dst:bulk ~dst_off ~len:c.len;
      let shim = Host_buffer.of_array c.dt c.d0 in
      for i = 0 to c.len - 1 do
        Host_buffer.set shim (dst_off + i) snapshot.(src_off + i)
      done;
      same_buffer bulk shim)

let prop_reduce_add =
  test ~name:"reduce_add = forward double fold" (fun c ->
      let b = Host_buffer.of_array c.dt2 c.a0 in
      let acc = ref 0.0 in
      for i = 0 to c.len - 1 do
        acc := !acc +. Host_buffer.get b (c.o0 + i)
      done;
      same_float (Host_buffer.reduce_add b ~off:c.o0 ~len:c.len) !acc)

let prop_reduce_max =
  test ~name:"reduce_max = Float.max fold from -inf" (fun c ->
      let b = Host_buffer.of_array c.dt2 c.a0 in
      let acc = ref neg_infinity in
      for i = 0 to c.len - 1 do
        acc := Float.max !acc (Host_buffer.get b (c.o0 + i))
      done;
      same_float (Host_buffer.reduce_max b ~off:c.o0 ~len:c.len) !acc)

let prop_scan_accum =
  test ~name:"scan_accum = scalar cumsum shim" (fun c ->
      let src = Host_buffer.of_array c.dt2 c.a0 in
      let bulk = Host_buffer.of_array c.dt c.d0 in
      let shim = Host_buffer.of_array c.dt c.d0 in
      let got = Host_buffer.scan_accum ~src ~dst:bulk ~len:c.len in
      let acc = ref 0.0 in
      for i = 0 to c.len - 1 do
        Host_buffer.set shim i (!acc +. Host_buffer.get src i);
        acc := Host_buffer.get shim i
      done;
      same_float got !acc && same_buffer bulk shim)

let prop_scan_segment =
  test ~name:"scan_segment = scalar carry shim" (fun c ->
      let bulk = Host_buffer.of_array c.dt c.d0 in
      let shim = Host_buffer.of_array c.dt c.d0 in
      let got =
        Host_buffer.scan_segment c.bop bulk ~off:c.od ~len:c.len ~seg:c.seg
          ~init:c.scalar
      in
      (* Combine with the carry in the map1_scalar operand order:
         Add/Sub/Mul put the element left, Max/Min the carry left.
         Where two NaNs meet under Add/Mul the element's NaN wins,
         written out so that no codegen can swap the operands. *)
      let nan_left v r = if Float.is_nan v then v +. v else r in
      let combine carry v =
        match c.bop with
        | Host_buffer.Add -> nan_left v (v +. carry)
        | Host_buffer.Sub -> v -. carry
        | Host_buffer.Mul -> nan_left v (v *. carry)
        | Host_buffer.Max -> Float.max carry v
        | Host_buffer.Min -> Float.min carry v
      in
      let carry = ref c.scalar in
      let pos = ref 0 in
      while !pos < c.len do
        let row_len = min c.seg (c.len - !pos) in
        let base = c.od + !pos in
        let cr = !carry in
        for j = base to base + row_len - 1 do
          Host_buffer.set shim j (combine cr (Host_buffer.get shim j))
        done;
        carry := Host_buffer.get shim (base + row_len - 1);
        pos := !pos + row_len
      done;
      same_float got !carry && same_buffer bulk shim)

let prop_of_array_roundtrip =
  test ~name:"of_array/to_array roundtrip = per-element round" (fun c ->
      let b = Host_buffer.of_array c.dt c.d0 in
      let back = Host_buffer.to_array b in
      Array.length back = Array.length c.d0
      && (let ok = ref true in
          Array.iteri
            (fun i v ->
              if not (same_float back.(i) (Dtype.round c.dt v)) then ok := false)
            c.d0;
          !ok))

(* The storage invariant behind every bulk fast path: an fp16 buffer
   element is exactly [Fp16.round] of what was stored, bit for bit —
   pinning Host_buffer's internal encoder to the public codec. *)
let prop_f16_set_is_fp16_round =
  QCheck.Test.make ~name:"F16 set/get = Fp16.round" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_value)
    (fun v ->
      let b = Host_buffer.create Dtype.F16 1 in
      Host_buffer.set b 0 v;
      same_float (Host_buffer.get b 0) (Fp16.round v))

let prop_f32_set_is_round_f32 =
  QCheck.Test.make ~name:"F32 set/get = Dtype.round_f32" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_value)
    (fun v ->
      let b = Host_buffer.create Dtype.F32 1 in
      Host_buffer.set b 0 v;
      same_float (Host_buffer.get b 0) (Dtype.round_f32 v))

let prop_gather_mask =
  test ~name:"gather_mask = scalar get/set compaction" (fun c ->
      let src = Host_buffer.of_array c.dt2 c.a0 in
      (* A mask with zeros (-0.0 among them) and non-zero entries, NaN
         included, through the mask dtype's own rounding. *)
      let mask =
        Host_buffer.of_array c.dt2
          (Array.mapi
             (fun i v -> if i mod 3 = 0 then Float.copy_sign 0.0 v else v)
             c.a1)
      in
      let bulk = Host_buffer.of_array c.dt c.d0 in
      let shim = Host_buffer.of_array c.dt c.d0 in
      let got =
        Host_buffer.gather_mask ~src ~src_off:c.o0 ~mask ~mask_off:c.o1
          ~dst:bulk ~dst_off:c.od ~len:c.len
      in
      let k = ref 0 in
      for i = 0 to c.len - 1 do
        if Host_buffer.get mask (c.o1 + i) <> 0.0 then begin
          Host_buffer.set shim (c.od + !k) (Host_buffer.get src (c.o0 + i));
          incr k
        end
      done;
      (* One element short of the selection: raises, writes nothing. *)
      let overflow_clean =
        !k = 0
        ||
        let small = Host_buffer.of_array c.dt (Array.sub c.d0 0 (c.od + !k - 1)) in
        let before = Host_buffer.copy small in
        (try
           ignore
             (Host_buffer.gather_mask ~src ~src_off:c.o0 ~mask ~mask_off:c.o1
                ~dst:small ~dst_off:c.od ~len:c.len);
           false
         with Invalid_argument _ -> true)
        && same_buffer small before
      in
      got = !k && same_buffer bulk shim && overflow_clean)

(* Every pair of distinct NaNs through the commutative kernels, on the
   float dtypes: the random cases above meet two NaNs only now and then,
   and which NaN survives depends on operand order in the generated
   code, so each pairing is enumerated here. *)
let test_two_nans () =
  let nans =
    [| Float.nan; -.Float.nan; Int64.float_of_bits 0x7FF0000000000001L;
       Int64.float_of_bits 0xFFF8000000001234L |]
  in
  let n = Array.length nans in
  let xs = Array.init (n * n) (fun i -> nans.(i / n))
  and ys = Array.init (n * n) (fun i -> nans.(i mod n)) in
  List.iter
    (fun dt ->
      let buf a = Host_buffer.of_array dt a in
      let expect_same what f =
        let bulk = buf xs and shim = buf xs in
        f bulk shim;
        if not (same_buffer bulk shim) then
          Alcotest.failf "%s on %s" what (Dtype.to_string dt)
      in
      List.iter
        (fun op ->
          expect_same "map2_binop" (fun bulk shim ->
              let a = buf xs and b = buf ys in
              Host_buffer.map2_binop op ~src0:a ~src0_off:0 ~src1:b ~src1_off:0
                ~dst:bulk ~dst_off:0 ~len:(n * n);
              for i = 0 to (n * n) - 1 do
                Host_buffer.set shim i
                  (fun_of_binop op (Host_buffer.get a i) (Host_buffer.get b i))
              done))
        Host_buffer.[ Add; Mul ];
      Array.iter
        (fun scalar ->
          List.iter
            (fun op ->
              expect_same "map1_scalar" (fun bulk shim ->
                  let a = buf xs in
                  Host_buffer.map1_scalar op ~src:a ~src_off:0 ~dst:bulk
                    ~dst_off:0 ~scalar ~len:(n * n);
                  for i = 0 to (n * n) - 1 do
                    Host_buffer.set shim i
                      (fun_of_scalar_op scalar op (Host_buffer.get a i))
                  done))
            Host_buffer.[ Adds; Muls ])
        nans)
    Dtype.[ F16; F32 ]

(* ------------------------------------------------------------------ *)
(* Integer dtypes on their edge values. [Host_buffer] and [Cube] each
   keep an inlined copy of the dtype rounding (a cross-module call per
   element would box); these cases pin both copies to [Dtype.round] and
   [Dtype.cast] at the wrap points, on signed zeros, halves, NaN and
   the infinities. *)

let int_dtypes = Dtype.[ I8; I16; U16; I32 ]

let edges =
  let p k = Float.ldexp 1.0 k in
  List.concat_map
    (fun v -> [ v; -.v ])
    [ p 7; p 7 -. 1.0; p 15; p 15 -. 1.0; p 16; p 31; p 31 -. 1.0; p 32;
      p 40; p 40 +. 3.0; 0.5; 1.5; 255.0; 65535.0; infinity ]
  @ [ -0.0; 0.0; Float.nan; -.Float.nan ]
  |> Array.of_list

let check_bits what expect got =
  if not (same_float expect got) then
    Alcotest.failf "%s: expected %h, got %h" what expect got

let test_int_of_array () =
  List.iter
    (fun dt ->
      let b = Host_buffer.of_array dt edges in
      Array.iteri
        (fun i v ->
          check_bits
            (Printf.sprintf "of_array %s %h" (Dtype.to_string dt) v)
            (Dtype.round dt v) (Host_buffer.get b i))
        edges)
    int_dtypes

let test_int_blit () =
  List.iter
    (fun into ->
      List.iter
        (fun from ->
          let src = Host_buffer.of_array from edges in
          let dst = Host_buffer.create into (Array.length edges) in
          Host_buffer.blit ~src ~src_off:0 ~dst ~dst_off:0
            ~len:(Array.length edges);
          for i = 0 to Array.length edges - 1 do
            let v = Host_buffer.get src i in
            check_bits
              (Printf.sprintf "blit %s->%s %h" (Dtype.to_string from)
                 (Dtype.to_string into) v)
              (Dtype.cast ~from ~into v) (Host_buffer.get dst i)
          done)
        all_dtypes)
    int_dtypes

let test_int_scan_segment () =
  List.iter
    (fun dt ->
      List.iter
        (fun op ->
          Array.iter
            (fun init ->
              let b = Host_buffer.of_array dt edges in
              let expect = Array.map (Dtype.round dt) edges in
              let n = Array.length edges and seg = 5 in
              let got = Host_buffer.scan_segment op b ~off:0 ~len:n ~seg ~init in
              let carry = ref init and r = fun_of_binop op in
              Array.iteri
                (fun j v ->
                  let v' =
                    match op with
                    | Host_buffer.Max | Host_buffer.Min -> r !carry v
                    | _ -> r v !carry
                  in
                  expect.(j) <- Dtype.round dt v';
                  if j mod seg = seg - 1 || j = n - 1 then carry := expect.(j))
                expect;
              check_bits "final carry" !carry got;
              Array.iteri
                (fun j e ->
                  check_bits
                    (Printf.sprintf "scan_segment %s init=%h [%d]"
                       (Dtype.to_string dt) init j)
                    e (Host_buffer.get b j))
                expect)
            edges)
        Host_buffer.[ Add; Sub; Mul; Max; Min ])
    int_dtypes

(* I8 x I8 -> I32 products on every structured evaluator and the
   general one, with and without accumulation into I32 contents taken
   from the edges (so sums wrap at 2^31), against exact double sums
   rounded by [Dtype.round I32]. *)
let test_cube_i32 () =
  let s = 8 and m = 8 in
  let dev = Device.create ~domains:1 () in
  let ctx = Block.make ~device:dev ~idx:0 ~num_blocks:1 in
  let pick i = edges.(i mod Array.length edges) in
  let general kind n =
    let t = Block.alloc ctx kind Dtype.I8 n in
    for i = 0 to n - 1 do Local_tensor.set t i (pick (7 * i)) done;
    t
  in
  let cases =
    [ ("U right", `Right Scan.Const_mat.Upper);
      ("L right", `Right Scan.Const_mat.Lower);
      ("1 right", `Right Scan.Const_mat.Ones);
      ("L- left", `Left Scan.Const_mat.Strict_lower);
      ("L left", `Left Scan.Const_mat.Lower);
      ("general", `General) ]
  in
  List.iter
    (fun (name, shape) ->
      List.iter
        (fun accumulate ->
          let a, b =
            match shape with
            | `Right which ->
                let b = Block.alloc ctx Mem_kind.L0b Dtype.I8 (s * s) in
                Scan.Const_mat.fill b ~s which;
                (general Mem_kind.L0a (m * s), b)
            | `Left which ->
                let a = Block.alloc ctx Mem_kind.L0a Dtype.I8 (m * m) in
                Scan.Const_mat.fill a ~s:m which;
                (a, general Mem_kind.L0b (m * s))
            | `General -> (general Mem_kind.L0a (m * s), general Mem_kind.L0b (s * s))
          in
          let k = match shape with `Left _ -> m | _ -> s in
          let c = Block.alloc ctx Mem_kind.L0c Dtype.I32 (m * s) in
          for i = 0 to (m * s) - 1 do Local_tensor.set c i (pick (3 * i)) done;
          let base = Array.init (m * s) (Local_tensor.get c) in
          Cube.mmad ctx ~a ~b ~c ~m ~k ~n:s ~accumulate;
          for i = 0 to m - 1 do
            for j = 0 to s - 1 do
              let sum = ref (if accumulate then base.((i * s) + j) else 0.0) in
              for t = 0 to k - 1 do
                sum :=
                  !sum
                  +. Local_tensor.get a ((i * k) + t)
                     *. Local_tensor.get b ((t * s) + j)
              done;
              check_bits
                (Printf.sprintf "%s acc=%b [%d,%d]" name accumulate i j)
                (Dtype.round Dtype.I32 !sum)
                (Local_tensor.get c ((i * s) + j))
            done
          done)
        [ false; true ])
    cases

(* ------------------------------------------------------------------ *)
(* Allocation guards: a bulk path that boxes allocates words per
   element, so each of these must stay under one minor word per element
   at 64K elements. *)

let n64k = 65536

let minor_words f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let check_alloc name f =
  let w = minor_words f in
  if w >= float_of_int n64k then
    Alcotest.failf "%s: %.0f minor words for %d elements" name w n64k

let test_alloc_guards () =
  let ints = Array.init n64k (fun i -> float_of_int ((i * 7919) - 200_000)) in
  let mask = Array.init n64k (fun i -> if i land 1 = 0 then 1.0 else 0.0) in
  let i32 = Host_buffer.of_array Dtype.I32 ints in
  let i16 = Host_buffer.create Dtype.I16 n64k in
  let m8 = Host_buffer.of_array Dtype.I8 mask in
  let f16 = Host_buffer.of_array Dtype.F16 ints in
  let f16' = Host_buffer.create Dtype.F16 n64k in
  check_alloc "of_array I8" (fun () ->
      Host_buffer.retire (Host_buffer.of_array Dtype.I8 ints));
  check_alloc "blit I32->I16" (fun () ->
      Host_buffer.blit ~src:i32 ~src_off:0 ~dst:i16 ~dst_off:0 ~len:n64k);
  check_alloc "scan_segment I32" (fun () ->
      ignore
        (Host_buffer.scan_segment Host_buffer.Add i32 ~off:0 ~len:n64k ~seg:128
           ~init:1.0));
  check_alloc "gather_mask F16" (fun () ->
      ignore
        (Host_buffer.gather_mask ~src:f16 ~src_off:0 ~mask:m8 ~mask_off:0
           ~dst:f16' ~dst_off:0 ~len:n64k));
  check_alloc "gather_mask I32" (fun () ->
      ignore
        (Host_buffer.gather_mask ~src:i32 ~src_off:0 ~mask:m8 ~mask_off:0
           ~dst:i16 ~dst_off:0 ~len:n64k));
  check_alloc "to_array" (fun () -> ignore (Host_buffer.to_array i32));
  let dev = Device.create ~domains:1 () in
  let x =
    Device.of_array dev Dtype.F16 ~name:"x"
      (Array.init n64k (fun i -> float_of_int (i land 3)))
  in
  check_alloc "ScanUL1 launch" (fun () ->
      let y, _ = Scan.Scan_ul1.run dev x in
      Global_tensor.retire y)

(* The typed integer and compare kernels against the per-element
   closures [Vec] ran before them, through the [Vec] ops themselves:
   every I8, I16 and U16 source value, into every integer dtype, in
   UB tiles of [chunk] elements. *)
let chunk = 8192

let vec_ctx () =
  Block.make ~device:(Device.create ~domains:1 ()) ~idx:0 ~num_blocks:1

let all_values dt =
  let lo = int_of_float (Dtype.min_value dt)
  and hi = int_of_float (Dtype.max_value dt) in
  Array.init (hi - lo + 1) (fun i -> float_of_int (lo + i))

let int_dsts = Dtype.[ I8; I16; U16; I32 ]

(* Run [op] over [values] (and [values1] as the second source) chunk
   by chunk, and compare every destination element with [expect]. *)
let check_chunks ctx ~what ~sdt ?(sdt1 = sdt) ~ddt ?values1 values op expect =
  let n = Array.length values in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk (n - !pos) in
    Block.reset_mem ctx (Mem_kind.Ub 0);
    let src = Block.alloc ctx (Mem_kind.Ub 0) sdt len in
    let src1 = Block.alloc ctx (Mem_kind.Ub 0) sdt1 len in
    let dst = Block.alloc ctx (Mem_kind.Ub 0) ddt len in
    for i = 0 to len - 1 do
      Local_tensor.set src i values.(!pos + i);
      Option.iter (fun v1 -> Local_tensor.set src1 i v1.(!pos + i)) values1
    done;
    op ~src ~src1 ~dst ~len;
    for i = 0 to len - 1 do
      let a = Local_tensor.get src i and b = Local_tensor.get src1 i in
      let e = Dtype.round ddt (expect a b) in
      let g = Local_tensor.get dst i in
      if not (same_float e g) then
        Alcotest.failf "%s %s,%s->%s: src %h, %h: expected %h, got %h" what
          (Dtype.to_string sdt) (Dtype.to_string sdt1) (Dtype.to_string ddt) a
          b e g
    done;
    pos := !pos + len
  done

let test_typed_bits () =
  let ctx = vec_ctx () in
  List.iter
    (fun sdt ->
      let values = all_values sdt in
      let n = Array.length values in
      (* A second source that pairs each value with a distant one. *)
      let values1 = Array.init n (fun i -> values.((i * 40503) mod n)) in
      let bits = Dtype.size_bytes sdt * 8 in
      (* [bit_op]'s second source has another dtype, masked to its own
         width. *)
      let sdt1 =
        match sdt with Dtype.I8 -> Dtype.I16 | Dtype.I16 -> Dtype.U16 | _ -> Dtype.I8
      in
      List.iter
        (fun ddt ->
          let check ?(sdt1 = sdt) what op f =
            check_chunks ctx ~what ~sdt ~sdt1 ~ddt ~values1 values op (fun a b ->
                float_of_int
                  (f (Dtype.unsigned_field sdt a) (Dtype.unsigned_field sdt1 b)))
          in
          List.iter
            (fun k ->
              check (Printf.sprintf "shift_right %d" k)
                (fun ~src ~src1:_ ~dst ~len ->
                  Vec.shift_right ctx ~src ~dst ~bits:k ~len ())
                (fun u _ -> u lsr k);
              check (Printf.sprintf "shift_left %d" k)
                (fun ~src ~src1:_ ~dst ~len ->
                  Vec.shift_left ctx ~src ~dst ~bits:k ~len ())
                (fun u _ -> u lsl k))
            [ 0; 1; 3; 7; 8; 15; bits ];
          List.iter
            (fun m ->
              check (Printf.sprintf "bit_ands %#x" m)
                (fun ~src ~src1:_ ~dst ~len ->
                  Vec.bit_ands ctx ~src ~dst ~mask:m ~len ())
                (fun u _ -> u land m);
              check (Printf.sprintf "bit_ors %#x" m)
                (fun ~src ~src1:_ ~dst ~len ->
                  Vec.bit_ors ctx ~src ~dst ~mask:m ~len ())
                (fun u _ -> u lor m);
              check (Printf.sprintf "bit_xors %#x" m)
                (fun ~src ~src1:_ ~dst ~len ->
                  Vec.bit_xors ctx ~src ~dst ~mask:m ~len ())
                (fun u _ -> u lxor m))
            [ 0; 0x5A; 0xFF; 0x8001; 0xFFFF; 0x1_0000 ];
          check "bit_not"
            (fun ~src ~src1:_ ~dst ~len -> Vec.bit_not ctx ~src ~dst ~len ())
            (fun u _ -> u lxor ((1 lsl bits) - 1));
          List.iter
            (fun (name, op, f) ->
              check ~sdt1 name
                (fun ~src ~src1 ~dst ~len ->
                  Vec.bit_op ctx op ~src0:src ~src1 ~dst ~len ())
                f)
            [ ("bit_op and", Vec.And, ( land ));
              ("bit_op or", Vec.Or, ( lor ));
              ("bit_op xor", Vec.Xor, ( lxor )) ])
        int_dsts)
    Dtype.[ I8; I16; U16 ]

(* Every ordered pair of the special values, as tensor-scalar and as
   tensor-tensor compares, from f16 and f32 sources into every dtype. *)
let test_typed_compares () =
  let specials =
    [| Float.nan; -.Float.nan; Int64.float_of_bits 0x7FF0000000000001L;
       0.0; -0.0; infinity; neg_infinity; 0x1p-24; -0x1p-24; 0x1p-25;
       0x1p-14; 0x1.ff8p-15; 65504.0; -65504.0; 65520.0; 0x1p-149;
       -0x1p-149; 0x1p-1074; 1.0; -1.0 |]
  in
  let n = Array.length specials in
  let lhs = Array.init (n * n) (fun i -> specials.(i / n)) in
  let rhs = Array.init (n * n) (fun i -> specials.(i mod n)) in
  let ctx = vec_ctx () in
  List.iter
    (fun sdt ->
      List.iter
        (fun ddt ->
          Array.iter
            (fun cmp ->
              check_chunks ctx ~what:"compare" ~sdt ~ddt ~values1:rhs lhs
                (fun ~src ~src1 ~dst ~len ->
                  Vec.compare ctx cmp ~src0:src ~src1 ~dst ~len ())
                (compare_closure cmp);
              Array.iter
                (fun scalar ->
                  check_chunks ctx ~what:"compare_scalar" ~sdt ~ddt specials
                    (fun ~src ~src1:_ ~dst ~len ->
                      Vec.compare_scalar ctx cmp ~src ~dst ~scalar ~len ())
                    (fun a _ -> compare_closure cmp a scalar))
                specials)
            cmps)
        all_dtypes)
    Dtype.[ F16; F32 ]

let () =
  Alcotest.run "bulk"
    [
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_map2_binop;
            prop_map1_scalar;
            prop_map1_f;
            prop_map2_compare;
            prop_select_range;
            prop_fill_range;
            prop_arange_range;
            prop_blit;
            prop_blit_overlap;
            prop_reduce_add;
            prop_reduce_max;
            prop_scan_accum;
            prop_scan_segment;
            prop_of_array_roundtrip;
            prop_f16_set_is_fp16_round;
            prop_f32_set_is_round_f32;
            prop_gather_mask;
          ] );
      ("two NaNs", [ Alcotest.test_case "kernels = shim" `Quick test_two_nans ]);
      ( "typed ops",
        [
          Alcotest.test_case "bit ops = closures" `Quick test_typed_bits;
          Alcotest.test_case "compares = closures" `Quick test_typed_compares;
        ] );
      ( "int edges",
        [
          Alcotest.test_case "of_array = Dtype.round" `Quick test_int_of_array;
          Alcotest.test_case "converting blit = Dtype.cast" `Quick test_int_blit;
          Alcotest.test_case "scan_segment = Dtype.round" `Quick
            test_int_scan_segment;
          Alcotest.test_case "Cube I32 evaluators = Dtype.round" `Quick
            test_cube_i32;
        ] );
      ( "allocation",
        [ Alcotest.test_case "bulk paths stay unboxed" `Quick test_alloc_guards ]
      );
    ]
