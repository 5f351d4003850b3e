(* Unit tests of the dtype-faithful host buffers. *)

open Ascend

let check_float = Alcotest.(check (float 0.0))
let check_int = Alcotest.(check int)

let test_create_and_access () =
  let b = Host_buffer.create Dtype.F16 10 in
  check_int "length" 10 (Host_buffer.length b);
  check_int "bytes" 20 (Host_buffer.size_bytes b);
  check_float "zero init" 0.0 (Host_buffer.get b 5);
  Host_buffer.set b 3 1.5;
  check_float "set/get" 1.5 (Host_buffer.get b 3)

let test_rounding_on_set () =
  let b = Host_buffer.create Dtype.F16 2 in
  Host_buffer.set b 0 2049.0;
  check_float "f16 rounded" 2048.0 (Host_buffer.get b 0);
  let bi = Host_buffer.create Dtype.I8 2 in
  Host_buffer.set bi 0 200.0;
  check_float "i8 wrapped" (-56.0) (Host_buffer.get bi 0)

let test_bounds () =
  let b = Host_buffer.create Dtype.F32 4 in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "index out of bounds") (fun () ->
      ignore (Host_buffer.get b 4));
  Alcotest.check_raises "negative length"
    (Invalid_argument "Host_buffer.create: negative length") (fun () ->
      ignore (Host_buffer.create Dtype.F32 (-1)))

let test_blit_same_dtype () =
  let a = Host_buffer.of_array Dtype.F16 [| 1.0; 2.0; 3.0; 4.0 |] in
  let b = Host_buffer.create Dtype.F16 4 in
  Host_buffer.blit ~src:a ~src_off:1 ~dst:b ~dst_off:0 ~len:3;
  check_float "blit0" 2.0 (Host_buffer.get b 0);
  check_float "blit2" 4.0 (Host_buffer.get b 2);
  check_float "untouched" 0.0 (Host_buffer.get b 3)

let test_blit_cast () =
  (* F32 -> F16 blit must round; F16 -> I8 must truncate/wrap. *)
  let a = Host_buffer.of_array Dtype.F32 [| 2049.0; 1.5 |] in
  let b = Host_buffer.create Dtype.F16 2 in
  Host_buffer.blit ~src:a ~src_off:0 ~dst:b ~dst_off:0 ~len:2;
  check_float "rounded" 2048.0 (Host_buffer.get b 0);
  check_float "exact" 1.5 (Host_buffer.get b 1);
  let c = Host_buffer.create Dtype.I8 2 in
  Host_buffer.blit ~src:b ~src_off:0 ~dst:c ~dst_off:0 ~len:2;
  check_float "truncated" 1.0 (Host_buffer.get c 1)

let test_blit_bounds () =
  let a = Host_buffer.create Dtype.F16 4 in
  let b = Host_buffer.create Dtype.F16 4 in
  Alcotest.check_raises "overrun"
    (Invalid_argument "Host_buffer.blit: range out of bounds") (fun () ->
      Host_buffer.blit ~src:a ~src_off:2 ~dst:b ~dst_off:0 ~len:3)

let test_fill_copy_roundtrip () =
  let a = Host_buffer.create Dtype.F16 8 in
  Host_buffer.fill a 2049.0;
  check_float "fill rounds" 2048.0 (Host_buffer.get a 7);
  let b = Host_buffer.copy a in
  Host_buffer.set b 0 1.0;
  check_float "copy is deep" 2048.0 (Host_buffer.get a 0);
  let arr = Host_buffer.to_array a in
  check_int "to_array length" 8 (Array.length arr);
  check_float "to_array value" 2048.0 arr.(3)

let test_set_cast () =
  let b = Host_buffer.create Dtype.I16 1 in
  Host_buffer.set_cast b 0 ~from:Dtype.F32 7.9;
  check_float "cast truncates" 7.0 (Host_buffer.get b 0)

(* ------------------------------------------------------------------ *)
(* Pool invariant: a retired payload is all +0.0 however it was
   written. [retire] re-zeroes only the dirty extent, so a writer that
   forgot to raise it would hand stale data to the next [create] of the
   same length. Compared on [Int64.bits_of_float]: a stale -0.0 must
   fail. *)

module BA1 = Bigarray.Array1

let all_dtypes = Dtype.[| F16; F32; I8; I16; U16; I32 |]

let corners =
  [| 0.0; -0.0; 1.0; -1.5; 2049.0; 65520.0; 1e-8; 0x1p-25; infinity;
     neg_infinity; Float.nan; -.Float.nan;
     Int64.float_of_bits 0x7FF0000000000001L;
     Int64.float_of_bits 0xFFF8000000001234L;
     Int64.float_of_bits 0x7FF4000000000000L; 3.4e38; 127.0; -129.0 |]

let rand_value st =
  match Random.State.int st 4 with
  | 0 | 1 -> corners.(Random.State.int st (Array.length corners))
  | 2 -> Int64.float_of_bits (Random.State.bits64 st)
  | _ -> float_of_int (Random.State.int st 4001 - 2000)

let rand_dtype st = all_dtypes.(Random.State.int st (Array.length all_dtypes))

(* A random in-bounds [(off, len)] range of an [n]-element buffer. *)
let rand_range st n =
  let off = Random.State.int st (n + 1) in
  (off, Random.State.int st (n - off + 1))

let rand_buffer st dt n =
  Host_buffer.of_array dt (Array.init n (fun _ -> rand_value st))

let binops = Host_buffer.[| Add; Sub; Mul; Max; Min |]
let scalar_ops = Host_buffer.[| Adds; Muls; Maxs; Mins |]

(* Every writer of the module, and the raw write accessor. [of_array]
   and [copy] produce the buffer under test (see [make]). *)
let writers =
  [| "set"; "set_cast"; "unsafe_set"; "fill"; "fill_range"; "blit";
     "blit_convert"; "load_array"; "map2_binop"; "map1_scalar"; "map1_f";
     "map1_bits"; "map2_bits"; "map1_compare"; "map2_compare"; "select_range";
     "arange_range"; "scan_accum"; "scan_segment"; "gather_mask"; "write_data" |]

let apply_writer st b name =
  let dt = Host_buffer.dtype b and n = Host_buffer.length b in
  let v () = rand_value st in
  let off, len = rand_range st n in
  let src () = rand_buffer st dt n in
  match name with
  | "set" -> Host_buffer.set b (Random.State.int st n) (v ())
  | "set_cast" ->
      Host_buffer.set_cast b (Random.State.int st n) ~from:(rand_dtype st) (v ())
  | "unsafe_set" -> Host_buffer.unsafe_set b (Random.State.int st n) (v ())
  | "fill" -> Host_buffer.fill b (v ())
  | "fill_range" -> Host_buffer.fill_range b ~off ~len (v ())
  | "blit" ->
      Host_buffer.blit ~src:(src ()) ~src_off:(n - len) ~dst:b ~dst_off:off ~len
  | "blit_convert" ->
      let other = if Dtype.equal dt Dtype.F32 then Dtype.I16 else Dtype.F32 in
      Host_buffer.blit ~src:(rand_buffer st other n) ~src_off:0 ~dst:b
        ~dst_off:off ~len
  | "load_array" -> Host_buffer.load_array b (Array.init len (fun _ -> v ()))
  | "map2_binop" ->
      Host_buffer.map2_binop
        binops.(Random.State.int st (Array.length binops))
        ~src0:(src ()) ~src0_off:0 ~src1:(src ()) ~src1_off:(n - len) ~dst:b
        ~dst_off:off ~len
  | "map1_scalar" ->
      Host_buffer.map1_scalar
        scalar_ops.(Random.State.int st (Array.length scalar_ops))
        ~src:(src ()) ~src_off:0 ~dst:b ~dst_off:off ~scalar:(v ()) ~len
  | "map1_f" ->
      Host_buffer.map1_f (fun x -> -.x) ~src:(src ()) ~src_off:0 ~dst:b
        ~dst_off:off ~len
  | "map1_bits" ->
      Host_buffer.map1_bits Host_buffer.Xors ~src:(rand_buffer st Dtype.I16 n)
        ~src_off:0 ~dst:b ~dst_off:off ~arg:0x5A5A ~len
  | "map2_bits" ->
      Host_buffer.map2_bits Host_buffer.Or ~src0:(rand_buffer st Dtype.U16 n)
        ~src0_off:0 ~src1:(rand_buffer st Dtype.I8 n) ~src1_off:0 ~dst:b
        ~dst_off:off ~len
  | "map1_compare" ->
      Host_buffer.map1_compare Host_buffer.Ge ~src:(src ()) ~src_off:0 ~dst:b
        ~dst_off:off ~scalar:(v ()) ~len
  | "map2_compare" ->
      Host_buffer.map2_compare Host_buffer.Ne ~src0:(src ()) ~src0_off:0
        ~src1:(src ()) ~src1_off:0 ~dst:b ~dst_off:off ~len
  | "select_range" ->
      Host_buffer.select_range ~mask:(rand_buffer st Dtype.I8 n) ~mask_off:0
        ~src0:(src ()) ~src0_off:0 ~src1:(src ()) ~src1_off:0 ~dst:b
        ~dst_off:off ~len
  | "arange_range" -> Host_buffer.arange_range b ~off ~start:(v ()) ~len
  | "scan_accum" -> ignore (Host_buffer.scan_accum ~src:(src ()) ~dst:b ~len)
  | "scan_segment" ->
      ignore
        (Host_buffer.scan_segment
           binops.(Random.State.int st (Array.length binops))
           b ~off ~len ~seg:(1 + Random.State.int st 8) ~init:(v ()))
  | "gather_mask" ->
      ignore
        (Host_buffer.gather_mask ~src:(src ()) ~src_off:0
           ~mask:(rand_buffer st Dtype.I8 n) ~mask_off:0 ~dst:b ~dst_off:off
           ~len)
  | "write_data" ->
      let d = Host_buffer.write_data b ~extent:(off + len) in
      for i = off to off + len - 1 do
        BA1.set d i (Dtype.round dt (v ()))
      done
  | w -> invalid_arg w

(* The buffer under test: fresh or recycled from [create], or built by
   [of_array] or [copy]. *)
let make st dt n =
  match Random.State.int st 3 with
  | 0 -> Host_buffer.create dt n
  | 1 -> rand_buffer st dt n
  | _ -> Host_buffer.copy (rand_buffer st dt n)

let all_plus_zero b =
  let ok = ref true in
  for i = 0 to Host_buffer.length b - 1 do
    if not (Int64.equal (Int64.bits_of_float (Host_buffer.get b i)) 0L) then
      ok := false
  done;
  !ok

(* Retire [b] and [create] the same length: the storage must come back
   (the property would hold vacuously on fresh storage) and be +0.0. *)
let recycles_clean b =
  let storage = Host_buffer.read_data b in
  Host_buffer.retire b;
  let b' = Host_buffer.create (Host_buffer.dtype b) (Host_buffer.length b) in
  let ok = Host_buffer.read_data b' == storage && all_plus_zero b' in
  (b', ok)

let prop_pool_invariant =
  QCheck.Test.make ~name:"retired payloads come back all +0.0" ~count:500
    QCheck.(pair small_nat (int_range 1 300))
    (fun (seed, n) ->
      let st = Random.State.make [| seed; n |] in
      let b = make st (rand_dtype st) n in
      for _ = 1 to 1 + Random.State.int st 4 do
        apply_writer st b writers.(Random.State.int st (Array.length writers))
      done;
      let b', ok = recycles_clean b in
      Host_buffer.retire b';
      ok)

(* Every writer alone, on every dtype, through two retire/create
   generations of the same storage. *)
let test_recycled_twice () =
  let st = Random.State.make [| 14 |] in
  Array.iter
    (fun dt ->
      Array.iter
        (fun w ->
          let b = ref (Host_buffer.create dt 97) in
          for gen = 1 to 2 do
            apply_writer st !b w;
            apply_writer st !b "set";
            let b', ok = recycles_clean !b in
            if not ok then
              Alcotest.failf "%s on %s: generation %d recycled dirty" w
                (Dtype.to_string dt) gen;
            b := b'
          done;
          Host_buffer.retire !b)
        writers)
    all_dtypes

(* [clear] zeroes what every writer dirtied and keeps the storage. *)
let test_clear () =
  let st = Random.State.make [| 15 |] in
  Array.iter
    (fun dt ->
      Array.iter
        (fun w ->
          let b = Host_buffer.create dt 97 in
          let storage = Host_buffer.read_data b in
          apply_writer st b w;
          apply_writer st b "set";
          Host_buffer.clear b;
          if not (Host_buffer.read_data b == storage && all_plus_zero b) then
            Alcotest.failf "%s on %s: cleared dirty" w (Dtype.to_string dt);
          Host_buffer.retire b)
        writers)
    all_dtypes

let test_write_data_extent () =
  let b = Host_buffer.create Dtype.F32 4 in
  Alcotest.check_raises "extent past the end"
    (Invalid_argument "Host_buffer.write_data: extent out of bounds")
    (fun () -> ignore (Host_buffer.write_data b ~extent:5));
  Alcotest.check_raises "negative extent"
    (Invalid_argument "Host_buffer.write_data: extent out of bounds")
    (fun () -> ignore (Host_buffer.write_data b ~extent:(-1)))

let () =
  Alcotest.run "host_buffer"
    [
      ( "buffer",
        [
          Alcotest.test_case "create/access" `Quick test_create_and_access;
          Alcotest.test_case "rounding on set" `Quick test_rounding_on_set;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "blit same dtype" `Quick test_blit_same_dtype;
          Alcotest.test_case "blit cast" `Quick test_blit_cast;
          Alcotest.test_case "blit bounds" `Quick test_blit_bounds;
          Alcotest.test_case "fill/copy/to_array" `Quick
            test_fill_copy_roundtrip;
          Alcotest.test_case "set_cast" `Quick test_set_cast;
        ] );
      ( "pool",
        [
          QCheck_alcotest.to_alcotest prop_pool_invariant;
          Alcotest.test_case "recycled twice" `Quick test_recycled_twice;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "write_data extent" `Quick test_write_data_extent;
        ] );
    ]
