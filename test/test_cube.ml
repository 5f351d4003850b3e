(* Unit tests of the cube engine (Mmad), including the structured
   fast paths against the general triple-loop oracle. *)

open Ascend

let check_float = Alcotest.(check (float 0.0))
let check_bool = Alcotest.(check bool)

let ctx () =
  let dev = Device.create () in
  Block.make ~device:dev ~idx:0 ~num_blocks:1

let load t a = Array.iteri (fun i v -> Local_tensor.set t i v) a

(* Host oracle with the accumulator's rounding applied on store. *)
let matmul_oracle ~m ~k ~n a b =
  Array.init (m * n) (fun idx ->
      let i = idx / n and j = idx mod n in
      let acc = ref 0.0 in
      for t = 0 to k - 1 do
        acc := !acc +. (a.((i * k) + t) *. b.((t * n) + j))
      done;
      Dtype.round Dtype.F32 !acc)

let test_general_matmul () =
  let c = ctx () in
  let m, k, n = (3, 4, 2) in
  let av = Array.init (m * k) (fun i -> float_of_int (i + 1)) in
  let bv = Array.init (k * n) (fun i -> float_of_int ((i * 3 mod 7) - 3)) in
  let a = Block.alloc c Mem_kind.L0a Dtype.F16 (m * k) in
  let b = Block.alloc c Mem_kind.L0b Dtype.F16 (k * n) in
  let o = Block.alloc c Mem_kind.L0c Dtype.F32 (m * n) in
  load a av;
  load b bv;
  Cube.mmad c ~a ~b ~c:o ~m ~k ~n ~accumulate:false;
  let expect = matmul_oracle ~m ~k ~n av bv in
  Array.iteri
    (fun i e -> check_float (Printf.sprintf "c[%d]" i) e (Local_tensor.get o i))
    expect

let test_accumulate () =
  let c = ctx () in
  let s = 4 in
  let av = Array.make (s * s) 1.0 and bv = Array.make (s * s) 1.0 in
  let a = Block.alloc c Mem_kind.L0a Dtype.F16 (s * s) in
  let b = Block.alloc c Mem_kind.L0b Dtype.F16 (s * s) in
  let o = Block.alloc c Mem_kind.L0c Dtype.F32 (s * s) in
  load a av;
  load b bv;
  Cube.mmad c ~a ~b ~c:o ~m:s ~k:s ~n:s ~accumulate:false;
  check_float "first" 4.0 (Local_tensor.get o 0);
  Cube.mmad c ~a ~b ~c:o ~m:s ~k:s ~n:s ~accumulate:true;
  check_float "accumulated" 8.0 (Local_tensor.get o 0);
  Cube.mmad c ~a ~b ~c:o ~m:s ~k:s ~n:s ~accumulate:false;
  check_float "acc off overwrites" 4.0 (Local_tensor.get o 0)

let structured_matches_general which ~m ~s ~as_left () =
  let c = ctx () in
  let k = if as_left then m else s in
  (* Operand values: deterministic small ints so f16 stays exact. *)
  let data = Array.init (max (m * s) (s * s)) (fun i -> float_of_int ((i mod 5) - 2)) in
  if as_left then begin
    (* structured A (m x m) @ general B (m x s) *)
    let a = Block.alloc c Mem_kind.L0a Dtype.F16 (m * m) in
    Scan.Const_mat.fill a ~s:m which;
    let b = Block.alloc c Mem_kind.L0b Dtype.F16 (m * s) in
    load b (Array.sub data 0 (m * s));
    let o1 = Block.alloc c Mem_kind.L0c Dtype.F32 (m * s) in
    Cube.mmad c ~a ~b ~c:o1 ~m ~k ~n:s ~accumulate:false;
    (* Same with the tag stripped: the general path. *)
    Local_tensor.touch a;
    let o2 = Block.alloc c Mem_kind.L0c Dtype.F32 (m * s) in
    Cube.mmad c ~a ~b ~c:o2 ~m ~k ~n:s ~accumulate:false;
    for i = 0 to (m * s) - 1 do
      check_float
        (Printf.sprintf "left-struct[%d]" i)
        (Local_tensor.get o2 i) (Local_tensor.get o1 i)
    done
  end
  else begin
    (* general A (m x s) @ structured B (s x s) *)
    let a = Block.alloc c Mem_kind.L0a Dtype.F16 (m * s) in
    load a (Array.sub data 0 (m * s));
    let b = Block.alloc c Mem_kind.L0b Dtype.F16 (s * s) in
    Scan.Const_mat.fill b ~s which;
    let o1 = Block.alloc c Mem_kind.L0c Dtype.F32 (m * s) in
    Cube.mmad c ~a ~b ~c:o1 ~m ~k:s ~n:s ~accumulate:false;
    Local_tensor.touch b;
    let o2 = Block.alloc c Mem_kind.L0c Dtype.F32 (m * s) in
    Cube.mmad c ~a ~b ~c:o2 ~m ~k:s ~n:s ~accumulate:false;
    for i = 0 to (m * s) - 1 do
      check_float
        (Printf.sprintf "right-struct[%d]" i)
        (Local_tensor.get o2 i) (Local_tensor.get o1 i)
    done
  end

let test_row_scan_identity () =
  (* A @ U computes row-wise inclusive scans. *)
  let c = ctx () in
  let s = 8 in
  let av = Array.init (s * s) (fun i -> float_of_int (i mod 3)) in
  let a = Block.alloc c Mem_kind.L0a Dtype.F16 (s * s) in
  load a av;
  let u = Block.alloc c Mem_kind.L0b Dtype.F16 (s * s) in
  Scan.Const_mat.fill u ~s Scan.Const_mat.Upper;
  let o = Block.alloc c Mem_kind.L0c Dtype.F32 (s * s) in
  Cube.mmad c ~a ~b:u ~c:o ~m:s ~k:s ~n:s ~accumulate:false;
  for i = 0 to s - 1 do
    let acc = ref 0.0 in
    for j = 0 to s - 1 do
      acc := !acc +. av.((i * s) + j);
      check_float (Printf.sprintf "scan[%d,%d]" i j) !acc
        (Local_tensor.get o ((i * s) + j))
    done
  done

let test_equation_one () =
  (* scan(z) = A @ U + L^- @ A @ 1 over one full tile. *)
  let c = ctx () in
  let s = 8 in
  let z = Array.init (s * s) (fun i -> float_of_int ((i mod 7) - 3)) in
  let a = Block.alloc c Mem_kind.L0a Dtype.F16 (s * s) in
  load a z;
  let ones = Block.alloc c Mem_kind.L0b Dtype.F16 (s * s) in
  Scan.Const_mat.fill ones ~s Scan.Const_mat.Ones;
  let c1 = Block.alloc c Mem_kind.L0c Dtype.F32 (s * s) in
  Cube.mmad c ~a ~b:ones ~c:c1 ~m:s ~k:s ~n:s ~accumulate:false;
  let u = Block.alloc c Mem_kind.L0b Dtype.F16 (s * s) in
  Scan.Const_mat.fill u ~s Scan.Const_mat.Upper;
  let c2 = Block.alloc c Mem_kind.L0c Dtype.F32 (s * s) in
  Cube.mmad c ~a ~b:u ~c:c2 ~m:s ~k:s ~n:s ~accumulate:false;
  let lminus = Block.alloc c Mem_kind.L0a Dtype.F16 (s * s) in
  Scan.Const_mat.fill lminus ~s Scan.Const_mat.Strict_lower;
  let c1b = Block.alloc c Mem_kind.L0b Dtype.F16 (s * s) in
  for i = 0 to (s * s) - 1 do
    Local_tensor.set c1b i (Local_tensor.get c1 i)
  done;
  Cube.mmad c ~a:lminus ~b:c1b ~c:c2 ~m:s ~k:s ~n:s ~accumulate:true;
  let expect = Scan.Reference.inclusive_scan z in
  for i = 0 to (s * s) - 1 do
    check_float (Printf.sprintf "eq1[%d]" i) expect.(i) (Local_tensor.get c2 i)
  done

let test_int8_path () =
  let c = ctx () in
  let s = 4 in
  let a = Block.alloc c Mem_kind.L0a Dtype.I8 (s * s) in
  load a (Array.init (s * s) (fun i -> float_of_int ((i mod 5) - 2)));
  let b = Block.alloc c Mem_kind.L0b Dtype.I8 (s * s) in
  Scan.Const_mat.fill b ~s Scan.Const_mat.Upper;
  let o = Block.alloc c Mem_kind.L0c Dtype.I32 (s * s) in
  Cube.mmad c ~a ~b ~c:o ~m:s ~k:s ~n:s ~accumulate:false;
  check_float "int8 row scan" (-2.0) (Local_tensor.get o 0);
  check_float "int8 row total"
    (-2.0 -. 1.0 +. 0.0 +. 1.0)
    (Local_tensor.get o 3)

let test_int8_faster_than_f16 () =
  let dev = Device.create () in
  let cm = Device.cost dev in
  let f = Block.mmad_cycles cm ~m:128 ~k:128 ~n:128 ~int8:false in
  let i = Block.mmad_cycles cm ~m:128 ~k:128 ~n:128 ~int8:true in
  check_bool "int8 mmad cheaper" true (i < f)

let test_validation () =
  let c = ctx () in
  let a = Block.alloc c Mem_kind.L0a Dtype.F16 16 in
  let b = Block.alloc c Mem_kind.L0b Dtype.F16 16 in
  let o = Block.alloc c Mem_kind.L0c Dtype.F32 16 in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_bool "wrong buffer" true
    (raises (fun () -> Cube.mmad c ~a:b ~b:a ~c:o ~m:4 ~k:4 ~n:4 ~accumulate:false));
  check_bool "too short" true
    (raises (fun () -> Cube.mmad c ~a ~b ~c:o ~m:8 ~k:4 ~n:4 ~accumulate:false));
  check_bool "bad dims" true
    (raises (fun () -> Cube.mmad c ~a ~b ~c:o ~m:0 ~k:4 ~n:4 ~accumulate:false));
  let bi8 = Block.alloc c Mem_kind.L0b Dtype.I8 16 in
  check_bool "mixed dtype" true
    (raises (fun () -> Cube.mmad c ~a ~b:bi8 ~c:o ~m:4 ~k:4 ~n:4 ~accumulate:false))

let () =
  Alcotest.run "cube"
    [
      ( "mmad",
        [
          Alcotest.test_case "general matmul" `Quick test_general_matmul;
          Alcotest.test_case "accumulate" `Quick test_accumulate;
          Alcotest.test_case "U fast path = general" `Quick
            (structured_matches_general Scan.Const_mat.Upper ~m:5 ~s:6
               ~as_left:false);
          Alcotest.test_case "L fast path = general" `Quick
            (structured_matches_general Scan.Const_mat.Lower ~m:5 ~s:6
               ~as_left:false);
          Alcotest.test_case "1 fast path = general" `Quick
            (structured_matches_general Scan.Const_mat.Ones ~m:5 ~s:6
               ~as_left:false);
          Alcotest.test_case "L^- left fast path = general" `Quick
            (structured_matches_general Scan.Const_mat.Strict_lower ~m:6 ~s:5
               ~as_left:true);
          Alcotest.test_case "L left fast path = general" `Quick
            (structured_matches_general Scan.Const_mat.Lower ~m:6 ~s:5
               ~as_left:true);
          Alcotest.test_case "A @ U = row scans" `Quick test_row_scan_identity;
          Alcotest.test_case "equation 1" `Quick test_equation_one;
          Alcotest.test_case "int8 path" `Quick test_int8_path;
          Alcotest.test_case "int8 rate" `Quick test_int8_faster_than_f16;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
