let require what (lt : Local_tensor.t) kind =
  if not (Mem_kind.equal lt.kind kind) then
    invalid_arg
      (Printf.sprintf "Cube.mmad: %s operand must live in %s (got %s)" what
         (Mem_kind.to_string kind) (Mem_kind.to_string lt.kind))

let check_shape what (lt : Local_tensor.t) elems =
  if lt.length < elems then
    invalid_arg
      (Printf.sprintf "Cube.mmad: %s operand too short (%d < %d)" what
         lt.length elems)

(* Functional evaluation. The structure tags of the constant scan
   matrices admit O(m*n) evaluation; the general path is the O(m*k*n)
   triple loop. All paths accumulate in double and round to the
   accumulator data type on store, matching fp32/int32 accumulators.

   The loops run over the raw Bigarray storage, the operands through
   {!Host_buffer.read_data} and the accumulator through
   {!Host_buffer.write_data} with its written extent [m * n]: operand
   shapes were validated by [mmad], so bounds checks are dropped, and
   the accumulator rounding is the [@inline] [round_acc] below, with no
   closure and no cross-module call. The accumulation order (raw
   double adds, one rounding on store) is that of the historical
   scalar get/set loops. *)

module BA1 = Bigarray.Array1

let raw lt = Host_buffer.read_data (Local_tensor.buffer lt)
let raw_out lt ~m ~n =
  Host_buffer.write_data (Local_tensor.buffer lt) ~extent:(m * n)

(* F32 rounding through a one-element float32 Bigarray: the store/load
   pair compiles to inline single-precision conversion instructions,
   where the [Int32.bits_of_float] route costs two C calls per element
   (and a cross-module [Dtype.round_f32] call would additionally box
   under classic-mode/-opaque compilation). The scratch cell is
   allocated per kernel call — blocks evaluate concurrently under
   domain-parallel launches, so a shared cell would race. *)
type f32cell = (float, Bigarray.float32_elt, Bigarray.c_layout) BA1.t

let f32scratch () : f32cell = BA1.create Bigarray.float32 Bigarray.c_layout 1

(* [Dtype.round] for the two accumulator types [mmad] admits, inlined
   into every evaluator loop: F32 through the scratch cell, passing NaN
   payloads through untouched as [Dtype.round_f32] does (the cell
   roundtrip would quiet them); I32 by the mask-and-sign-fold wrap of
   [Dtype.wrap_signed]. test_bulk.ml pins both to [Dtype.round]. *)
let[@inline] round_acc dt (tmp : f32cell) f =
  match dt with
  | Dtype.F32 ->
      if Float.is_nan f then f
      else begin
        BA1.unsafe_set tmp 0 f;
        BA1.unsafe_get tmp 0
      end
  | _ ->
      let h = 0x8000_0000 in
      float_of_int (((int_of_float f land 0xFFFF_FFFF) lxor h) - h)

let eval_general a b c ~m ~k ~n ~accumulate =
  let ab = raw a and bb = raw b and cb = raw_out c ~m ~n in
  let dt = c.Local_tensor.dtype and tmp = f32scratch () in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref (if accumulate then BA1.unsafe_get cb ((i * n) + j) else 0.0) in
      for t = 0 to k - 1 do
        acc :=
          !acc
          +. (BA1.unsafe_get ab ((i * k) + t) *. BA1.unsafe_get bb ((t * n) + j))
      done;
      BA1.unsafe_set cb ((i * n) + j) (round_acc dt tmp !acc)
    done
  done

(* C[i,j] (+)= sum_{t <= j} A[i,t]  — B = U (upper-triangular ones).
   Requires k = n; row-wise running sums. This is McScan's tile-local
   scan and the simulator's hottest cube path. *)
let eval_b_upper_ones a c ~m ~k ~n ~accumulate =
  let ab = raw a and cb = raw_out c ~m ~n in
  let dt = c.Local_tensor.dtype and tmp = f32scratch () in
  if k = n && not accumulate then
    (* McScan's exact shape: every element of the row contributes and
       the output overwrites — no per-element branches left. *)
    for i = 0 to m - 1 do
      let run = ref 0.0 in
      let arow = i * k and crow = i * n in
      for j = 0 to n - 1 do
        run := !run +. BA1.unsafe_get ab (arow + j);
        BA1.unsafe_set cb (crow + j) (round_acc dt tmp !run)
      done
    done
  else
    for i = 0 to m - 1 do
      let run = ref 0.0 in
      let arow = i * k and crow = i * n in
      for j = 0 to n - 1 do
        if j < k then run := !run +. BA1.unsafe_get ab (arow + j);
        let base = if accumulate then BA1.unsafe_get cb (crow + j) else 0.0 in
        BA1.unsafe_set cb (crow + j) (round_acc dt tmp (base +. !run))
      done
    done

(* C[i,j] (+)= sum_{t >= j} A[i,t]  — B = L (lower-triangular ones). *)
let eval_b_lower_ones a c ~m ~k ~n ~accumulate =
  let ab = raw a and cb = raw_out c ~m ~n in
  let dt = c.Local_tensor.dtype and tmp = f32scratch () in
  for i = 0 to m - 1 do
    (* suffix sums of row i of A *)
    let run = ref 0.0 in
    let suffix = Array.make n 0.0 in
    for j = n - 1 downto 0 do
      if j < k then run := !run +. BA1.unsafe_get ab ((i * k) + j);
      suffix.(j) <- !run
    done;
    for j = 0 to n - 1 do
      let base = if accumulate then BA1.unsafe_get cb ((i * n) + j) else 0.0 in
      BA1.unsafe_set cb ((i * n) + j) (round_acc dt tmp (base +. suffix.(j)))
    done
  done

(* C[i,j] (+)= sum_t A[i,t]  — B = all-ones. *)
let eval_b_all_ones a c ~m ~k ~n ~accumulate =
  let ab = raw a and cb = raw_out c ~m ~n in
  let dt = c.Local_tensor.dtype and tmp = f32scratch () in
  for i = 0 to m - 1 do
    let sum = ref 0.0 in
    for t = 0 to k - 1 do
      sum := !sum +. BA1.unsafe_get ab ((i * k) + t)
    done;
    for j = 0 to n - 1 do
      let base = if accumulate then BA1.unsafe_get cb ((i * n) + j) else 0.0 in
      BA1.unsafe_set cb ((i * n) + j) (round_acc dt tmp (base +. !sum))
    done
  done

(* C[i,j] (+)= sum_{t < i} B[t,j]  — A = strict lower-triangular ones:
   column-wise exclusive prefix sums of B. *)
let eval_a_strict_lower_ones b c ~m ~k ~n ~accumulate =
  let bb = raw b and cb = raw_out c ~m ~n in
  let dt = c.Local_tensor.dtype and tmp = f32scratch () in
  for j = 0 to n - 1 do
    let run = ref 0.0 in
    for i = 0 to m - 1 do
      let base = if accumulate then BA1.unsafe_get cb ((i * n) + j) else 0.0 in
      BA1.unsafe_set cb ((i * n) + j) (round_acc dt tmp (base +. !run));
      if i < k then run := !run +. BA1.unsafe_get bb ((i * n) + j)
    done
  done

(* C[i,j] (+)= sum_{t <= i} B[t,j]  — A = lower-triangular ones. *)
let eval_a_lower_ones b c ~m ~k ~n ~accumulate =
  let bb = raw b and cb = raw_out c ~m ~n in
  let dt = c.Local_tensor.dtype and tmp = f32scratch () in
  for j = 0 to n - 1 do
    let run = ref 0.0 in
    for i = 0 to m - 1 do
      if i < k then run := !run +. BA1.unsafe_get bb ((i * n) + j);
      let base = if accumulate then BA1.unsafe_get cb ((i * n) + j) else 0.0 in
      BA1.unsafe_set cb ((i * n) + j) (round_acc dt tmp (base +. !run))
    done
  done

let mmad ctx ~a ~b ~c ~m ~k ~n ~accumulate =
  require "left" a Mem_kind.L0a;
  require "right" b Mem_kind.L0b;
  require "output" c Mem_kind.L0c;
  if m <= 0 || k <= 0 || n <= 0 then
    invalid_arg "Cube.mmad: dimensions must be positive";
  check_shape "left" a (m * k);
  check_shape "right" b (k * n);
  check_shape "output" c (m * n);
  let int8 =
    match a.dtype, b.dtype, c.dtype with
    | Dtype.F16, Dtype.F16, Dtype.F32 -> false
    | Dtype.I8, Dtype.I8, Dtype.I32 -> true
    | da, db, dc ->
        invalid_arg
          (Printf.sprintf
             "Cube.mmad: unsupported dtype combination %s x %s -> %s"
             (Dtype.to_string da) (Dtype.to_string db) (Dtype.to_string dc))
  in
  if Option.is_some (Block.sanitizer ctx) then
    List.iter (Block.check_async_use ctx ~op:"Cube.mmad") [ a; b; c ];
  Block.mmad ctx ~m ~k ~n ~int8;
  if Block.functional ctx then begin
    Local_tensor.touch c;
    match Local_tensor.structure b, Local_tensor.structure a with
    | Local_tensor.Upper_ones, _ when k = n ->
        eval_b_upper_ones a c ~m ~k ~n ~accumulate
    | Local_tensor.Lower_ones, _ when k = n ->
        eval_b_lower_ones a c ~m ~k ~n ~accumulate
    | Local_tensor.All_ones, _ -> eval_b_all_ones a c ~m ~k ~n ~accumulate
    | _, Local_tensor.Strict_lower_ones when m = k ->
        eval_a_strict_lower_ones b c ~m ~k ~n ~accumulate
    | _, Local_tensor.Lower_ones when m = k ->
        eval_a_lower_ones b c ~m ~k ~n ~accumulate
    | _, _ -> eval_general a b c ~m ~k ~n ~accumulate
  end
