let inclusive_scan ?(round = Fun.id) x =
  let n = Array.length x in
  let y = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := round (!acc +. x.(i));
    y.(i) <- !acc
  done;
  y

let exclusive_scan ?(round = Fun.id) x =
  let n = Array.length x in
  let y = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    y.(i) <- !acc;
    acc := round (!acc +. x.(i))
  done;
  y

let inclusive_scan_op ?(round = Fun.id) ~combine ~init x =
  let n = Array.length x in
  let y = Array.make n 0.0 in
  let acc = ref init in
  for i = 0 to n - 1 do
    acc := round (combine !acc x.(i));
    y.(i) <- !acc
  done;
  y

let batched_inclusive ?(round = Fun.id) ~batch ~len x =
  if Array.length x <> batch * len then
    invalid_arg "Reference.batched_inclusive: shape mismatch";
  let y = Array.make (batch * len) 0.0 in
  for b = 0 to batch - 1 do
    let acc = ref 0.0 in
    for i = 0 to len - 1 do
      acc := round (!acc +. x.((b * len) + i));
      y.((b * len) + i) <- !acc
    done
  done;
  y

let segmented_inclusive ~round x ~flags =
  let acc = ref 0.0 in
  Array.mapi
    (fun i v ->
      if flags.(i) <> 0.0 then acc := 0.0;
      acc := round (!acc +. v);
      !acc)
    x

let sum x = Array.fold_left ( +. ) 0.0 x

(* Bit-pattern float equality: agrees with [=] on ordinary values
   (including 0.0 vs -0.0, which share no bits but compare equal) and,
   unlike [=], treats a NaN as equal to itself, so a NaN-producing
   input reports the first index where the bits genuinely differ
   instead of flagging every NaN position. *)
let float_eq a b =
  a = b || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let split x ~flags =
  let n = Array.length x in
  if Array.length flags <> n then
    invalid_arg "Reference.split: length mismatch";
  let vals = Array.make n 0.0 and idxs = Array.make n 0 in
  let k = ref 0 in
  let place i =
    vals.(!k) <- x.(i);
    idxs.(!k) <- i;
    incr k
  in
  for i = 0 to n - 1 do
    if flags.(i) <> 0.0 then place i
  done;
  for i = 0 to n - 1 do
    if flags.(i) = 0.0 then place i
  done;
  (vals, idxs)

let compress x ~mask =
  let n = Array.length x in
  if Array.length mask <> n then
    invalid_arg "Reference.compress: length mismatch";
  let out = ref [] in
  for i = n - 1 downto 0 do
    if mask.(i) <> 0.0 then out := x.(i) :: !out
  done;
  Array.of_list !out

(* Total-order comparison placing NaNs last, treating -0.0 = 0.0. *)
let cmp_value a b =
  match Float.is_nan a, Float.is_nan b with
  | true, true -> 0
  | true, false -> 1
  | false, true -> -1
  | false, false -> Float.compare (a +. 0.0) (b +. 0.0)

let stable_sort_with_indices x =
  let n = Array.length x in
  let order = Array.init n Fun.id in
  let cmp i j =
    let c = cmp_value x.(i) x.(j) in
    if c <> 0 then c else Stdlib.compare i j
  in
  (* Array.sort is not stable; the index tiebreak makes it stable. *)
  Array.sort cmp order;
  (Array.map (fun i -> x.(i)) order, order)

let is_sorted x =
  let ok = ref true in
  for i = 1 to Array.length x - 1 do
    if cmp_value x.(i - 1) x.(i) > 0 then ok := false
  done;
  !ok

let top_k x ~k =
  let n = Array.length x in
  if k < 0 || k > n then invalid_arg "Reference.top_k: k out of range";
  let order = Array.init n Fun.id in
  let cmp i j =
    let c = cmp_value x.(j) x.(i) in
    if c <> 0 then c else Stdlib.compare i j
  in
  Array.sort cmp order;
  let order = Array.sub order 0 k in
  (Array.map (fun i -> x.(i)) order, order)

let top_p_threshold_count probs ~p =
  if p < 0.0 || p > 1.0 then
    invalid_arg "Reference.top_p_threshold_count: p out of [0,1]";
  let sorted = Array.copy probs in
  Array.sort (fun a b -> cmp_value b a) sorted;
  let n = Array.length sorted in
  let rec go i acc =
    if i >= n then n
    else
      let acc = acc +. sorted.(i) in
      if acc > p then i + 1 else go (i + 1) acc
  in
  go 0 0.0
