let uniform_f16 ~seed ?(lo = -1.0) ?(hi = 1.0) n =
  let rng = Random.State.make [| seed |] in
  Array.init n (fun _ ->
      Ascend.Fp16.round (lo +. Random.State.float rng (hi -. lo)))

let ones_and_zeros ~seed ~density n =
  if density < 0.0 || density > 1.0 then
    invalid_arg "Generators.ones_and_zeros: density out of [0, 1]";
  let rng = Random.State.make [| seed |] in
  Array.init n (fun _ ->
      if Random.State.float rng 1.0 < density then 1.0 else 0.0)

let small_ints ~seed ?(max_value = 9) n =
  if max_value < 0 then invalid_arg "Generators.small_ints: negative max";
  let rng = Random.State.make [| seed |] in
  Array.init n (fun _ -> float_of_int (Random.State.int rng (max_value + 1)))

let alternating n = Array.init n (fun i -> if i land 1 = 0 then 1.0 else 0.0)

let sparse_ones ~seed n =
  Array.init n (fun i -> if (i + seed) mod 53 = 0 then 1.0 else 0.0)

let softmax_probs ~seed ?(temperature = 1.0) n =
  if temperature <= 0.0 then
    invalid_arg "Generators.softmax_probs: non-positive temperature";
  let rng = Random.State.make [| seed |] in
  let logits =
    Array.init n (fun _ -> Random.State.float rng 8.0 /. temperature)
  in
  let m = Array.fold_left Float.max neg_infinity logits in
  let exps = Array.map (fun v -> Stdlib.exp (v -. m)) logits in
  let z = Array.fold_left ( +. ) 0.0 exps in
  Array.map (fun e -> Ascend.Fp16.round (e /. z)) exps

let zipf_weights ~seed ?(exponent = 1.1) n =
  let rng = Random.State.make [| seed |] in
  let w =
    Array.init n (fun i ->
        Ascend.Fp16.round (1.0 /. Float.pow (float_of_int (i + 1)) exponent))
  in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = w.(i) in
    w.(i) <- w.(j);
    w.(j) <- t
  done;
  w

let permutation ~seed n =
  let rng = Random.State.make [| seed |] in
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p
