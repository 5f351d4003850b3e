let ceil_div a b = (a + b - 1) / b
let round_up a m = ceil_div a m * m

(* Two double-buffered s x s tiles of [dtype] must fit one L0A buffer,
   the scratchpad every cube kernel fills first. *)
let check_s ~who ?(even = false) dtype s =
  let open Ascend in
  let cap = Mem_kind.capacity_bytes L0a / (2 * Dtype.size_bytes dtype) in
  let side = truncate (sqrt (float_of_int cap)) in
  let hi = if even then side land lnot 1 else side in
  if s < 1 || s > hi || (even && s land 1 = 1) then
    invalid_arg
      (Printf.sprintf "%s: s must be in 1..%d%s (got %d)" who hi
         (if even then " and even" else "") s)
