(* Order statistics shared by the ledger and compare. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p xs =
  match Array.of_list (sorted xs) with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* First and third quartiles as Python's statistics.quantiles(xs, n=4)
   gives them (the default "exclusive" method), so spreads read the
   same here as in any script that checks them. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then (nan, nan)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let iqr xs =
  let q1, q3 = quartiles xs in
  q3 -. q1
