type t = Ub of int | L1 | L0a | L0b | L0c

let kib n = n * 1024

let capacity_bytes = function
  | Ub _ -> kib 192
  | L1 -> kib 1024
  | L0a -> kib 64
  | L0b -> kib 64
  | L0c -> kib 256

let owner ~vec_per_core kind =
  match kind with
  | Ub i ->
      if i < 0 || i >= vec_per_core then
        invalid_arg "Mem_kind.owner: vector core index out of range";
      Engine.Vec i
  | L1 | L0a | L0b | L0c -> Engine.Cube

let equal a b =
  match a, b with
  | Ub i, Ub j -> i = j
  | L1, L1 | L0a, L0a | L0b, L0b | L0c, L0c -> true
  | (Ub _ | L1 | L0a | L0b | L0c), _ -> false

let to_string = function
  | Ub i -> Printf.sprintf "UB%d" i
  | L1 -> "L1"
  | L0a -> "L0A"
  | L0b -> "L0B"
  | L0c -> "L0C"
