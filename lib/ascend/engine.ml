type t =
  | Cube_mte_in
  | Cube
  | Cube_mte_out
  | Scalar
  | Vec_mte_in of int
  | Vec of int
  | Vec_mte_out of int

let count ~vec_per_core = 4 + (3 * vec_per_core)

let check_vec ~vec_per_core i =
  if i < 0 || i >= vec_per_core then
    invalid_arg
      (Printf.sprintf "Engine: vector core %d out of range [0,%d)" i
         vec_per_core)

let index ~vec_per_core = function
  | Cube_mte_in -> 0
  | Cube -> 1
  | Cube_mte_out -> 2
  | Scalar -> 3
  | Vec_mte_in i ->
      check_vec ~vec_per_core i;
      4 + (3 * i)
  | Vec i ->
      check_vec ~vec_per_core i;
      5 + (3 * i)
  | Vec_mte_out i ->
      check_vec ~vec_per_core i;
      6 + (3 * i)

(* Program lanes: each sub-core executes one instruction stream that
   issues onto its engines. The cube core and the scalar unit share the
   AI core's stream (lane 0); each vector core runs its own (lane
   1 + i). Lanes advance independently, which is what lets cube and
   vector work of one block overlap in the event-timeline model. *)
let lane_count ~vec_per_core = 1 + vec_per_core

let lane ~vec_per_core = function
  | Cube_mte_in | Cube | Cube_mte_out | Scalar -> 0
  | Vec_mte_in i | Vec i | Vec_mte_out i ->
      check_vec ~vec_per_core i;
      1 + i

let is_mte = function
  | Cube_mte_in | Cube_mte_out | Vec_mte_in _ | Vec_mte_out _ -> true
  | Cube | Scalar | Vec _ -> false

let equal a b =
  match a, b with
  | Cube_mte_in, Cube_mte_in
  | Cube, Cube
  | Cube_mte_out, Cube_mte_out
  | Scalar, Scalar ->
      true
  | Vec_mte_in i, Vec_mte_in j | Vec i, Vec j | Vec_mte_out i, Vec_mte_out j ->
      i = j
  | ( (Cube_mte_in | Cube | Cube_mte_out | Scalar | Vec_mte_in _ | Vec _
      | Vec_mte_out _),
      _ ) ->
      false

let to_string = function
  | Cube_mte_in -> "cube.mte_in"
  | Cube -> "cube"
  | Cube_mte_out -> "cube.mte_out"
  | Scalar -> "scalar"
  | Vec_mte_in i -> Printf.sprintf "vec%d.mte_in" i
  | Vec i -> Printf.sprintf "vec%d" i
  | Vec_mte_out i -> Printf.sprintf "vec%d.mte_out" i

let queue = function
  | Cube_mte_in | Vec_mte_in _ -> "MTE2"
  | Cube_mte_out | Vec_mte_out _ -> "MTE3"
  | Cube -> "M"
  | Vec _ -> "V"
  | Scalar -> "S"

let pp fmt e = Format.pp_print_string fmt (to_string e)

let all ~vec_per_core =
  let vec_engines =
    List.concat_map
      (fun i -> [ Vec_mte_in i; Vec i; Vec_mte_out i ])
      (List.init vec_per_core Fun.id)
  in
  [ Cube_mte_in; Cube; Cube_mte_out; Scalar ] @ vec_engines

(* The names in index order, built once per vector-core count: a
   launch reports every engine by name and a traced block names every
   span, and [to_string] formats the vector engines' names. The cell
   holds the last count asked for; a domain that loses a race to set
   it only builds an equal array again. *)
let names_cache = Atomic.make (0, [||])

let names ~vec_per_core =
  match Atomic.get names_cache with
  | v, names when v = vec_per_core -> names
  | _ ->
      let names = Array.of_list (List.map to_string (all ~vec_per_core)) in
      Atomic.set names_cache (vec_per_core, names);
      names
