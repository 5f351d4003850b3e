(* BENCHMARK.json, the one place the ledger's workloads, run length and
   metrics are declared: the ledger prints exactly the metrics listed
   there and compare applies the bounds written there. *)

module J = Obs.Jsonw

type metric = {
  name : string;
  unit_ : string;
  higher_better : bool;
  bound : float option;  (** Only end-to-end metrics carry one. *)
}

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ( let* ) = Result.bind

let field name conv v =
  match Option.bind (J.member name v) conv with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing or malformed %S" name)

let all_ok conv items =
  List.fold_right
    (fun item acc ->
      let* rest = acc in
      let* x = conv item in
      Ok (x :: rest))
    items (Ok [])

let metric v =
  let* name = field "name" J.string_opt v in
  let* unit_ = field "unit" J.string_opt v in
  let* better = field "better" J.string_opt v in
  let* higher_better =
    match better with
    | "higher" -> Ok true
    | "lower" -> Ok false
    | s -> Error (Printf.sprintf "metric %s: better must be higher or lower, not %S" name s)
  in
  Ok { name; unit_; higher_better; bound = Option.bind (J.member "bound" v) J.number_opt }

let of_json v =
  let* run_seconds = field "run_seconds" J.int_opt v in
  let* workloads = field "workloads" J.to_list_opt v in
  let* workloads = all_ok (field "name" J.string_opt) workloads in
  let* e2e = field "end_to_end" J.to_list_opt v in
  let* end_to_end = all_ok metric e2e in
  let* layer = field "per_layer" J.to_list_opt v in
  let* per_layer = all_ok metric layer in
  Ok { run_seconds; workloads; end_to_end; per_layer }

let load path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text ->
      let* v = J.parse text in
      Result.map_error (fun e -> path ^ ": " ^ e) (of_json v)
