(* Registry helpers shared by the test suites: look an entry up, run
   it on one tensor, and check an output with the entry's own oracle. *)

module R = Scan.Op_registry

let () = Ops.Ops_registry.install ()

let entry name =
  match R.find name with
  | Some e -> e
  | None -> invalid_arg ("no registry entry " ^ name)

let run ?(cfg = R.default_config) (e : R.entry) device x =
  match R.run e cfg device (R.Tensor x) with
  | Ok ({ R.y = Some y; _ }, st) -> (y, st)
  | Ok ({ R.y = None; _ }, _) -> Alcotest.failf "%s: no output tensor" e.R.name
  | Error msg -> Alcotest.failf "%s: %s" e.R.name msg

(* [mask] is the flags array of a masked entry (segmented scan,
   split, compress). *)
let check ?(cfg = R.default_config) ?mask (e : R.entry) x y =
  e.R.check cfg { R.x; mask } { R.y = Some y; aux = [] }

(* The batched scans' oracle: every row of a row-major (batch, len)
   input scanned on its own. *)
let check_rows ~batch ~len x y =
  check
    ~cfg:{ R.default_config with R.batch = Some batch; len = Some len }
    (entry "batched_u") x y
