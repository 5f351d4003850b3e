(* Compare two sets of ledger results, e.g. ten alternating runs of a
   parent commit and of a change:

     compare.exe [--spec BENCHMARK.json] PARENT_DIR CHANGE_DIR

   Every ledger result file (written by ledger.exe --out) under each
   directory is read. Results of one workload, pass and seed are paired
   in path order; both sides must hold the same number of them, and
   paired results the same input digest. Simulated metrics must match
   exactly. A metric the result marks as shared by all workloads is
   gated on the first workload only. A host metric
   regresses when the change's median is worse than the parent's by
   more than the bound BENCHMARK.json gives it; it counts as a gain only
   with at least ten pairs, a win in nine of ten, and a median
   difference larger than the parent's interquartile range. Prints one
   row per (workload, metric) and exits 1 on any regression, 2 on bad
   input. Results from different hosts are refused. *)

module J = Obs.Jsonw

type result = {
  path : string;
  workload : string;
  pass : string;
  seed : int;
  inputs : string;  (** Digest of the run's inputs. *)
  machine : string list;  (** Host identity, as printed. *)
  exact : string list;
  shared : string list;
  metrics : (string * (float * string)) list;  (** name -> value, unit *)
}

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let rec files dir =
  Array.to_list (Sys.readdir dir)
  |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then files p
         else if Filename.check_suffix f ".json" then [ p ]
         else [])

let read path =
  let v =
    match J.parse (Spec.read_file path) with
    | Ok v -> v
    | Error e -> die "%s: %s" path e
  in
  let str k o = Option.bind (J.member k o) J.string_opt in
  match str "schema" v with
  | Some "ledger-result-1" ->
      let get k = match str k v with Some s -> s | None -> die "%s: no %s" path k in
      let machine =
        match J.member "machine" v with
        | Some m ->
            List.map
              (fun k ->
                match J.member k m with
                | Some x -> J.to_string x
                | None -> die "%s: machine label lacks %s" path k)
              [ "host"; "host_cpus"; "nproc"; "ocaml" ]
        | None -> die "%s: no machine label" path
      in
      let names k =
        List.filter_map J.string_opt
          (Option.value ~default:[] (Option.bind (J.member k v) J.to_list_opt))
      in
      let seed =
        match Option.bind (J.member "seed" v) J.int_opt with
        | Some s -> s
        | None -> die "%s: no seed" path
      in
      let inputs =
        match Option.bind (Option.bind (J.member "digests" v) (J.member "inputs")) J.string_opt with
        | Some d -> d
        | None -> die "%s: no input digest" path
      in
      let metrics =
        match J.member "metrics" v with
        | Some (J.Obj ms) ->
            List.filter_map
              (fun (name, m) ->
                match (Option.bind (J.member "value" m) J.number_opt, str "unit" m) with
                | Some x, Some u -> Some (name, (x, u))
                | _ -> None)
              ms
        | _ -> die "%s: no metrics" path
      in
      Some
        { path; workload = get "workload"; pass = get "pass"; seed; inputs; machine;
          exact = names "exact"; shared = names "shared"; metrics }
  | _ -> None

let load dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then die "%s is not a directory" dir;
  List.filter_map read (files dir)

(* The runs of one workload and pass, paired: the k-th run of a seed on
   one side with the k-th run of that seed on the other. *)
let pairs ~workload ~pass parent change =
  let side rs = List.filter (fun r -> r.workload = workload && r.pass = pass) rs in
  let a = side parent and b = side change in
  let seeds = List.sort_uniq compare (List.map (fun r -> r.seed) (a @ b)) in
  List.concat_map
    (fun seed ->
      let runs rs = List.filter (fun r -> r.seed = seed) rs in
      let ra = runs a and rb = runs b in
      if List.length ra <> List.length rb then
        die "%s %s seed %d: %d parent runs but %d change runs" workload pass seed
          (List.length ra) (List.length rb);
      List.map2
        (fun x y ->
          if x.inputs <> y.inputs then
            die "%s and %s: same seed, different inputs" x.path y.path;
          (x, y))
        ra rb)
    seeds

(* ------------------------------------------------------------------ *)

type verdict = Same | Changed | Regression | Gain | Ok_ | Unresolved | Info

let verdict_name = function
  | Same -> "same"
  | Changed -> "changed"
  | Regression -> "REGRESSION"
  | Gain -> "gain"
  | Ok_ -> "ok"
  | Unresolved -> "unresolved"
  | Info -> "info"

(* Per-layer metrics carry no bound: they explain, they do not gate. *)
let judge ~exact ~higher ~bound a b =
  let better x y = if higher then x > y else x < y in
  let ma = Stat.median a and mb = Stat.median b in
  if exact then
    if List.for_all2 ( = ) a b then Same
    else if bound = None then Changed
    else if better mb ma then Gain
    else Regression
  else
    match bound with
    | None -> Info
    | Some bound ->
        let n = List.length a in
        let wins = List.length (List.filter Fun.id (List.map2 better b a)) in
        let iqr = Stat.iqr a in
        let spread = iqr /. Float.abs ma in
        let worse_by = (if higher then ma -. mb else mb -. ma) /. Float.abs ma in
        let every cmp = List.for_all (fun y -> List.for_all (fun x -> cmp y x) a) b in
        let all_worse = every (fun y x -> better x y) in
        let all_better = every better in
        if worse_by > bound && (spread <= bound || all_worse) then Regression
        else if n >= 10 && wins * 10 >= 9 * n && Float.abs (mb -. ma) > iqr && better mb ma
        then Gain
        else if spread > bound && not all_better then Unresolved
        else Ok_

let () =
  let spec_path = ref "BENCHMARK.json" in
  let dirs = ref [] in
  let rec parse = function
    | "--spec" :: p :: rest -> spec_path := p; parse rest
    | d :: rest when not (String.starts_with ~prefix:"--" d) -> dirs := d :: !dirs; parse rest
    | [] -> ()
    | _ -> die "usage: compare.exe [--spec BENCHMARK.json] PARENT_DIR CHANGE_DIR"
  in
  parse (List.tl (Array.to_list Sys.argv));
  let parent_dir, change_dir =
    match List.rev !dirs with
    | [ p; c ] -> (p, c)
    | _ -> die "usage: compare.exe [--spec BENCHMARK.json] PARENT_DIR CHANGE_DIR"
  in
  let spec = match Spec.load !spec_path with Ok s -> s | Error e -> die "%s" e in
  let parent = load parent_dir and change = load change_dir in
  (match List.sort_uniq compare (List.map (fun r -> r.machine) (parent @ change)) with
  | [ _ ] -> ()
  | [] -> die "no ledger results found"
  | _ -> die "results come from different hosts; host metrics are never compared across hosts");
  (* Every pairing is checked before the first row is printed. *)
  let groups =
    List.concat_map
      (fun workload ->
        List.filter_map
          (fun (pass, metrics) ->
            match pairs ~workload ~pass parent change with
            | [] -> None
            | ps -> Some (workload, pass, metrics, ps))
          [ ("e2e", spec.Spec.end_to_end); ("layers", spec.Spec.per_layer) ])
      spec.Spec.workloads
  in
  if groups = [] then die "no workload and pass has results on both sides";
  let regressions = ref 0 and rows = ref 0 and gated_shared = ref [] in
  Printf.printf "%-16s %-6s %-34s %-9s %22s %22s %8s %6s %6s  %s\n" "workload" "pass" "metric"
    "unit" "parent median [IQR]" "change median [IQR]" "delta" "wins" "bound" "verdict";
  List.iter
    (fun (workload, pass, metrics, ps) ->
      let a = List.map fst ps and b = List.map snd ps and n = List.length ps in
      let first_time name =
        if not (List.mem name (List.hd a).shared) then true
        else if List.mem name !gated_shared then false
        else begin
          gated_shared := name :: !gated_shared;
          true
        end
      in
      List.iter
        (fun (m : Spec.metric) ->
          let values rs =
            List.map
              (fun r ->
                match List.assoc_opt m.Spec.name r.metrics with
                | Some (v, _) -> v
                | None -> die "%s lacks %s" r.path m.Spec.name)
              rs
          in
          let va = values a and vb = values b in
          let exact = List.mem m.Spec.name (List.hd a).exact in
          let v = judge ~exact ~higher:m.Spec.higher_better ~bound:m.Spec.bound va vb in
          if v = Regression then incr regressions;
          incr rows;
          let better x y = if m.Spec.higher_better then x > y else x < y in
          let wins = List.length (List.filter Fun.id (List.map2 better vb va)) in
          let ma = Stat.median va and mb = Stat.median vb in
          Printf.printf "%-16s %-6s %-34s %-9s %12.6g [%7.3g] %12.6g [%7.3g] %+7.2f%% %3d/%-2d %6s  %s\n"
            workload pass m.Spec.name m.Spec.unit_ ma (Stat.iqr va) mb (Stat.iqr vb)
            (if ma = 0.0 then 0.0 else 100.0 *. (mb -. ma) /. Float.abs ma)
            wins n
            (match m.Spec.bound with Some b -> Printf.sprintf "%g" b | None -> "-")
            (verdict_name v))
        (List.filter (fun (m : Spec.metric) -> first_time m.Spec.name) metrics))
    groups;
  Printf.printf "%d rows, %d regressions\n" !rows !regressions;
  exit (if !regressions > 0 then 1 else 0)
