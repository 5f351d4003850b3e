open Ascend
open Scan.Op_registry

(* The [ops] operators' registry entries. Registration happens at this
   module's initialisation; [install] is the forcing function a
   front-end calls so the linker keeps this module (OCaml drops
   unreferenced library modules, side effects included). *)

let caps ?(dtypes = [ Dtype.F16 ]) ?(masked = false) () =
  {
    dtypes;
    exclusive = false;
    batched = false;
    segmented = false;
    masked;
  }

let masked_in name = function
  | Masked { x; mask } -> (x, mask)
  | Tensor _ -> invalid_arg (name ^ " requires a mask/flags input")

let tensor_in name = function
  | Tensor x -> x
  | Masked _ -> invalid_arg (name ^ " takes a single tensor input")

let required name field = function
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "%s requires %s" name field)

(* Oracles over the host input. Copies (compress, split, sort,
   selection) compare values; samplers check that the token indexes an
   item with mass. *)

let ( let* ) = Result.bind

let aux key out =
  match List.assoc_opt key out.aux with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "no %s result" key)

let check_token host out =
  let* t = aux "token" out in
  let i = int_of_float t in
  if i < 0 || i >= Array.length host.x then
    Error (Printf.sprintf "token %d out of range [0,%d)" i (Array.length host.x))
  else if host.x.(i) <= 0.0 then
    Error (Printf.sprintf "index %d: token has no mass (x = %g)" i host.x.(i))
  else Ok ()

let given what = function
  | Some v -> Ok v
  | None -> Error ("no " ^ what)

let check_top_k cfg host out =
  let* k = given "k" cfg.k in
  check_prefix (fst (Scan.Reference.top_k host.x ~k)) out

let () =
  register
    {
      name = "compress";
      aliases = [];
      kind = `Op;
      caps = caps ~dtypes:[ Dtype.F16; Dtype.I16; Dtype.U16 ] ~masked:true ();
      monoid = None;
      params = [ S ];
      check =
        (fun _cfg host out ->
          let* mask = given "mask" host.mask in
          let expected = Scan.Reference.compress host.x ~mask in
          let* count = aux "count" out in
          if count = float_of_int (Array.length expected) then
            check_prefix expected out
          else
            Error
              (Printf.sprintf "count: expected %d, got %g"
                 (Array.length expected) count));
      describe = "Mask-compaction via exclusive-scan addressing";
      run =
        (fun cfg device input ->
          let x, mask = masked_in "compress" input in
          let r = Compress.run ?s:cfg.s device ~x ~mask () in
          ( {
              y = Some r.Compress.values;
              aux = [ ("count", float_of_int r.Compress.count) ];
            },
            r.Compress.stats ));
    };
  register
    {
      name = "split";
      aliases = [];
      kind = `Op;
      caps = caps ~dtypes:[ Dtype.F16; Dtype.I16; Dtype.U16 ] ~masked:true ();
      monoid = None;
      params = [ S ];
      check =
        (fun _cfg host out ->
          let* flags = given "mask" host.mask in
          check_prefix (fst (Scan.Reference.split host.x ~flags)) out);
      describe = "Stable flag-partition (trues first, then falses)";
      run =
        (fun cfg device input ->
          let x, flags = masked_in "split" input in
          let r = Split.run ?s:cfg.s device ~x ~flags () in
          ( {
              y = Some r.Split.values;
              aux = [ ("true_count", float_of_int r.Split.true_count) ];
            },
            r.Split.stats ));
    };
  register
    {
      name = "radix_sort";
      aliases = [ "sort" ];
      kind = `Op;
      caps = caps ~dtypes:[ Dtype.F16; Dtype.U16 ] ();
      monoid = None;
      params = [ S; Bits ];
      check =
        (fun _cfg host ->
          check_prefix (fst (Scan.Reference.stable_sort_with_indices host.x)));
      describe = "LSD radix sort from repeated split";
      run =
        (fun cfg device input ->
          let x = tensor_in "radix_sort" input in
          let r = Radix_sort.run ?s:cfg.s ?bits:cfg.bits device x in
          ({ y = Some r.Radix_sort.values; aux = [] }, r.Radix_sort.stats));
    };
  register
    {
      name = "topk";
      aliases = [ "quickselect" ];
      kind = `Op;
      caps = caps ();
      monoid = None;
      params = [ S; K ];
      check = check_top_k;
      describe = "Top-k selection by iterative quickselect";
      run =
        (fun cfg device input ->
          let x = tensor_in "topk" input in
          let k = required "topk" "k" cfg.k in
          let y, stats = Topk.run ?s:cfg.s ?seed:cfg.seed device x ~k in
          ({ y = Some y; aux = [] }, stats));
    };
  register
    {
      name = "radix_select";
      aliases = [];
      kind = `Op;
      caps = caps ();
      monoid = None;
      params = [ S; K ];
      check = check_top_k;
      describe = "Top-k selection by bitwise radix descent";
      run =
        (fun cfg device input ->
          let x = tensor_in "radix_select" input in
          let k = required "radix_select" "k" cfg.k in
          let y, stats = Radix_select.run ?s:cfg.s device x ~k in
          ({ y = Some y; aux = [] }, stats));
    };
  register
    {
      name = "topp";
      aliases = [ "top_p" ];
      kind = `Op;
      caps = caps ();
      monoid = None;
      params = [ S; P; Theta ];
      (* The kept count only has to be near the sequential one: the
         kernel sums in a different order and in fp16. *)
      check =
        (fun cfg host out ->
          let* () = check_token host out in
          let* kept = aux "kept" out in
          let* p = given "p" cfg.p in
          let o = Scan.Reference.top_p_threshold_count host.x ~p in
          let fo = float_of_int o in
          if kept >= 0.5 *. fo && kept <= (2.0 *. fo) +. 4.0 then Ok ()
          else Error (Printf.sprintf "kept: expected about %d, got %g" o kept));
      describe = "Nucleus (top-p) sampling via sort + cumsum";
      run =
        (fun cfg device input ->
          let probs = tensor_in "topp" input in
          let p = required "topp" "p" cfg.p in
          let theta = required "topp" "theta" cfg.theta in
          let r = Topp.sample ?s:cfg.s device ~probs ~p ~theta in
          ( {
              y = None;
              aux =
                (match r.Topp.token with
                | Some t -> [ ("token", float_of_int t) ]
                | None -> [])
                @ [ ("kept", float_of_int r.Topp.kept) ];
            },
            r.Topp.stats ));
    };
  register
    {
      name = "weighted_sampling";
      aliases = [ "sample" ];
      kind = `Op;
      caps = caps ();
      monoid = None;
      params = [ S; Theta ];
      check = (fun _cfg host -> check_token host);
      describe = "Inverse-CDF weighted sampling over a scan";
      run =
        (fun cfg device input ->
          let weights = tensor_in "weighted_sampling" input in
          let theta = required "weighted_sampling" "theta" cfg.theta in
          let token, stats =
            Weighted_sampling.sample ?s:cfg.s device ~weights ~theta
          in
          ({ y = None; aux = [ ("token", float_of_int token) ] }, stats));
    }

let install () = ()
