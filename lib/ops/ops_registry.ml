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

let () =
  register
    {
      name = "compress";
      aliases = [];
      kind = `Op;
      caps = caps ~dtypes:[ Dtype.F16; Dtype.I16; Dtype.U16 ] ~masked:true ();
      monoid = None;
      params = [ S ];
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
