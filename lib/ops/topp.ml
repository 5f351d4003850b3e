open Ascend

type result = { token : int option; kept : int; stats : Stats.t }

(* Steps (3)-(4) shared by both paths: mask the sorted tail whose
   preceding cumulative mass exceeds p, then draw a weighted sample
   from the surviving prefix. *)
let mask_and_sample ?(s = 128) device ~sorted ~cdf ~p ~theta =
  let n = Global_tensor.length sorted in
  let masked = Device.alloc device Dtype.F16 n ~name:"topp_masked" in
  (* keep_i = (cdf_i - q_i) <= p; masked_i = keep_i ? q_i : 0. *)
  let st_mask =
    Map_kernel.run ~name:"topp_mask" ~scratch:[ Dtype.F16; Dtype.I8 ] device
      ~inputs:[ cdf; sorted ] ~output:masked
      ~f:(fun ctx ~vec ~ins ~out ~scratch ~len ->
        match ins, scratch with
        | [ c; q ], [ t; keep ] ->
            Vec.binop ctx ~vec Vec.Sub ~src0:c ~src1:q ~dst:t ~len ();
            Vec.compare_scalar ctx ~vec Vec.Le ~src:t ~dst:keep ~scalar:p ~len ();
            Vec.dup ctx ~vec ~dst:t ~scalar:0.0 ~len ();
            Vec.select ctx ~vec ~mask:keep ~src0:q ~src1:t ~dst:out ~len ()
        | _, _ -> assert false)
  in
  let kept =
    if Device.functional device then begin
      let c = ref 0 in
      for i = 0 to n - 1 do
        if Global_tensor.get masked i <> 0.0 then incr c
      done;
      !c
    end
    else 0
  in
  let j, st_sample = Weighted_sampling.sample ~s device ~weights:masked ~theta in
  (j, kept, [ st_mask; st_sample ])

let sample ?(s = 128) device ~probs ~p ~theta =
  if p <= 0.0 || p > 1.0 then invalid_arg "Topp.sample: p out of (0, 1]";
  if theta < 0.0 || theta >= 1.0 then
    invalid_arg "Topp.sample: theta out of [0, 1)";
  let r = Radix_sort.run ~s ~descending:true ~with_indices:true device probs in
  let sorted = r.Radix_sort.values in
  let cdf, st_scan = Scan.Mcscan.run ~s device sorted in
  let j, kept, sts = mask_and_sample ~s device ~sorted ~cdf ~p ~theta in
  let token =
    match r.Radix_sort.indices with
    | Some gi when Device.functional device ->
        Some (int_of_float (Global_tensor.get gi j))
    | Some _ | None -> None
  in
  {
    token;
    kept;
    stats =
      Stats.combine ~name:"topp_sample"
        (r.Radix_sort.stats :: st_scan :: sts);
  }

let sample_baseline device ~probs ~p ~theta =
  if p <= 0.0 || p > 1.0 then
    invalid_arg "Topp.sample_baseline: p out of (0, 1]";
  let sorted, st_sort = Baseline.sort ~descending:true device probs in
  let cdf, st_scan = Baseline.cumsum device sorted in
  let j, kept, sts = mask_and_sample device ~sorted ~cdf ~p ~theta in
  ignore j;
  {
    token = None;
    kept;
    stats = Stats.combine ~name:"topp_baseline" (st_sort :: st_scan :: sts);
  }

let sample_batch ?(s = 128) device ~probs ~batch ~len ~p ~thetas =
  if batch <= 0 || len <= 0 then
    invalid_arg "Topp.sample_batch: batch and len must be positive";
  if Global_tensor.length probs < batch * len then
    invalid_arg "Topp.sample_batch: tensor shorter than batch * len";
  if Array.length thetas <> batch then
    invalid_arg "Topp.sample_batch: one theta per row required";
  Array.init batch (fun row ->
      let slice, st_slice =
        Ops_util.slice device probs ~off:(row * len) ~len
      in
      let r = sample ~s device ~probs:slice ~p ~theta:thetas.(row) in
      { r with stats = Stats.combine ~name:"topp_row" [ st_slice; r.stats ] })
