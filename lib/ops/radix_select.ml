open Ascend

(* Extract the mask (bit b set) of u16 keys into int8 flags. *)
let bit_mask_pass device ~bit keys =
  let flags =
    Device.alloc device Dtype.I8 (Global_tensor.length keys)
      ~name:(Printf.sprintf "rsel_bit%d" bit)
  in
  let stats =
    Map_kernel.run ~name:"rsel_mask" ~scratch:[ Dtype.U16 ] device
      ~inputs:[ keys ] ~output:flags
      ~f:(fun ctx ~vec ~ins ~out ~scratch ~len ->
        match ins, scratch with
        | [ src ], [ tmp ] ->
            Vec.shift_right ctx ~vec ~src ~dst:tmp ~bits:bit ~len ();
            Vec.bit_ands ctx ~vec ~src:tmp ~dst:tmp ~mask:1 ~len ();
            Vec.cast ctx ~vec ~src:tmp ~dst:out ~len ()
        | _, _ -> assert false)
  in
  (flags, stats)

(* Decode a u16 slice back to fp16 values. *)
let decode device keys ~stats =
  let out =
    Device.alloc device Dtype.U16 (Global_tensor.length keys)
      ~name:"rsel_dec"
  in
  let st =
    Map_kernel.run ~name:"rsel_decode" ~scratch:[ Dtype.U16 ] device
      ~inputs:[ keys ] ~output:out
      ~f:(fun ctx ~vec ~ins ~out ~scratch ~len ->
        match ins, scratch with
        | [ src ], [ tmp ] ->
            Float_codec.decode_tile ctx ~vec ~src ~dst:out ~tmp ~len ()
        | _, _ -> assert false)
  in
  stats := st :: !stats;
  Ops_util.bitcast_u16_to_f16 device out

let run ?(s = 128) device x ~k =
  let n = Global_tensor.length x in
  if k <= 0 || k > n || k > 4096 then
    invalid_arg "Radix_select.run: k out of range (1 .. min n 4096)";
  if not (Dtype.equal (Global_tensor.dtype x) Dtype.F16) then
    invalid_arg "Radix_select.run: input must be f16";
  Scan.Kernel_util.check_s ~who:"Radix_select.run" ~even:true Dtype.I8 s;
  let all_stats = ref [] in
  let note st = all_stats := st :: !all_stats in
  (* Encode so that unsigned order equals value order. *)
  let bits0 = Ops_util.bitcast_f16_to_u16 device x in
  let enc = Device.alloc device Dtype.U16 n ~name:"rsel_enc" in
  note
    (Map_kernel.run ~name:"rsel_encode" ~scratch:[ Dtype.U16 ] device
       ~inputs:[ bits0 ] ~output:enc
       ~f:(fun ctx ~vec ~ins ~out ~scratch ~len ->
         match ins, scratch with
         | [ src ], [ tmp ] ->
             Float_codec.encode_tile ctx ~vec ~src ~dst:out ~tmp ~len ()
         | _, _ -> assert false));
  (* MSB-first refinement. [chosen] accumulates whole groups known to
     be in the answer; [cand] is the still-ambiguous candidate set. *)
  let chosen = Device.alloc device Dtype.U16 k ~name:"rsel_chosen" in
  let chosen_off = ref 0 in
  let cand = ref enc and need = ref k and bit = ref 15 in
  while !need > 0 && !bit >= 0 && Global_tensor.length !cand > !need do
    let flags, st_mask = bit_mask_pass device ~bit:!bit !cand in
    note st_mask;
    let r = Split.run ~s device ~x:!cand ~flags () in
    note r.Split.stats;
    let m = Global_tensor.length !cand in
    (* Cost_only: each bit is expected to split the candidates evenly. *)
    let ones = if Device.functional device then r.Split.true_count else m / 2 in
    if ones >= !need then begin
      if ones = m then
        (* No discrimination at this bit; move on. *)
        decr bit
      else begin
        let sub, st = Ops_util.slice device r.Split.values ~off:0 ~len:ones in
        note st;
        cand := sub;
        decr bit
      end
    end
    else begin
      (* Every set-bit candidate is in the answer. *)
      if ones > 0 then begin
        note
          (Ops_util.blit device ~src:r.Split.values ~dst:chosen
             ~dst_off:!chosen_off ~len:ones ());
        chosen_off := !chosen_off + ones;
        need := !need - ones
      end;
      let rest, st = Ops_util.slice device r.Split.values ~off:ones ~len:(m - ones) in
      note st;
      cand := rest;
      decr bit
    end
  done;
  (* Ties: any [need] remaining candidates complete the answer. *)
  if !need > 0 then begin
    note (Ops_util.blit device ~src:!cand ~dst:chosen ~dst_off:!chosen_off ~len:!need ());
    chosen_off := !chosen_off + !need
  end;
  assert (!chosen_off = k);
  (* Decode and produce the k values in descending order (k <= 4096:
     one vector-sort pass on a single core). *)
  let vals = decode device chosen ~stats:all_stats in
  let out = Device.alloc device Dtype.F16 k ~name:(Global_tensor.name x ^ "_rselk") in
  let body ctx =
    if Block.idx ctx = 0 then begin
      let buf = Block.alloc ctx (Mem_kind.Ub 0) Dtype.F16 (max k 1) in
      Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:vals ~dst:buf ~len:k ();
      Vec.sort_region ctx ~descending:true ~src:buf ~dst:buf ~len:k ();
      Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:buf ~dst:out ~len:k ()
    end
  in
  note (Launch.run ~name:"rsel_finish" device ~blocks:1 body);
  (out, Stats.combine ~name:"radix_select" (List.rev !all_stats))
