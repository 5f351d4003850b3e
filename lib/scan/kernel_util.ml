open Ascend

let ceil_div a b = (a + b - 1) / b
let round_up a m = ceil_div a m * m

let hillis_steele_tile ctx ~vec ~op ~buf ~tmp ~len =
  let d = ref 1 in
  while !d < len do
    (* tmp.(i) = op buf.(i) buf.(i-d) for i >= d. Elements below [d]
       are already final for this step, so only the shifted tail is
       written back — one combine plus one (len - d)-element copy, both
       charged to the vector engine. *)
    Vec.binop ctx ~vec op ~src0:buf ~src0_off:!d ~src1:buf ~src1_off:0
      ~dst:tmp ~dst_off:!d ~len:(len - !d) ();
    Vec.copy ctx ~vec ~src:tmp ~src_off:!d ~dst:buf ~dst_off:!d
      ~len:(len - !d) ();
    d := !d * 2
  done

let segmented_hillis_steele_tile ctx ~vec ~v ~f ~tmp_v ~tmp_f ~zero ~len =
  let d = ref 1 in
  while !d < len do
    (* Contribution from d positions back, zeroed where the current
       element already starts (or follows a start within d). *)
    Vec.select ctx ~vec ~mask_off:!d ~mask:f ~src0_off:0 ~src0:zero
      ~src1_off:0 ~src1:v ~dst_off:!d ~dst:tmp_v ~len:(len - !d) ();
    Vec.binop ctx ~vec Vec.Add ~src0:v ~src0_off:!d ~src1:tmp_v
      ~src1_off:!d ~dst:v ~dst_off:!d ~len:(len - !d) ();
    (* Flags propagate by OR, through a copy to avoid aliasing. *)
    Vec.copy ctx ~vec ~src:f ~dst:tmp_f ~len ();
    Vec.bit_op ctx ~vec Vec.Or ~src0:tmp_f ~src0_off:!d ~src1:tmp_f
      ~src1_off:0 ~dst:f ~dst_off:!d ~len:(len - !d) ();
    d := !d * 2
  done
