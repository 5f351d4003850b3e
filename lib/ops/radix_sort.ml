open Ascend

type result = {
  values : Global_tensor.t;
  indices : Global_tensor.t option;
  stats : Stats.t;
}

(* Pre-processing pass: order-preserving encode of the u16 key patterns
   (plus a full complement for descending order). *)
let encode_pass device ~is_float ~descending keys =
  let out =
    Device.alloc device Dtype.U16 (Global_tensor.length keys)
      ~name:(Global_tensor.name keys ^ "_enc")
  in
  let stats =
    Map_kernel.run ~name:"radix_encode" ~scratch:[ Dtype.U16 ] device
      ~inputs:[ keys ] ~output:out
      ~f:(fun ctx ~vec ~ins ~out ~scratch ~len ->
        match ins, scratch with
        | [ src ], [ tmp ] ->
            if is_float then begin
              Float_codec.encode_tile ctx ~vec ~src ~dst:out ~tmp ~len ();
              if descending then
                Vec.bit_not ctx ~vec ~src:out ~dst:out ~len ()
            end
            else
              (* Raw u16 keys: descending order is a plain complement. *)
              Vec.bit_not ctx ~vec ~src ~dst:out ~len ()
        | _, _ -> assert false)
  in
  (out, stats)

let decode_pass device ~is_float ~descending keys =
  let out =
    Device.alloc device Dtype.U16 (Global_tensor.length keys)
      ~name:(Global_tensor.name keys ^ "_dec")
  in
  let stats =
    Map_kernel.run ~name:"radix_decode" ~scratch:[ Dtype.U16 ] device
      ~inputs:[ keys ] ~output:out
      ~f:(fun ctx ~vec ~ins ~out ~scratch ~len ->
        match ins, scratch with
        | [ src ], [ tmp ] ->
            if is_float then begin
              if descending then begin
                Vec.bit_not ctx ~vec ~src ~dst:out ~len ();
                Float_codec.decode_tile ctx ~vec ~src:out ~dst:out ~tmp ~len ()
              end
              else Float_codec.decode_tile ctx ~vec ~src ~dst:out ~tmp ~len ()
            end
            else Vec.bit_not ctx ~vec ~src ~dst:out ~len ()
        | _, _ -> assert false)
  in
  (out, stats)

(* RadixSingle: flags.(i) = 1 - bit b of keys.(i) — elements whose
   current bit is 0 must go first in an ascending LSB radix pass. *)
let extract_pass device ~bit keys =
  let flags =
    Device.alloc device Dtype.I8 (Global_tensor.length keys)
      ~name:(Printf.sprintf "%s_bit%d" (Global_tensor.name keys) bit)
  in
  let stats =
    Map_kernel.run ~name:"radix_single" ~scratch:[ Dtype.U16 ] device
      ~inputs:[ keys ] ~output:flags
      ~f:(fun ctx ~vec ~ins ~out ~scratch ~len ->
        match ins, scratch with
        | [ src ], [ tmp ] ->
            Vec.shift_right ctx ~vec ~src ~dst:tmp ~bits:bit ~len ();
            Vec.bit_ands ctx ~vec ~src:tmp ~dst:tmp ~mask:1 ~len ();
            Vec.bit_xors ctx ~vec ~src:tmp ~dst:tmp ~mask:1 ~len ();
            Vec.cast ctx ~vec ~src:tmp ~dst:out ~len ()
        | _, _ -> assert false)
  in
  (flags, stats)

let run ?(s = 128) ?(with_indices = false) ?(descending = false) ?(bits = 16)
    device x =
  if bits < 1 || bits > 16 then
    invalid_arg "Radix_sort.run: bits must be in [1, 16]";
  let is_float =
    match Global_tensor.dtype x with
    | Dtype.F16 -> true
    | Dtype.U16 -> false
    | d ->
        invalid_arg
          (Printf.sprintf "Radix_sort.run: unsupported dtype %s"
             (Dtype.to_string d))
  in
  if is_float && bits <> 16 then
    invalid_arg "Radix_sort.run: f16 keys require all 16 bits";
  Scan.Kernel_util.check_s ~who:"Radix_sort.run" ~even:true Dtype.I8 s;
  let all_stats = ref [] in
  let note st = all_stats := st :: !all_stats in
  (* Bitcast to u16 patterns (zero cost) and encode when needed. *)
  let keys0 = if is_float then Ops_util.bitcast_f16_to_u16 device x else x in
  let keys0 =
    if is_float || descending then begin
      let k, st = encode_pass device ~is_float ~descending keys0 in
      note st;
      k
    end
    else keys0
  in
  (* 16 stable bit-splits, least significant bit first, chaining the
     permuted source indices through every pass. *)
  let keys = ref keys0 and idx = ref None in
  for bit = 0 to bits - 1 do
    let flags, st_extract = extract_pass device ~bit !keys in
    note st_extract;
    let r =
      Split.run ~s ~with_indices ?indices_in:!idx device ~x:!keys ~flags ()
    in
    note r.Split.stats;
    keys := r.Split.values;
    idx := r.Split.indices
  done;
  (* Post-processing: decode back to the original key domain. *)
  let values =
    if is_float then begin
      let dec, st = decode_pass device ~is_float ~descending !keys in
      note st;
      Ops_util.bitcast_u16_to_f16 device dec
    end
    else if descending then begin
      let dec, st = decode_pass device ~is_float ~descending !keys in
      note st;
      dec
    end
    else !keys
  in
  {
    values;
    indices = !idx;
    stats = Stats.combine ~name:"radix_sort" (List.rev !all_stats);
  }
