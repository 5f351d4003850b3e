open Ascend

let small_threshold = 8192
let max_rounds = 40

(* Final single-vector-core finish: stream [gt] through the vector-sort
   instructions merging into a running top-[need] buffer, then write the
   [need] best (descending) to [out] at [out_off]. *)
let finish_small device gt ~need ~out ~out_off =
  let n = Global_tensor.length gt in
  let body ctx =
    if Block.idx ctx = 0 then begin
      let dt = Global_tensor.dtype gt in
      let cap = max need 1 in
      let buf = Block.alloc ctx (Mem_kind.Ub 0) dt (2 * cap) in
      let tile = Block.alloc ctx (Mem_kind.Ub 0) dt small_threshold in
      Vec.dup ctx ~dst:buf ~scalar:neg_infinity ~len:(2 * cap) ();
      let t = ref 0 in
      while !t < n do
        let len = min small_threshold (n - !t) in
        Mte.copy_in ctx ~engine:(Engine.Vec_mte_in 0) ~src:gt ~src_off:!t
          ~dst:tile ~len ();
        Vec.sort_region ctx ~descending:true ~src:tile ~dst:tile ~len ();
        Vec.copy ctx ~src:tile ~dst:buf ~dst_off:cap ~len:(min cap len) ();
        Vec.sort_region ctx ~descending:true ~src:buf ~dst:buf ~len:(2 * cap) ();
        t := !t + small_threshold
      done;
      Mte.copy_out ctx ~engine:(Engine.Vec_mte_out 0) ~src:buf ~dst:out
        ~dst_off:out_off ~len:need ()
    end
  in
  Launch.run ~name:"topk_finish" device ~blocks:1 body

let run ?(s = 128) ?(seed = 7) device x ~k =
  let n = Global_tensor.length x in
  if k <= 0 || k > n || k > 4096 then
    invalid_arg "Topk.run: k out of range (1 .. min n 4096)";
  if not (Dtype.equal (Global_tensor.dtype x) Dtype.F16) then
    invalid_arg "Topk.run: input must be f16";
  Scan.Kernel_util.check_s ~who:"Topk.run" ~even:true Dtype.I8 s;
  let rng = Random.State.make [| seed |] in
  let all_stats = ref [] in
  let note st = all_stats := st :: !all_stats in
  (* [kept] collects whole candidate groups already known to be in the
     answer; they are concatenated into [cand] and sorted at the end. *)
  let cand = Device.alloc device Dtype.F16 k ~name:"topk_cand" in
  let cand_off = ref 0 in
  let cur = ref x and need = ref k and rounds = ref 0 in
  let progress = ref true in
  while !need > 0 && Global_tensor.length !cur > small_threshold
        && !rounds < max_rounds && !progress do
    incr rounds;
    let m = Global_tensor.length !cur in
    let pivot =
      Ops_util.read_scalar !cur (Random.State.int rng m) ~default:0.0
    in
    (* flags = (cur >= pivot): at least one true (the pivot itself). *)
    let flags = Device.alloc device Dtype.I8 m ~name:"topk_flags" in
    let st_mask =
      Map_kernel.run ~name:"topk_mask" device ~inputs:[ !cur ] ~output:flags
        ~f:(fun ctx ~vec ~ins ~out ~scratch:_ ~len ->
          match ins with
          | [ src ] ->
              Vec.compare_scalar ctx ~vec Vec.Ge ~src ~dst:out ~scalar:pivot
                ~len ()
          | _ -> assert false)
    in
    note st_mask;
    let r = Split.run ~s device ~x:!cur ~flags () in
    note r.Split.stats;
    (* Cost_only: a random pivot's expected rank keeps half. *)
    let cnt = if Device.functional device then r.Split.true_count else m / 2 in
    if cnt >= !need then
      if cnt = m then progress := false (* pivot is the minimum *)
      else begin
        let sub, st = Ops_util.slice device r.Split.values ~off:0 ~len:cnt in
        note st;
        cur := sub
      end
    else begin
      (* All [cnt] elements >= pivot belong to the answer. *)
      let sub, st = Ops_util.slice device r.Split.values ~off:0 ~len:cnt in
      note st;
      let st2 = finish_small device sub ~need:cnt ~out:cand ~out_off:!cand_off in
      note st2;
      cand_off := !cand_off + cnt;
      need := !need - cnt;
      let rest, st3 =
        Ops_util.slice device r.Split.values ~off:cnt ~len:(m - cnt)
      in
      note st3;
      cur := rest
    end
  done;
  if !need > 0 then begin
    let st = finish_small device !cur ~need:!need ~out:cand ~out_off:!cand_off in
    note st
  end;
  (* Final descending sort of the k candidates on one vector core. *)
  let out = Device.alloc device Dtype.F16 k ~name:(Global_tensor.name x ^ "_topk") in
  let st_final = finish_small device cand ~need:k ~out ~out_off:0 in
  note st_final;
  (out, Stats.combine ~name:"topk_split" (List.rev !all_stats))
