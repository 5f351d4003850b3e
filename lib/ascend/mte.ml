let local_bytes (lt : Local_tensor.t) len = len * Dtype.size_bytes lt.dtype

let check ctx what ~tensor ~len ~src_off ~dst_off ~src_len ~dst_len =
  if len < 0 || src_off < 0 || dst_off < 0 || src_off + len > src_len
     || dst_off + len > dst_len
  then begin
    let msg =
      Printf.sprintf "Mte.%s: range out of bounds (len %d, src %d+/%d, dst %d+/%d)"
        what len src_off src_len dst_off dst_len
    in
    (match Block.sanitizer ctx with
    | Some san ->
        Sanitizer.record_oob san ~block:(Block.idx ctx) ~op:("Mte." ^ what)
          ~tensor ~message:msg
    | None -> ());
    invalid_arg msg
  end

(* Record one GM access span for the cross-block hazard analysis. *)
let san_access san ctx gt ~write ~off ~len =
  Sanitizer.record_global_access san ~block:(Block.idx ctx)
    ~tensor_id:(Global_tensor.id gt) ~tensor_name:(Global_tensor.name gt)
    ~write ~off ~len ~op:(if write then "datacopy_out" else "datacopy_in")

(* A GM copy of [len] elements at [gt_off], between [gt] and the local
   tile [lt] ([write]: from [lt] to [gt]), after its range check: the
   sanitizer's async-use check of [lt] and its access record, then the
   one Block step that counts, draws the fault, charges and records the
   copy. Returns the fault to apply to the payload. *)
let issue_gm ~async ~write ctx ~engine ~what gt ~gt_off lt ~dst_off ~len =
  (match Block.sanitizer ctx with
  | None -> ()
  | Some san ->
      Block.check_async_use ctx ~op:("Mte." ^ what) lt;
      san_access san ctx gt ~write ~off:gt_off ~len);
  Block.gm_copy ctx engine ~async ~write gt lt ~dst_off ~len

(* The payload of a contiguous copy under fault [act]: a dropped copy
   lands nothing, a truncated one its first [keep] elements, a flip
   lands the data and then flips one bit of [dst]. *)
let land_payload act ~src ~src_off ~dst ~dst_off ~len =
  (match act with
  | Fault.Drop -> ()
  | Fault.Truncate keep ->
      if keep > 0 then Host_buffer.blit ~src ~src_off ~dst ~dst_off ~len:keep
  | _ -> Host_buffer.blit ~src ~src_off ~dst ~dst_off ~len);
  match act with
  | Fault.Flip { index; bit } ->
      Fault.flip_in_buffer dst ~index:(dst_off + index) ~bit
  | _ -> ()

(* The payload of a strided copy of [count] bursts under fault [act]:
   elements past a truncation are not landed, a flip hits element
   [index] of the burst-major order. Degenerate strides describe one
   contiguous span: the per-burst loop collapses into a single bulk
   blit. *)
let land_strided act ~src ~src_off ~src_stride ~dst ~dst_off ~dst_stride
    ~burst ~count =
  let len = burst * count in
  let keep =
    match act with
    | Fault.Drop -> 0
    | Fault.Truncate k -> k
    | _ -> len
  in
  if src_stride = burst && dst_stride = burst then begin
    let blen = min keep len in
    if blen > 0 then Host_buffer.blit ~src ~src_off ~dst ~dst_off ~len:blen
  end
  else
    for c = 0 to count - 1 do
      let blen = min burst (max 0 (keep - (c * burst))) in
      if blen > 0 then
        Host_buffer.blit ~src
          ~src_off:(src_off + (c * src_stride))
          ~dst
          ~dst_off:(dst_off + (c * dst_stride))
          ~len:blen
    done;
  match act with
  | Fault.Flip { index; bit } ->
      let c = index / burst and j = index mod burst in
      Fault.flip_in_buffer dst ~index:(dst_off + (c * dst_stride) + j) ~bit
  | _ -> ()

(* The functional payload of every copy executes eagerly at issue time
   (host blits), in program order — only the *timing* of an async copy
   floats until its wait_group. That keeps output buffers byte-identical
   between sync and async schedules; the sanitizer's async-hazard check
   is what models the race a real device would expose. *)
let copy_in_impl ~async ctx ~engine ~src ~src_off ~dst ~dst_off ~len =
  check ctx "copy_in" ~tensor:src.Global_tensor.name ~len ~src_off ~dst_off
    ~src_len:src.Global_tensor.length ~dst_len:dst.Local_tensor.length;
  let act =
    issue_gm ~async ~write:false ctx ~engine ~what:"copy_in" src ~gt_off:src_off
      dst ~dst_off ~len
  in
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    land_payload act ~src:(Global_tensor.buffer src) ~src_off
      ~dst:(Local_tensor.buffer dst) ~dst_off ~len
  end

let copy_in ctx ~engine ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~len () =
  copy_in_impl ~async:false ctx ~engine ~src ~src_off ~dst ~dst_off ~len

let copy_in_async ctx ~engine ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~len () =
  copy_in_impl ~async:true ctx ~engine ~src ~src_off ~dst ~dst_off ~len

(* A strided copy is hazard-checked before its burst shape is
   validated, and its access record spans first to last burst. *)
let check_strided ctx what lt ~burst ~count =
  if Option.is_some (Block.sanitizer ctx) then
    Block.check_async_use ctx ~op:("Mte." ^ what) lt;
  if burst < 0 || count < 0 then
    invalid_arg (Printf.sprintf "Mte.%s: negative burst or count" what)

let copy_in_strided ctx ~engine ~src ~src_off ~src_stride ~dst ~dst_off
    ~dst_stride ~burst ~count =
  check_strided ctx "copy_in_strided" dst ~burst ~count;
  (match Block.sanitizer ctx with
  | Some san when count > 0 ->
      san_access san ctx src ~write:false ~off:src_off
        ~len:(((count - 1) * src_stride) + burst)
  | _ -> ());
  let act =
    Block.gm_copy ctx engine ~async:false ~write:false src dst ~dst_off
      ~len:(burst * count)
  in
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    land_strided act ~src:(Global_tensor.buffer src) ~src_off ~src_stride
      ~dst:(Local_tensor.buffer dst) ~dst_off ~dst_stride ~burst ~count
  end

let copy_out_impl ~async ctx ~engine ~src ~src_off ~dst ~dst_off ~len =
  check ctx "copy_out" ~tensor:dst.Global_tensor.name ~len ~src_off ~dst_off
    ~src_len:src.Local_tensor.length ~dst_len:dst.Global_tensor.length;
  (* The destination is GM, so there is no local tile to track: an
     outbound group is only ever waited to pace the store queue. *)
  let act =
    issue_gm ~async ~write:true ctx ~engine ~what:"copy_out" dst ~gt_off:dst_off
      src ~dst_off ~len
  in
  if Block.functional ctx then
    land_payload act ~src:(Local_tensor.buffer src) ~src_off
      ~dst:(Global_tensor.buffer dst) ~dst_off ~len

let copy_out ctx ~engine ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~len () =
  copy_out_impl ~async:false ctx ~engine ~src ~src_off ~dst ~dst_off ~len

let copy_out_async ctx ~engine ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~len () =
  copy_out_impl ~async:true ctx ~engine ~src ~src_off ~dst ~dst_off ~len

let copy_out_strided ctx ~engine ~src ~src_off ~src_stride ~dst ~dst_off
    ~dst_stride ~burst ~count =
  check_strided ctx "copy_out_strided" src ~burst ~count;
  (match Block.sanitizer ctx with
  | Some san when count > 0 ->
      san_access san ctx dst ~write:true ~off:dst_off
        ~len:(((count - 1) * dst_stride) + burst)
  | _ -> ());
  let act =
    Block.gm_copy ctx engine ~async:false ~write:true dst src ~dst_off
      ~len:(burst * count)
  in
  if Block.functional ctx then
    land_strided act ~src:(Local_tensor.buffer src) ~src_off ~src_stride
      ~dst:(Global_tensor.buffer dst) ~dst_off ~dst_stride ~burst ~count

(* On-chip transfers: the scratchpad SRAM paths are assumed reliable,
   so the fault model only targets the GM<->UB copies above. *)
let copy_local ctx ~engine ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~len () =
  check ctx "copy_local" ~tensor:"(local)" ~len ~src_off ~dst_off
    ~src_len:src.Local_tensor.length ~dst_len:dst.Local_tensor.length;
  if Option.is_some (Block.sanitizer ctx) then
    List.iter (Block.check_async_use ctx ~op:"Mte.copy_local") [ src; dst ];
  Block.local_copy ctx engine
    ~bytes:(max (local_bytes src len) (local_bytes dst len));
  if Block.functional ctx then begin
    let whole =
      src_off = 0 && dst_off = 0 && len = src.length && len = dst.length
    in
    let src_structure = Local_tensor.structure src in
    Local_tensor.touch dst;
    Host_buffer.blit ~src:(Local_tensor.buffer src) ~src_off
      ~dst:(Local_tensor.buffer dst) ~dst_off ~len;
    if whole then Local_tensor.set_structure dst src_structure
  end

(* AscendC commit/wait-group discipline over the async copies above;
   thin delegations so kernels only ever import [Mte]. *)
let commit_group ctx ~engine = Block.commit_group ctx engine
let wait_group ctx ~engine ~outstanding = Block.wait_group ctx engine ~outstanding
