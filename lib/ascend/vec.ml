type binop = Add | Sub | Mul | Max | Min
type cmp = Host_buffer.cmp = Eq | Ne | Lt | Le | Gt | Ge

let require_ub what (lt : Local_tensor.t) =
  match lt.kind with
  | Mem_kind.Ub _ -> ()
  | k ->
      invalid_arg
        (Printf.sprintf "Vec.%s: operand in %s; vector engines only access UB"
           what (Mem_kind.to_string k))

let check_range ctx what (lt : Local_tensor.t) off len =
  if off < 0 || len < 0 || off + len > lt.length then begin
    let msg =
      Printf.sprintf "Vec.%s: range %d+%d out of bounds [0,%d)" what off len
        lt.length
    in
    (match Block.sanitizer ctx with
    | Some san ->
        Sanitizer.record_oob san ~block:(Block.idx ctx) ~op:("Vec." ^ what)
          ~tensor:(Mem_kind.to_string lt.kind) ~message:msg
    | None -> ());
    invalid_arg msg
  end;
  (* Every vector-op operand funnels through here, so this one hook
     covers the whole Vec surface for the async-copy hazard check. The
     check is a no-op without a sanitizer: build its op name only when
     one is armed. *)
  if Option.is_some (Block.sanitizer ctx) then
    Block.check_async_use ctx ~op:("Vec." ^ what) lt

let esize (lt : Local_tensor.t) = Dtype.size_bytes lt.dtype

let hb_binop = function
  | Add -> Host_buffer.Add
  | Sub -> Host_buffer.Sub
  | Mul -> Host_buffer.Mul
  | Max -> Host_buffer.Max
  | Min -> Host_buffer.Min

let binop_name = function
  | Add -> "vadd" | Sub -> "vsub" | Mul -> "vmul" | Max -> "vmax"
  | Min -> "vmin"

let binop ctx ?(vec = 0) op ~src0 ?(src0_off = 0) ~src1 ?(src1_off = 0) ~dst
    ?(dst_off = 0) ~len () =
  require_ub "binop" src0;
  require_ub "binop" src1;
  require_ub "binop" dst;
  check_range ctx "binop" src0 src0_off len;
  check_range ctx "binop" src1 src1_off len;
  check_range ctx "binop" dst dst_off len;
  let name = binop_name op in
  Block.vec_op ctx ~vec ~op:name ~instrs:1 ~bytes:(len * esize dst);
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    Host_buffer.map2_binop (hb_binop op)
      ~src0:(Local_tensor.buffer src0) ~src0_off
      ~src1:(Local_tensor.buffer src1) ~src1_off
      ~dst:(Local_tensor.buffer dst) ~dst_off ~len
  end

let add ctx ?(vec = 0) ~src0 ~src1 ~dst ~len () =
  binop ctx ~vec Add ~src0 ~src1 ~dst ~len ()

(* Shared UB-residency / bounds / issue prologue of the tensor-scalar
   ops; the data path varies per caller. *)
let scalar_prologue name ctx ~vec ~src ~src_off ~dst ~dst_off ~len =
  require_ub name src;
  require_ub name dst;
  check_range ctx name src src_off len;
  check_range ctx name dst dst_off len;
  Block.vec_op ctx ~vec ~op:name ~instrs:1 ~bytes:(len * esize dst)

let scalar_map_spec name op ctx ~vec ~src ~src_off ~dst ~dst_off ~scalar ~len =
  scalar_prologue name ctx ~vec ~src ~src_off ~dst ~dst_off ~len;
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    Host_buffer.map1_scalar op
      ~src:(Local_tensor.buffer src) ~src_off
      ~dst:(Local_tensor.buffer dst) ~dst_off ~scalar ~len
  end

let adds ctx ?(vec = 0) ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~scalar ~len () =
  scalar_map_spec "adds" Host_buffer.Adds ctx ~vec ~src ~src_off ~dst ~dst_off
    ~scalar ~len

let muls ctx ?(vec = 0) ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~scalar ~len () =
  scalar_map_spec "muls" Host_buffer.Muls ctx ~vec ~src ~src_off ~dst ~dst_off
    ~scalar ~len

let maxs ctx ?(vec = 0) ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~scalar ~len () =
  scalar_map_spec "maxs" Host_buffer.Maxs ctx ~vec ~src ~src_off ~dst ~dst_off
    ~scalar ~len

let mins ctx ?(vec = 0) ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~scalar ~len () =
  scalar_map_spec "mins" Host_buffer.Mins ctx ~vec ~src ~src_off ~dst ~dst_off
    ~scalar ~len

let exp ctx ?(vec = 0) ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~len () =
  scalar_prologue "exp" ctx ~vec ~src ~src_off ~dst ~dst_off ~len;
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    Host_buffer.map1_f Stdlib.exp
      ~src:(Local_tensor.buffer src) ~src_off
      ~dst:(Local_tensor.buffer dst) ~dst_off ~len
  end

let compare_scalar ctx ?(vec = 0) cmp ~src ?(src_off = 0) ~dst ?(dst_off = 0)
    ~scalar ~len () =
  scalar_prologue "compare_scalar" ctx ~vec ~src ~src_off ~dst ~dst_off ~len;
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    Host_buffer.map1_compare cmp
      ~src:(Local_tensor.buffer src) ~src_off
      ~dst:(Local_tensor.buffer dst) ~dst_off ~scalar ~len
  end

let compare ctx ?(vec = 0) cmp ~src0 ~src1 ~dst ~len () =
  require_ub "compare" src0;
  require_ub "compare" src1;
  require_ub "compare" dst;
  check_range ctx "compare" src0 0 len;
  check_range ctx "compare" src1 0 len;
  check_range ctx "compare" dst 0 len;
  Block.vec_op ctx ~vec ~op:"vcompare" ~instrs:1 ~bytes:(len * esize src0);
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    Host_buffer.map2_compare cmp
      ~src0:(Local_tensor.buffer src0) ~src0_off:0
      ~src1:(Local_tensor.buffer src1) ~src1_off:0
      ~dst:(Local_tensor.buffer dst) ~dst_off:0 ~len
  end

let select ctx ?(vec = 0) ?(mask_off = 0) ~mask ?(src0_off = 0) ~src0
    ?(src1_off = 0) ~src1 ?(dst_off = 0) ~dst ~len () =
  require_ub "select" mask;
  require_ub "select" src0;
  require_ub "select" src1;
  require_ub "select" dst;
  check_range ctx "select" mask mask_off len;
  check_range ctx "select" src0 src0_off len;
  check_range ctx "select" src1 src1_off len;
  check_range ctx "select" dst dst_off len;
  Block.vec_op ctx ~vec ~op:"vselect" ~instrs:1 ~bytes:(len * esize dst);
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    Host_buffer.select_range
      ~mask:(Local_tensor.buffer mask) ~mask_off
      ~src0:(Local_tensor.buffer src0) ~src0_off
      ~src1:(Local_tensor.buffer src1) ~src1_off
      ~dst:(Local_tensor.buffer dst) ~dst_off ~len
  end

let require_integer what lt =
  if not (Dtype.is_integer lt.Local_tensor.dtype) then
    invalid_arg
      (Printf.sprintf "Vec.%s: bit-wise ops require an integer data type" what)

(* Bit-wise ops view each element as the unsigned field of its dtype
   (Host_buffer.map1_bits/map2_bits). *)
let bit_map name op ~arg ctx ~vec ~src ~src_off ~dst ~dst_off ~len =
  require_integer name src;
  require_integer name dst;
  scalar_prologue name ctx ~vec ~src ~src_off ~dst ~dst_off ~len;
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    Host_buffer.map1_bits op
      ~src:(Local_tensor.buffer src) ~src_off
      ~dst:(Local_tensor.buffer dst) ~dst_off ~arg ~len
  end

let shift_right ctx ?(vec = 0) ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~bits
    ~len () =
  bit_map "shift_right" Host_buffer.Shift_right ~arg:bits ctx ~vec ~src
    ~src_off ~dst ~dst_off ~len

let shift_left ctx ?(vec = 0) ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~bits
    ~len () =
  bit_map "shift_left" Host_buffer.Shift_left ~arg:bits ctx ~vec ~src ~src_off
    ~dst ~dst_off ~len

let bit_ands ctx ?(vec = 0) ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~mask ~len () =
  bit_map "bit_ands" Host_buffer.Ands ~arg:mask ctx ~vec ~src ~src_off ~dst
    ~dst_off ~len

let bit_ors ctx ?(vec = 0) ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~mask ~len () =
  bit_map "bit_ors" Host_buffer.Ors ~arg:mask ctx ~vec ~src ~src_off ~dst
    ~dst_off ~len

let bit_xors ctx ?(vec = 0) ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~mask ~len () =
  bit_map "bit_xors" Host_buffer.Xors ~arg:mask ctx ~vec ~src ~src_off ~dst
    ~dst_off ~len

let bit_not ctx ?(vec = 0) ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~len () =
  require_integer "bit_not" src;
  let bits = Dtype.size_bytes src.Local_tensor.dtype * 8 in
  bit_map "bit_not" Host_buffer.Xors ~arg:((1 lsl bits) - 1) ctx ~vec ~src
    ~src_off ~dst ~dst_off ~len

type bitop = Host_buffer.bitop = And | Or | Xor

let bit_op ctx ?(vec = 0) op ~src0 ?(src0_off = 0) ~src1 ?(src1_off = 0) ~dst
    ?(dst_off = 0) ~len () =
  require_integer "bit_op" src0;
  require_integer "bit_op" src1;
  require_integer "bit_op" dst;
  require_ub "bit_op" src0;
  require_ub "bit_op" src1;
  require_ub "bit_op" dst;
  check_range ctx "bit_op" src0 src0_off len;
  check_range ctx "bit_op" src1 src1_off len;
  check_range ctx "bit_op" dst dst_off len;
  Block.vec_op ctx ~vec ~op:"vbitop" ~instrs:1 ~bytes:(len * esize dst);
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    Host_buffer.map2_bits op
      ~src0:(Local_tensor.buffer src0) ~src0_off
      ~src1:(Local_tensor.buffer src1) ~src1_off
      ~dst:(Local_tensor.buffer dst) ~dst_off ~len
  end

let arange ctx ?(vec = 0) ~dst ?(dst_off = 0) ~start ~len () =
  require_ub "arange" dst;
  check_range ctx "arange" dst dst_off len;
  Block.vec_op ctx ~vec ~op:"arange" ~instrs:1 ~bytes:(len * esize dst);
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    Host_buffer.arange_range (Local_tensor.buffer dst) ~off:dst_off ~start ~len
  end

let cast ctx ?(vec = 0) ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~len () =
  require_ub "cast" src;
  require_ub "cast" dst;
  check_range ctx "cast" src src_off len;
  check_range ctx "cast" dst dst_off len;
  Block.vec_op ctx ~vec ~op:"vcast" ~instrs:1
    ~bytes:(len * max (esize src) (esize dst));
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    (* Host_buffer.blit applies {!Dtype.cast} from the source dtype,
       exactly what the per-element set_cast loop did. *)
    Host_buffer.blit ~src:(Local_tensor.buffer src) ~src_off
      ~dst:(Local_tensor.buffer dst) ~dst_off ~len
  end

let dup ctx ?(vec = 0) ~dst ?(dst_off = 0) ~scalar ~len () =
  require_ub "dup" dst;
  check_range ctx "dup" dst dst_off len;
  Block.vec_op ctx ~vec ~op:"duplicate" ~instrs:1 ~bytes:(len * esize dst);
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    Host_buffer.fill_range (Local_tensor.buffer dst) ~off:dst_off ~len scalar
  end

let copy ctx ?(vec = 0) ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~len () =
  scalar_prologue "copy" ctx ~vec ~src ~src_off ~dst ~dst_off ~len;
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    (* Same dtype degenerates to a memmove; converting copies share the
       cast path with [cast] (identical to the old rounding stores). *)
    Host_buffer.blit ~src:(Local_tensor.buffer src) ~src_off
      ~dst:(Local_tensor.buffer dst) ~dst_off ~len
  end

let reduce_sum ctx ?(vec = 0) ~src ?(src_off = 0) ~len () =
  require_ub "reduce_sum" src;
  check_range ctx "reduce_sum" src src_off len;
  Block.vec_op ctx ~vec ~op:"reduce_sum" ~instrs:1 ~bytes:(len * esize src);
  Block.vec_scalar ~counted:false ctx ~vec ~op:"reduce_sum";
  if Block.functional ctx then
    Dtype.round Dtype.F32
      (Host_buffer.reduce_add (Local_tensor.buffer src) ~off:src_off ~len)
  else 0.0

let reduce_max ctx ?(vec = 0) ~src ?(src_off = 0) ~len () =
  require_ub "reduce_max" src;
  check_range ctx "reduce_max" src src_off len;
  if len = 0 then invalid_arg "Vec.reduce_max: empty range";
  Block.vec_op ctx ~vec ~op:"reduce_max" ~instrs:1 ~bytes:(len * esize src);
  Block.vec_scalar ~counted:false ctx ~vec ~op:"reduce_max";
  if Block.functional ctx then
    Host_buffer.reduce_max (Local_tensor.buffer src) ~off:src_off ~len
  else 0.0

let cumsum ctx ?(vec = 0) ~src ~dst ~rows ~cols () =
  require_ub "cumsum" src;
  require_ub "cumsum" dst;
  let len = rows * cols in
  check_range ctx "cumsum" src 0 len;
  check_range ctx "cumsum" dst 0 len;
  let cm = Block.cost ctx in
  let instrs =
    int_of_float (Float.ceil (cm.Cost_model.cumsum_instrs_per_row *. float_of_int rows))
  in
  Block.vec_op ctx ~vec ~op:"cumsum_api" ~instrs:1
    ~bytes:(instrs * cols * esize src);
  (* The per-row instruction count is charged through a single composite
     call above: [instrs] row-sized instructions. Re-express the issue
     overhead explicitly since that call only adds one issue cost: an
     instruction over 0 bytes costs exactly its issue. *)
  Block.vec_op ~counted:false ctx ~vec ~op:"cumsum_api" ~instrs:(instrs - 1)
    ~bytes:0;
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    ignore
      (Host_buffer.scan_accum ~src:(Local_tensor.buffer src)
         ~dst:(Local_tensor.buffer dst) ~len)
  end

let sort_region ctx ?(vec = 0) ?(descending = false) ~src ~dst ~len () =
  require_ub "sort_region" src;
  require_ub "sort_region" dst;
  check_range ctx "sort_region" src 0 len;
  check_range ctx "sort_region" dst 0 len;
  if len = 0 then invalid_arg "Vec.sort_region: empty region";
  (* One Sort32 sweep plus log4 merge passes, each region-sized. *)
  let merge_passes =
    let rec go runs acc = if runs <= 1 then acc else go ((runs + 3) / 4) (acc + 1) in
    go ((len + 31) / 32) 0
  in
  Block.vec_op ctx ~vec ~op:"sort_region" ~instrs:(1 + (2 * merge_passes))
    ~bytes:(len * esize src);
  if Block.functional ctx then begin
    let sb = Local_tensor.buffer src and db = Local_tensor.buffer dst in
    let a = Array.init len (fun i -> Host_buffer.get sb i) in
    Array.sort (fun x y -> Float.compare x y) a;
    Local_tensor.touch dst;
    for i = 0 to len - 1 do
      let v = if descending then a.(len - 1 - i) else a.(i) in
      Host_buffer.set db i v
    done
  end

let gather_mask ctx ?(vec = 0) ~src ?(src_off = 0) ~mask ?(mask_off = 0) ~dst
    ?(dst_off = 0) ~len () =
  require_ub "gather_mask" src;
  require_ub "gather_mask" mask;
  require_ub "gather_mask" dst;
  check_range ctx "gather_mask" src src_off len;
  check_range ctx "gather_mask" mask mask_off len;
  (* [dst] needs room for the selected elements only: on a functional
     device they are counted when it cannot hold all [len], so an
     overflow is a range error here, before anything is written. *)
  check_range ctx "gather_mask" dst dst_off
    (if Block.functional ctx && dst_off + len > dst.length then
       Host_buffer.count_nonzero (Local_tensor.buffer mask) ~off:mask_off ~len
     else 0);
  Block.vec_op ctx ~vec ~op:"gather_mask" ~instrs:2 ~bytes:(len * esize src);
  Block.vec_scalar ~counted:false ctx ~vec ~op:"gather_mask";
  if Block.functional ctx then begin
    Local_tensor.touch dst;
    Host_buffer.gather_mask
      ~src:(Local_tensor.buffer src) ~src_off
      ~mask:(Local_tensor.buffer mask) ~mask_off
      ~dst:(Local_tensor.buffer dst) ~dst_off ~len
  end
  else 0

let gather_elements ctx ?(vec = 0) ~src ~idx ~dst ~len () =
  require_ub "gather_elements" src;
  require_ub "gather_elements" idx;
  require_ub "gather_elements" dst;
  require_integer "gather_elements" idx;
  check_range ctx "gather_elements" idx 0 len;
  check_range ctx "gather_elements" dst 0 len;
  Block.vec_op ctx ~vec ~op:"gather" ~instrs:2 ~bytes:(len * esize dst);
  if Block.functional ctx then begin
    let sb = Local_tensor.buffer src
    and ib = Local_tensor.buffer idx
    and db = Local_tensor.buffer dst in
    Local_tensor.touch dst;
    for i = 0 to len - 1 do
      let j = int_of_float (Host_buffer.get ib i) in
      if j < 0 || j >= src.length then
        invalid_arg
          (Printf.sprintf "Vec.gather_elements: index %d out of range" j);
      Host_buffer.set db i (Host_buffer.get sb j)
    done
  end

let get ctx ?(vec = 0) lt i =
  require_ub "get" lt;
  check_range ctx "get" lt i 0;
  Block.vec_scalar ctx ~vec ~op:"scalar_get";
  if Block.functional ctx then Local_tensor.get lt i else 0.0

let set ctx ?(vec = 0) lt i v =
  require_ub "set" lt;
  check_range ctx "set" lt i 0;
  Block.vec_scalar ctx ~vec ~op:"scalar_set";
  if Block.functional ctx then Local_tensor.set lt i v

(* Tile-batched row-carry propagation: semantically, for each row of
   [s] elements (last row possibly short),

     <scalar-op> buf[row] (op carry); carry <- scalar get of last elt

   i.e. exactly the adds/maxs + Vec.get loop scan kernels ran per UB
   tile, but issued as one op: costs and instruction counts are
   charged through Block.charge_rows in the same per-row (vector op,
   scalar_get) order, so a core killed inside the tile counts only
   the rows issued before the kill, and the data pass is a single
   in-place Host_buffer.scan_segment sweep. *)
let scan_rows ctx ?(vec = 0) ~op ~buf ~len ~s ~init () =
  require_ub "scan_rows" buf;
  check_range ctx "scan_rows" buf 0 len;
  if s <= 0 then invalid_arg "Vec.scan_rows: s must be positive";
  if len = 0 then init
  else begin
    let name, hop =
      match op with
      | Add -> "adds", Host_buffer.Add
      | Mul -> "muls", Host_buffer.Mul
      | Max -> "maxs", Host_buffer.Max
      | Min -> "mins", Host_buffer.Min
      | Sub -> invalid_arg "Vec.scan_rows: Sub has no tensor-scalar form"
    in
    let cm = Block.cost ctx in
    let esz = esize buf in
    let full = len / s in
    let rem = len - (full * s) in
    Block.charge_rows ctx (Engine.Vec vec) ~count:full
      ~counts:[| (name, full); ("scalar_get", full) |]
      ~names:[| name; "scalar_get" |]
      [| Block.vec_op_cycles cm ~bytes:(s * esz); cm.scalar_access_cycles |];
    if rem > 0 then begin
      Block.vec_op ctx ~vec ~op:name ~instrs:1 ~bytes:(rem * esz);
      Block.vec_scalar ctx ~vec ~op:"scalar_get"
    end;
    if Block.functional ctx then begin
      Local_tensor.touch buf;
      Host_buffer.scan_segment hop (Local_tensor.buffer buf) ~off:0 ~len
        ~seg:s ~init
    end
    else
      (* Cost-only devices return 0.0 from scalar reads; the carry after
         at least one row is therefore 0.0, matching the scalar path. *)
      0.0
  end

(* Tile-batched Hillis-Steele networks. Each is the log-step loop

     for d = 1, 2, 4, ... while d < len: <the step's instructions at d>

   that the max and segmented scan kernels ran per UB tile, issued as
   one op. Every later step's ranges lie inside the first step's
   (d = 1), so the residency, dtype and range checks run once, at
   d = 1, in the order of the step's instructions; an armed sanitizer
   then replays the later steps' async-hazard checks in issue order,
   so its diagnostics are those of the per-instruction loop. Counts
   and cycles go through one Block.charge_rows, data through the same
   per-step Host_buffer kernels in the same order. *)

(* The steps of a network over [len] elements: one per shift
   [d = 2^k < len]. *)
let net_steps len =
  let rec go k d = if d < len then go (k + 1) (2 * d) else k in
  go 0 1

(* [f d] for each step's shift [d]. *)
let iter_shifts len f =
  for k = 0 to net_steps len - 1 do
    f (1 lsl k)
  done

(* One operand of a network instruction at shift [d]: range- and
   hazard-checked at d = 1, hazard-checked only at later steps. *)
let net_operand ctx ~d what lt off len =
  if d = 1 then check_range ctx what lt off len
  else Block.check_async_use ctx ~op:("Vec." ^ what) lt

(* Check every step: the d = 1 step always, the later ones only for
   the hazard replay of an armed sanitizer. *)
let check_steps ctx ~len step =
  step 1;
  if Option.is_some (Block.sanitizer ctx) then
    iter_shifts len (fun d -> if d > 1 then step d)

let hillis_steele ctx ?(vec = 0) ~op ~buf ~tmp ~len () =
  if len > 1 then begin
    (* Step d: tmp[d..] <- op buf[d..] buf[..len-d]; buf[d..] <- tmp[d..]. *)
    check_steps ctx ~len (fun d ->
        let n = len - d in
        if d = 1 then begin
          require_ub "binop" buf;
          require_ub "binop" tmp
        end;
        net_operand ctx ~d "binop" buf d n;
        net_operand ctx ~d "binop" buf 0 n;
        net_operand ctx ~d "binop" tmp d n;
        net_operand ctx ~d "copy" tmp d n;
        net_operand ctx ~d "copy" buf d n);
    let name = binop_name op in
    let cm = Block.cost ctx in
    let steps = net_steps len in
    let cycles = Array.make (2 * steps) 0.0 in
    Block.vec_shift_cycles cm ~len ~esize:(esize tmp) cycles ~pos:0
      ~stride:2;
    Block.vec_shift_cycles cm ~len ~esize:(esize buf) cycles ~pos:1
      ~stride:2;
    Block.charge_rows ctx (Engine.Vec vec) ~count:1
      ~counts:[| (name, steps); ("copy", steps) |]
      ~names:[| name; "copy" |] cycles;
    if Block.functional ctx then begin
      Local_tensor.touch tmp;
      Local_tensor.touch buf;
      let hop = hb_binop op in
      let b = Local_tensor.buffer buf and t = Local_tensor.buffer tmp in
      iter_shifts len (fun d ->
          let n = len - d in
          Host_buffer.map2_binop hop ~src0:b ~src0_off:d ~src1:b ~src1_off:0
            ~dst:t ~dst_off:d ~len:n;
          Host_buffer.blit ~src:t ~src_off:d ~dst:b ~dst_off:d ~len:n)
    end
  end

let segmented_hillis_steele ctx ?(vec = 0) ~v ~f ~tmp_v ~tmp_f ~zero ~len () =
  if len > 1 then begin
    (* Step d: tmp_v[d..] <- select f[d..] zero v[..len-d];
       v[d..] <- v[d..] + tmp_v[d..]; tmp_f <- f;
       f[d..] <- tmp_f[d..] lor tmp_f[..len-d]. *)
    check_steps ctx ~len (fun d ->
        let n = len - d in
        if d = 1 then begin
          require_ub "select" f;
          require_ub "select" zero;
          require_ub "select" v;
          require_ub "select" tmp_v
        end;
        net_operand ctx ~d "select" f d n;
        net_operand ctx ~d "select" zero 0 n;
        net_operand ctx ~d "select" v 0 n;
        net_operand ctx ~d "select" tmp_v d n;
        net_operand ctx ~d "binop" v d n;
        net_operand ctx ~d "binop" tmp_v d n;
        net_operand ctx ~d "binop" v d n;
        if d = 1 then require_ub "copy" tmp_f;
        net_operand ctx ~d "copy" f 0 len;
        net_operand ctx ~d "copy" tmp_f 0 len;
        if d = 1 then begin
          require_integer "bit_op" tmp_f;
          require_integer "bit_op" f
        end;
        net_operand ctx ~d "bit_op" tmp_f d n;
        net_operand ctx ~d "bit_op" tmp_f 0 n;
        net_operand ctx ~d "bit_op" f d n);
    let cm = Block.cost ctx in
    let steps = net_steps len in
    (* The flag copy moves the whole tile at every step. *)
    let cycles =
      Array.make (4 * steps)
        (Block.vec_op_cycles cm ~bytes:(len * esize tmp_f))
    in
    Block.vec_shift_cycles cm ~len ~esize:(esize tmp_v) cycles ~pos:0
      ~stride:4;
    Block.vec_shift_cycles cm ~len ~esize:(esize v) cycles ~pos:1
      ~stride:4;
    Block.vec_shift_cycles cm ~len ~esize:(esize f) cycles ~pos:3
      ~stride:4;
    Block.charge_rows ctx (Engine.Vec vec) ~count:1
      ~counts:
        [|
          ("vselect", steps);
          ("vadd", steps);
          ("copy", steps);
          ("vbitop", steps);
        |]
      ~names:[| "vselect"; "vadd"; "copy"; "vbitop" |]
      cycles;
    if Block.functional ctx then begin
      List.iter Local_tensor.touch [ tmp_v; v; tmp_f; f ];
      let vb = Local_tensor.buffer v and fb = Local_tensor.buffer f in
      let tvb = Local_tensor.buffer tmp_v and tfb = Local_tensor.buffer tmp_f in
      let zb = Local_tensor.buffer zero in
      iter_shifts len (fun d ->
          let n = len - d in
          Host_buffer.select_range ~mask:fb ~mask_off:d ~src0:zb ~src0_off:0
            ~src1:vb ~src1_off:0 ~dst:tvb ~dst_off:d ~len:n;
          Host_buffer.map2_binop Host_buffer.Add ~src0:vb ~src0_off:d ~src1:tvb
            ~src1_off:d ~dst:vb ~dst_off:d ~len:n;
          Host_buffer.blit ~src:fb ~src_off:0 ~dst:tfb ~dst_off:0 ~len;
          Host_buffer.map2_bits Host_buffer.Or ~src0:tfb ~src0_off:d ~src1:tfb
            ~src1_off:0 ~dst:fb ~dst_off:d ~len:n)
    end
  end
