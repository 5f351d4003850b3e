(** Vector (AIV) engine operations.

    All operands must live in the Unified Buffer of the vector core the
    op runs on ([?vec], default 0). Each call models one (or a small
    fixed number of) vector instruction(s): a fixed issue cost plus the
    datapath time for the processed bytes; the tile-batched ops
    ({!scan_rows}, {!hillis_steele}, {!segmented_hillis_steele}) issue
    a whole per-tile loop of them as one call. Scalar transfers ({!get},
    {!set}, and the implicit result readout of reductions) serialise the
    issuing vector core's pipeline and are charged to it.

    In cost-only device mode the data is not computed; value-returning
    ops return [0.] / [0] and callers must not branch on them (the
    kernels document the analytic expectations they substitute). *)

type binop = Add | Sub | Mul | Max | Min

type cmp = Host_buffer.cmp = Eq | Ne | Lt | Le | Gt | Ge

(** {2 Element-wise, tensor-tensor} *)

val binop :
  Block.t ->
  ?vec:int ->
  binop ->
  src0:Local_tensor.t ->
  ?src0_off:int ->
  src1:Local_tensor.t ->
  ?src1_off:int ->
  dst:Local_tensor.t ->
  ?dst_off:int ->
  len:int ->
  unit ->
  unit

val add :
  Block.t -> ?vec:int -> src0:Local_tensor.t -> src1:Local_tensor.t ->
  dst:Local_tensor.t -> len:int -> unit -> unit
(** [binop Add] over whole-tensor prefixes (convenience). *)

(** {2 Element-wise, tensor-scalar} *)

val adds :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int ->
  dst:Local_tensor.t -> ?dst_off:int -> scalar:float -> len:int -> unit -> unit

val muls :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int ->
  dst:Local_tensor.t -> ?dst_off:int -> scalar:float -> len:int -> unit -> unit

val maxs :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int ->
  dst:Local_tensor.t -> ?dst_off:int -> scalar:float -> len:int -> unit -> unit

val mins :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int ->
  dst:Local_tensor.t -> ?dst_off:int -> scalar:float -> len:int -> unit -> unit

val exp :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int ->
  dst:Local_tensor.t -> ?dst_off:int -> len:int -> unit -> unit

(** {2 Comparison and selection} *)

val compare_scalar :
  Block.t -> ?vec:int -> cmp -> src:Local_tensor.t -> ?src_off:int ->
  dst:Local_tensor.t -> ?dst_off:int -> scalar:float -> len:int -> unit -> unit
(** Writes a 0/1 mask (destination is typically int8). *)

val compare :
  Block.t -> ?vec:int -> cmp -> src0:Local_tensor.t -> src1:Local_tensor.t ->
  dst:Local_tensor.t -> len:int -> unit -> unit

val select :
  Block.t -> ?vec:int -> ?mask_off:int -> mask:Local_tensor.t ->
  ?src0_off:int -> src0:Local_tensor.t -> ?src1_off:int ->
  src1:Local_tensor.t -> ?dst_off:int -> dst:Local_tensor.t -> len:int ->
  unit -> unit
(** [dst.(i) <- if mask.(i) <> 0 then src0.(i) else src1.(i)] over the
    given sub-ranges. *)

(** {2 Integer / bit-wise} (integer data types only) *)

val shift_right :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int ->
  dst:Local_tensor.t -> ?dst_off:int -> bits:int -> len:int -> unit -> unit
(** Logical shift on the unsigned field of the data type. *)

val shift_left :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int ->
  dst:Local_tensor.t -> ?dst_off:int -> bits:int -> len:int -> unit -> unit

val bit_ands :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int ->
  dst:Local_tensor.t -> ?dst_off:int -> mask:int -> len:int -> unit -> unit

val bit_ors :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int ->
  dst:Local_tensor.t -> ?dst_off:int -> mask:int -> len:int -> unit -> unit

val bit_xors :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int ->
  dst:Local_tensor.t -> ?dst_off:int -> mask:int -> len:int -> unit -> unit

val bit_not :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int ->
  dst:Local_tensor.t -> ?dst_off:int -> len:int -> unit -> unit

type bitop = Host_buffer.bitop = And | Or | Xor

val bit_op :
  Block.t -> ?vec:int -> bitop -> src0:Local_tensor.t -> ?src0_off:int ->
  src1:Local_tensor.t -> ?src1_off:int -> dst:Local_tensor.t ->
  ?dst_off:int -> len:int -> unit -> unit
(** Element-wise bit-wise op on the unsigned fields of two integer
    tensors. *)

val arange :
  Block.t -> ?vec:int -> dst:Local_tensor.t -> ?dst_off:int -> start:float ->
  len:int -> unit -> unit
(** AscendC [CreateVecIndex]: writes [start, start+1, ...]. *)

(** {2 Data movement / conversion} *)

val cast :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int ->
  dst:Local_tensor.t -> ?dst_off:int -> len:int -> unit -> unit
(** Element-wise conversion between the two tensors' data types. *)

val dup :
  Block.t -> ?vec:int -> dst:Local_tensor.t -> ?dst_off:int ->
  scalar:float -> len:int -> unit -> unit
(** Broadcast a scalar (AscendC [Duplicate]). *)

val copy :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int ->
  dst:Local_tensor.t -> ?dst_off:int -> len:int -> unit -> unit
(** UB-to-UB move through the vector datapath. *)

(** {2 Reductions} *)

val reduce_sum :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int -> len:int ->
  unit -> float
(** fp32 accumulation; the scalar result readout is included in the
    charged cost. *)

val reduce_max :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int -> len:int ->
  unit -> float

(** {2 Composite instructions} *)

val cumsum :
  Block.t -> ?vec:int -> src:Local_tensor.t -> dst:Local_tensor.t ->
  rows:int -> cols:int -> unit -> unit
(** Model of the vector-only CumSum AscendC API over a [rows x cols]
    row-major UB tile: the result is the linear inclusive prefix sum of
    the flattened tile. Cost: {!Cost_model.t.cumsum_instrs_per_row}
    vector instructions per row (log-step intra-row passes plus
    inter-row propagation). *)

val scan_rows :
  Block.t -> ?vec:int -> op:binop -> buf:Local_tensor.t -> len:int ->
  s:int -> init:float -> unit -> float
(** Tile-batched row-carry propagation over a UB tile of [len] elements
    viewed as rows of [s] (last row possibly short): combine each row
    element-wise with the running carry via [op]'s tensor-scalar form
    ([Add] -> [adds], [Max] -> [maxs], ...), then re-read the carry from
    the row's last element; returns the final carry (the [init] when
    [len = 0]). Bit-identical — in output data, charged cycles, trace
    spans and instruction counts, also the partial counts of a core
    killed inside the tile — to the per-row [adds]/[maxs] +
    {!get} loop scan kernels historically issued, but dispatched as a
    single op with one batched cost charge and one in-place data sweep.
    Raises [Invalid_argument] for [Sub] (no tensor-scalar form) or
    [s <= 0]. *)

val hillis_steele :
  Block.t -> ?vec:int -> op:binop -> buf:Local_tensor.t ->
  tmp:Local_tensor.t -> len:int -> unit -> unit
(** Tile-batched in-UB inclusive scan of [buf.(0 .. len)] under [op]
    with the log-step Hillis-Steele network: for each shift
    [d = 1, 2, 4, ...] below [len], one {!binop}
    [tmp.(d..) <- op buf.(d..) buf.(0..len-d)] and one {!copy}
    [buf.(d..) <- tmp.(d..)], [(len - d)] elements each. [tmp] is a
    scratch tile of at least [len] elements. Bit-identical — in output
    data, charged cycles, trace spans, instruction counts and their
    first-seen order, the cycle at which a core kill lands, and
    sanitizer diagnostics — to that per-instruction loop, but
    dispatched as a single op: UB residency and the widest ([d = 1])
    ranges are checked once, in the loop's order and with its
    messages, and the steps are charged with one
    {!Block.charge_rows}. A [len <= 1] issues, checks and counts
    nothing. *)

val segmented_hillis_steele :
  Block.t -> ?vec:int -> v:Local_tensor.t -> f:Local_tensor.t ->
  tmp_v:Local_tensor.t -> tmp_f:Local_tensor.t -> zero:Local_tensor.t ->
  len:int -> unit -> unit
(** Tile-batched in-UB inclusive {e segmented} scan of the (value,
    segment-start flag) pairs [v.(i), f.(i)] under
    [(v2,f2) . (v1,f1) = ((if f2 then v2 else v1+v2), f1 or f2)]: for
    each shift [d = 1, 2, 4, ...] below [len], a {!select} of the
    contribution from [d] back (zeroed where [f] is set, into
    [tmp_v]), a {!binop} [Add] into [v], a {!copy} of the [len] flags
    into [tmp_f] and a {!bit_op} [Or] that propagates them into [f].
    [f] and [tmp_f] are integer (int8) tiles; [zero] is a zero-filled
    value tile. After the call [v] holds the segmented inclusive scan
    and [f.(i)] is non-zero iff a segment boundary lies in [\[0, i\]].
    The same equivalence contract as {!hillis_steele}, the dtype
    checks included. *)

val sort_region :
  Block.t -> ?vec:int -> ?descending:bool -> src:Local_tensor.t ->
  dst:Local_tensor.t -> len:int -> unit -> unit
(** Model of the Sort32 / MrgSort4 vector-sort instruction sequence:
    sorts [len] elements of a UB region (not stable). Cost: one Sort32
    pass over the region plus [ceil (log4 (len / 32))] merge passes,
    each a region-sized vector instruction. *)

val gather_mask :
  Block.t -> ?vec:int -> src:Local_tensor.t -> ?src_off:int ->
  mask:Local_tensor.t -> ?mask_off:int -> dst:Local_tensor.t ->
  ?dst_off:int -> len:int -> unit -> int
(** AscendC [GatherMask]: compact the elements of [src] whose mask is
    non-zero into contiguous positions of [dst]; returns the count.
    [dst] from [dst_off] needs room for the selected elements only; an
    overflow is a range error (recorded by the sanitizer) raised before
    anything is written. *)

val gather_elements :
  Block.t -> ?vec:int -> src:Local_tensor.t -> idx:Local_tensor.t ->
  dst:Local_tensor.t -> len:int -> unit -> unit
(** AscendC [Gather]: [dst.(i) <- src.(idx.(i))] for [i < len]; [idx]
    must be an integer tensor with in-range entries. *)

(** {2 Scalar access} *)

val get : Block.t -> ?vec:int -> Local_tensor.t -> int -> float
(** Read one element into a scalar register (pipeline-serialising). *)

val set : Block.t -> ?vec:int -> Local_tensor.t -> int -> float -> unit
