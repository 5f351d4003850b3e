(** Typed host-side storage backing every simulated memory.

    A buffer stores elements as float64 words in a flat
    [Bigarray.Array1] (off the OCaml heap, so the GC never scans tensor
    payloads and domain-parallel launches share them safely) but
    enforces the declared {!Dtype.t} on every write: fp16 values are
    rounded through the binary16 codec, integers are truncated and
    wrapped. Reads return the stored (already canonical) value.

    The scalar {!get}/{!set} API is the compatibility shim; the bulk
    kernels below validate their ranges once and run dtype-specialised
    unsafe inner loops. Every bulk kernel reproduces the operand order
    and rounding of an equivalent scalar [get]/[set] loop bit for bit
    (NaN payloads and float non-associativity make the order
    observable); [test_bulk.ml] holds the QCheck equivalence suite. *)

type t

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The flat storage representation. *)

val read_data : t -> ba
(** The backing Bigarray, for reading only — the escape hatch for
    engine evaluation loops that validate their ranges up front (see
    {!Cube}). Writing through it breaks the pool invariant of
    {!retire}; use {!write_data}. *)

val write_data : t -> extent:int -> ba
(** The backing Bigarray, for a loop that writes elements in
    [[0, extent)] and nowhere else: marks that prefix dirty (see
    {!retire}) and returns the storage. Every element written must be
    canonical for {!dtype} (pass it through {!Dtype.round} or an
    inlined copy pinned to it); the scalar/bulk APIs below maintain
    both invariants automatically. Raises [Invalid_argument] unless
    [0 <= extent <= length t]. *)

val create : Dtype.t -> int -> t
(** [create dt n] is a buffer of [n] elements, all +0.0. The storage
    is recycled from the retired-buffer pool when a payload of length
    [n] is there (it is already all +0.0, see {!retire}); fresh
    storage is zero-filled. *)

val retire : t -> unit
(** Return the buffer's storage to the internal free pool for reuse by
    a later {!create} of the same length. Idempotent. Every writer
    records the buffer's dirty extent — an upper bound on the indices
    it ever wrote — and [retire] zeroes only that prefix, so that a
    pooled payload is all +0.0 and a tile that was barely written is
    cheap to recycle. The caller asserts the buffer is dead: reading
    or writing it after [retire] may observe or corrupt an unrelated
    buffer that inherited the storage. Used by {!Block} to recycle the
    scratchpad tensors that no later block takes over — simulated local
    memories never outlive their block, mirroring the hardware. The
    pool is domain-safe and size-capped (excess storage falls back to
    the GC). The extent is domain-safe too: concurrent writers (the
    blocks of one domain-parallel launch sharing a global tensor)
    raise it atomically. *)

val clear : t -> unit
(** Zero the dirty extent in place, so the buffer reads all +0.0 as
    if fresh from {!create}, and keep the storage: how {!Block} hands a
    finished block's scratch tile to the next block of its phase. *)

val dtype : t -> Dtype.t
val length : t -> int

val size_bytes : t -> int
(** [length * Dtype.size_bytes dtype]. *)

val get : t -> int -> float
(** O(1); raises [Invalid_argument] when out of bounds. *)

val set : t -> int -> float -> unit
(** Stores [Dtype.round (dtype t) v]. *)

val set_cast : t -> int -> from:Dtype.t -> float -> unit
(** Stores with hardware cast semantics from another data type (see
    {!Dtype.cast}); used by casting data copies such as the L0C(fp32) to
    GM(fp16) path. *)

val unsafe_get : t -> int -> float
(** Unchecked read for loops that validated their range up front. *)

val unsafe_set : t -> int -> float -> unit
(** Unchecked {!set} (still rounds through the dtype). *)

val fill : t -> float -> unit

val fill_range : t -> off:int -> len:int -> float -> unit
(** Fill a sub-range with one rounded value (bulk [Vec.dup]). *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Copy applying the destination's rounding. Same-dtype copies move
    the (already canonical) values wholesale via a Bigarray blit
    (memmove, overlap-safe); converting copies pay the dtype dispatch
    once, not per element. *)

val of_array : Dtype.t -> float array -> t
(** Allocate and fill, rounding every element through the dtype codec
    with the dispatch hoisted out of the loop. *)

val load_array : t -> float array -> unit
(** Store [a] into the buffer's prefix, rounding each element; raises
    [Invalid_argument] when [a] is longer than the buffer. *)

val to_array : t -> float array
val copy : t -> t

(** {2 Bulk kernels}

    Dtype-specialised loops over validated ranges. All raise
    [Invalid_argument] on out-of-range spans. *)

type binop = Add | Sub | Mul | Max | Min

type scalar_op = Adds | Muls | Maxs | Mins

val map2_binop :
  binop ->
  src0:t -> src0_off:int -> src1:t -> src1_off:int ->
  dst:t -> dst_off:int -> len:int -> unit
(** [dst.(i) <- round (src0.(i) op src1.(i))]; [src0] is the left
    operand. *)

val map1_scalar :
  scalar_op ->
  src:t -> src_off:int -> dst:t -> dst_off:int -> scalar:float ->
  len:int -> unit
(** [dst.(i) <- round (src.(i) op scalar)] in the historical [Vec]
    operand order: [Adds]/[Muls] put the element left, [Maxs]/[Mins]
    the scalar left. *)

val map1_f :
  (float -> float) ->
  src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Closure fall-back for the cold element-wise paths ([Vec.exp]);
    still a single range validation and a bounds-check-free loop. *)

(** The integer and compare kernels. A bit-wise op views each source
    element as the unsigned field of its dtype
    ({!Dtype.unsigned_field}), combines fields as ints and rounds the
    result into the destination dtype. A compare stores 1 where
    [Float.compare] of the operands satisfies the relation and 0
    elsewhere, so NaN equals NaN and sorts below every other value,
    and -0 equals +0. *)

type bit_scalar = Shift_right | Shift_left | Ands | Ors | Xors

type bitop = And | Or | Xor

type cmp = Eq | Ne | Lt | Le | Gt | Ge

val map1_bits :
  bit_scalar ->
  src:t -> src_off:int -> dst:t -> dst_off:int -> arg:int -> len:int -> unit
(** [dst.(i) <- round (u op arg)] for the field [u] of [src.(i)]:
    [lsr], [lsl], [land], [lor] or [lxor]. *)

val map2_bits :
  bitop ->
  src0:t -> src0_off:int -> src1:t -> src1_off:int ->
  dst:t -> dst_off:int -> len:int -> unit
(** [dst.(i) <- round (u0 op u1)] for the fields of [src0.(i)] and
    [src1.(i)], each masked to its own dtype's width. *)

val map1_compare :
  cmp ->
  src:t -> src_off:int -> dst:t -> dst_off:int -> scalar:float ->
  len:int -> unit
(** [dst.(i) <- Float.compare src.(i) scalar] satisfies [cmp] ? 1 : 0. *)

val map2_compare :
  cmp ->
  src0:t -> src0_off:int -> src1:t -> src1_off:int ->
  dst:t -> dst_off:int -> len:int -> unit
(** [dst.(i) <- Float.compare src0.(i) src1.(i)] satisfies [cmp] ? 1 : 0. *)

val select_range :
  mask:t -> mask_off:int -> src0:t -> src0_off:int -> src1:t ->
  src1_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** [dst.(i) <- if mask.(i) <> 0 then src0.(i) else src1.(i)]. *)

val arange_range : t -> off:int -> start:float -> len:int -> unit
(** [t.(off+i) <- round (start + i)]. *)

val reduce_add : t -> off:int -> len:int -> float
(** Forward-order raw double accumulation, no final rounding (the
    caller rounds, as the engine ops always did). *)

val reduce_max : t -> off:int -> len:int -> float
(** [Float.max] fold from [neg_infinity], accumulator left. *)

val scan_accum : src:t -> dst:t -> len:int -> float
(** Linear inclusive scan: [acc <- round_dst (acc + src.(i));
    dst.(i) <- acc]; returns the final accumulator ([Vec.cumsum]'s
    historical loop). *)

val scan_segment : binop -> t -> off:int -> len:int -> seg:int -> init:float -> float
(** In-place segment-carry propagation: combine each row of [seg]
    elements with the running carry (exact {!map1_scalar} operand
    order), the carry re-read from the row's last stored value.
    Returns the final carry. [seg = 1] degenerates to an element-wise
    carry chain; raises [Invalid_argument] when [seg <= 0]. Where an
    element NaN meets a NaN carry under [Add] or [Mul], the result is
    the element's NaN, quieted, whatever the codegen. *)

val count_nonzero : t -> off:int -> len:int -> int
(** The number of elements of [[off, off + len)] that are not [0.0]. *)

val gather_mask :
  src:t -> src_off:int -> mask:t -> mask_off:int -> dst:t -> dst_off:int ->
  len:int -> int
(** GatherMask: [dst.(dst_off + k) <- round src.(src_off + i)] for the
    [i < len] with [mask.(mask_off + i) <> 0], in order; returns the
    count. [dst] needs room for the selected elements only; an
    overflow raises [Invalid_argument] before anything is written. *)
