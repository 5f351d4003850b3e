(** Host-side oracles used by tests and result validation.

    All oracles accept an optional [round] function applied after every
    accumulation step so they can mirror a kernel's rounding behaviour
    (e.g. [Ascend.Fp16.round] for an fp16 scan whose partials live in
    fp16 buffers). The default is exact double accumulation. *)

val inclusive_scan : ?round:(float -> float) -> float array -> float array

val exclusive_scan : ?round:(float -> float) -> float array -> float array
(** Exclusive scan: [y.(0) = 0], [y.(i) = round (y.(i-1) + x.(i-1))]. *)

val inclusive_scan_op :
  ?round:(float -> float) ->
  combine:(float -> float -> float) ->
  init:float ->
  float array ->
  float array
(** Inclusive scan under an arbitrary monoid (e.g. a {!Scan_op.S}'s
    [combine]/[identity]): [y.(i) = round (combine y.(i-1) x.(i))]
    seeded with [init]. *)

val batched_inclusive :
  ?round:(float -> float) -> batch:int -> len:int -> float array -> float array
(** Row-major [(batch, len)] layout; each row scanned independently. *)

val segmented_inclusive :
  round:(float -> float) -> float array -> flags:float array -> float array
(** Segmented inclusive sum: the running sum restarts at every index
    whose flag is non-zero. *)

val sum : float array -> float

val float_eq : float -> float -> bool
(** Bit-pattern float equality: [=] on ordinary values (so [0.0] and
    [-0.0] agree) that also treats a NaN as equal to itself. Every
    oracle compares through it. *)

val split : float array -> flags:float array -> float array * int array
(** Stable split oracle: true-flag elements first, then false-flag
    elements; also returns the source index of each output element.
    Raises [Invalid_argument] on length mismatch. *)

val compress : float array -> mask:float array -> float array
(** Elements whose mask entry is non-zero, in order. *)

val stable_sort_with_indices : float array -> float array * int array
(** Ascending stable sort returning (values, original indices); total
    order with [-0.0 < 0.0] treated as equal and NaNs last (matches the
    fp16 radix order used by the kernels on non-NaN data). *)

val is_sorted : float array -> bool

val top_k : float array -> k:int -> float array * int array
(** The [k] largest values in descending order with their indices;
    stable among equals (lower index first). *)

val top_p_threshold_count : float array -> p:float -> int
(** Number of items a nucleus (top-p) sampler keeps: sort probabilities
    descending, count items until the cumulative sum exceeds [p]
    (inclusive of the crossing item). *)
