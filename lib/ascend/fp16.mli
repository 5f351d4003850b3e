(** IEEE-754 binary16 (half precision) codec and arithmetic.

    The Ascend cube and vector engines operate natively on [float16]
    values. The simulator stores all values as OCaml [float]s but rounds
    every value written to an fp16 buffer through this codec so that the
    numerical behaviour (precision loss, overflow to infinity, subnormal
    flush behaviour) matches the hardware.

    A value of type {!t} is the 16-bit pattern stored in the low bits of
    a non-negative [int]. *)

type t = int
(** Bit pattern of a binary16 value; always in [\[0, 0xFFFF\]]. *)

val zero : t
val one : t
val neg_zero : t
val pos_infinity : t
val neg_infinity : t
val nan : t

val max_value : float
(** Largest finite binary16 value, [65504.0]. *)

val of_float : float -> t
(** [of_float f] converts with round-to-nearest-even. Values above
    {!max_value} in magnitude become infinities; NaN is preserved. *)

val to_float : t -> float
(** Exact widening conversion. *)

val to_float_table : float array
(** The 65536-entry decode table backing {!to_float} (index = bit
    pattern). Exposed so hot in-module rounding loops ({!Host_buffer})
    can decode with a plain array read: the classic (non-flambda)
    native backend boxes floats at non-inlined call boundaries, and
    dev-profile [-opaque] compilation disables cross-module inlining,
    so per-element cross-module {!round} calls would allocate. *)

val round : float -> float
(** [round f] is [to_float (of_float f)]: the nearest representable
    binary16 value of [f]. *)

val is_nan : t -> bool
val is_infinite : t -> bool
val is_finite : t -> bool

val bits_sign : t -> int
(** Sign bit, [0] or [1]. *)

val bits_exponent : t -> int
(** Biased exponent field, in [\[0, 31\]]. *)

val bits_mantissa : t -> int
(** Mantissa field, in [\[0, 1023\]]. *)

val add : float -> float -> float
(** fp16-faithful addition: both operands are assumed representable;
    the result is rounded to binary16. *)

val mul : float -> float -> float
val sub : float -> float -> float

val compare_value : t -> t -> int
(** Total order on bit patterns by represented value (IEEE semantics,
    with [-0 = +0]; NaNs ordered last). *)

val pp : Format.formatter -> t -> unit
