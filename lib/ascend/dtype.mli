(** Element data types supported by the simulated Ascend engines.

    The cube unit supports [F16] inputs with [F32] accumulation and [I8]
    inputs with [I32] accumulation. The vector unit additionally operates
    on 16-bit integers (used for radix extraction on fp16 bit patterns).

    All host-side storage is in OCaml [float]s; {!round} maps an
    arbitrary float to the value the hardware would actually hold in a
    buffer of this data type (fp16 rounding, integer wrap-around). *)

type t =
  | F16 (** IEEE binary16; cube-unit input type. *)
  | F32 (** IEEE binary32; cube-unit accumulator type. *)
  | I8 (** Two's-complement 8-bit; mask / low-precision input type. *)
  | I16 (** Two's-complement 16-bit. *)
  | U16 (** Unsigned 16-bit; bit patterns of fp16 keys during sorting. *)
  | I32 (** Two's-complement 32-bit; integer accumulator type. *)

val size_bytes : t -> int
(** Storage size of one element in bytes. *)

val round : t -> float -> float
(** [round dt v] is the value actually stored when [v] is written to a
    buffer of type [dt]: fp16/fp32 rounding for float types, truncation
    toward zero followed by wrap-around for integer types. *)

val round_f32 : float -> float
(** The [F32] arm of {!round} directly (one binary32 roundtrip, NaN
    passed through): the reference that the inlined fp32 rounders of
    the bulk kernels are tested against. *)

val is_integer : t -> bool

val unsigned_field : t -> float -> int
(** [unsigned_field dt v] is the stored bit field of [v] in an integer
    dtype: [v] truncated toward zero, wrapped to [size_bytes dt * 8]
    bits and read as unsigned. The bit-wise vector ops and fault
    injection see integer elements through it. *)

val min_value : t -> float
(** Smallest representable finite value ([neg_infinity] for floats
    means most-negative finite: [-. max_value]). *)

val max_value : t -> float
(** Largest representable finite value. *)

val equal : t -> t -> bool
val to_string : t -> string

val cast : from:t -> into:t -> float -> float
(** Hardware cast semantics: integer-to-integer wraps, float-to-integer
    truncates toward zero then wraps, anything-to-float rounds. *)
