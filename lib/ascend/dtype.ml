type t = F16 | F32 | I8 | I16 | U16 | I32

let size_bytes = function
  | F16 | I16 | U16 -> 2
  | F32 | I32 -> 4
  | I8 -> 1

let is_integer = function
  | I8 | I16 | U16 | I32 -> true
  | F16 | F32 -> false

let min_value = function
  | F16 -> -.Fp16.max_value
  | F32 -> -.Float.max_float
  | I8 -> -128.0
  | I16 -> -32768.0
  | U16 -> 0.0
  | I32 -> -2147483648.0

let max_value = function
  | F16 -> Fp16.max_value
  | F32 -> Float.max_float
  | I8 -> 127.0
  | I16 -> 32767.0
  | U16 -> 65535.0
  | I32 -> 2147483647.0

let[@inline] round_f32 v =
  if Float.is_nan v then v else Int32.float_of_bits (Int32.bits_of_float v)

(* The low [bits] bits of the truncated value [v], as an unsigned
   field: [x land (2^bits - 1)] is [x mod 2^bits] folded into
   [0, 2^bits) for every OCaml int, with no division. *)
let[@inline] wrap_bits bits v = int_of_float v land ((1 lsl bits) - 1)

(* Two's-complement wrap-around of a truncated float, for a field of
   [bits] bits: the unsigned field, sign-folded at [h = 2^(bits-1)].
   Mirrors what the hardware stores on integer overflow. *)
let[@inline] wrap_signed bits v =
  let h = 1 lsl (bits - 1) in
  float_of_int ((wrap_bits bits v lxor h) - h)

let[@inline] wrap_unsigned bits v = float_of_int (wrap_bits bits v)

let unsigned_field dt v = wrap_bits (size_bytes dt * 8) v

let[@inline] round dt v =
  match dt with
  | F16 -> Fp16.round v
  | F32 -> round_f32 v
  | I8 -> wrap_signed 8 v
  | I16 -> wrap_signed 16 v
  | U16 -> wrap_unsigned 16 v
  | I32 -> wrap_signed 32 v

let cast ~from ~into v =
  match from, into with
  | (F16 | F32), (I8 | I16 | U16 | I32) -> round into (Float.of_int (int_of_float v))
  | _, _ -> round into v

let equal a b =
  match a, b with
  | F16, F16 | F32, F32 | I8, I8 | I16, I16 | U16, U16 | I32, I32 -> true
  | (F16 | F32 | I8 | I16 | U16 | I32), _ -> false

let to_string = function
  | F16 -> "f16"
  | F32 -> "f32"
  | I8 -> "i8"
  | I16 -> "i16"
  | U16 -> "u16"
  | I32 -> "i32"
