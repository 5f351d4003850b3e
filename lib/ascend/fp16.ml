type t = int

let zero = 0x0000
let neg_zero = 0x8000
let one = 0x3C00
let pos_infinity = 0x7C00
let neg_infinity = 0xFC00
let nan = 0x7E00
let max_value = 65504.0

let bits_sign h = (h lsr 15) land 1
let bits_exponent h = (h lsr 10) land 0x1F
let bits_mantissa h = h land 0x3FF
let is_nan h = bits_exponent h = 31 && bits_mantissa h <> 0
let is_infinite h = bits_exponent h = 31 && bits_mantissa h = 0
let is_finite h = bits_exponent h <> 31

(* Conversion goes through the IEEE binary32 representation: OCaml's
   [Int32.bits_of_float] first rounds the double to float32, and binary16
   rounding of a float32 value equals binary16 rounding of the original
   double except for values in a measure-zero double-rounding band that
   does not arise from fp16-representable operands; this matches how the
   hardware converts as well (fp32 accumulators quantized to fp16). *)

(* The encode side of the codec is the hottest write-path scalar (every
   fp16 store rounds through it), so the normal range uses the
   carry-propagating bias trick instead of the historical
   extract/compare/reassemble sequence: adding [0xFFF + odd] below the
   13 dropped mantissa bits implements round-to-nearest-even in one
   add, and a mantissa carry overflows into the exponent field — at the
   top of the range correctly producing the infinity encoding. The
   subnormal band keeps the exact integer-shift rounding (OCaml has no
   float32 arithmetic, so the denormal-magic float-add variant of the
   trick would double-round); it is off the hot path. The exhaustive
   65536-pattern roundtrip and the encode-equivalence suite in
   [test_fp16.ml] lock both paths to the historical rounding. *)
let[@inline] of_float f =
  let b = Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF in
  let sign = (b lsr 16) land 0x8000 in
  let a = b land 0x7FFFFFFF in
  if a >= 0x47800000 then
    (* >= 65536.0f after f32 rounding: infinity, or NaN (canonicalized
       to the quiet pattern, as the hardware converts). *)
    if a > 0x7F800000 then sign lor 0x7E00 else sign lor 0x7C00
  else if a >= 0x38800000 then
    (* Normal binary16 range [2^-14, 65536): rebias the exponent and
       round-to-nearest-even the 13 dropped bits in a single add.
       Finite f32 values in [65520, 65536) carry all the way into the
       exponent and yield 0x7C00 = infinity, matching RNE. *)
    let odd = (a lsr 13) land 1 in
    let a = a + 0xFFF + odd - (112 lsl 23) in
    sign lor (a lsr 13)
  else if a >= 0x33000000 then
    (* Subnormal range [2^-25, 2^-14): the implicit leading 1 joins the
       mantissa and the whole significand is shifted right, with exact
       integer round-to-nearest-even on the dropped bits. *)
    let m = a land 0x7FFFFF lor 0x800000 in
    let shift = 126 - (a lsr 23) in
    (* = -exp - 14 + 13 for exp = e - 127 in [-25, -15] *)
    let base = m lsr shift in
    let rest = m land ((1 lsl shift) - 1) in
    let half = 1 lsl (shift - 1) in
    if rest > half || (rest = half && base land 1 = 1) then sign lor (base + 1)
    else sign lor base
  else sign (* below 2^-25: underflow to (signed) zero *)

(* [to_float] is the simulator's hottest scalar: every fp16 store
   rounds through [of_float]/[to_float], so a 1M-element kernel decodes
   millions of half words. The historical implementation paid a
   [Float.pow] per normal value; this decodes once per bit pattern into
   a 65536-entry table at module initialisation (exactly 512 KiB of
   unboxed doubles) and makes [to_float] a single array read. [ldexp]
   by an exact power of two is bit-identical to the old
   [*. Float.pow 2.0 (float (e - 25))] path — both are exact scalings —
   which the exhaustive 65536-pattern test locks in. The eager (not
   lazy) build keeps the table domain-safe for parallel launches. *)
let decode h =
  let sign = if bits_sign h = 1 then -1.0 else 1.0 in
  let e = bits_exponent h in
  let m = bits_mantissa h in
  if e = 31 then if m = 0 then sign *. infinity else Float.nan
  else if e = 0 then sign *. float_of_int m *. 0x1p-24
  else sign *. Float.ldexp (float_of_int (m lor 0x400)) (e - 25)

let to_float_table = Array.init 65536 decode

(* Masking to 16 bits matches the historical field extractions, which
   only ever read bits 0-15. *)
let[@inline] to_float h = Array.unsafe_get to_float_table (h land 0xFFFF)

let[@inline] round f = to_float (of_float f)
let add a b = round (a +. b)
let sub a b = round (a -. b)
let mul a b = round (a *. b)

let compare_value a b =
  let fa = to_float a and fb = to_float b in
  match Float.is_nan fa, Float.is_nan fb with
  | true, true -> 0
  | true, false -> 1
  | false, true -> -1
  | false, false -> Float.compare fa fb

let pp fmt h = Format.fprintf fmt "%h(0x%04X)" (to_float h) h
