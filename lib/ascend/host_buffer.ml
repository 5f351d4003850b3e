(* Flat Bigarray storage: one float64 payload word per element, with
   the declared dtype enforced on every write. Bigarray data lives
   outside the OCaml heap, so the GC never scans simulator tensors
   (which matters under domain parallelism) and same-dtype [blit] is a
   plain memmove. The scalar [get]/[set] API is kept as a compatibility
   shim; hot paths go through the bulk kernels below, which validate
   ranges once and run dtype-specialised unsafe loops — the per-element
   closure indirection and bounds checks of the historical
   [float array] representation are gone. *)

module BA1 = Bigarray.Array1

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t
(* [hi] is the dirty extent: every element at index [>= hi] is +0.0.
   Every writer raises it to the end of the range it wrote, once per
   call. It is atomic because a global tensor is written by
   domain-parallel blocks at once, and a racy [max] could lose a raise;
   McScan retires its intermediate globals, so a lost raise would pool
   stale data. Block-local tensors pay one uncontended load per call. *)
type t = {
  dtype : Dtype.t;
  data : ba;
  hi : int Atomic.t;
  mutable retired : bool;
}

(* Float rounding, local to this module. The classic (non-flambda)
   native backend boxes every float crossing a non-inlined call
   boundary, and the dev profile compiles with -opaque, which disables
   cross-module inlining altogether — a bulk kernel calling
   [Fp16.round] per element would allocate 4 words per element and
   keep the GC busy. The fp16 encode trick is therefore replicated
   here as an [@inline] local (pinned bit-for-bit to [Fp16.of_float]
   by the exhaustive suites in test_fp16.ml / test_bulk.ml); the
   decode table is shared with [Fp16]. *)

let f16_decode_table = Fp16.to_float_table

let[@inline] f16_encode f =
  let b = Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF in
  let sign = (b lsr 16) land 0x8000 in
  let a = b land 0x7FFFFFFF in
  if a >= 0x47800000 then
    if a > 0x7F800000 then sign lor 0x7E00 else sign lor 0x7C00
  else if a >= 0x38800000 then
    let odd = (a lsr 13) land 1 in
    let a = a + 0xFFF + odd - (112 lsl 23) in
    sign lor (a lsr 13)
  else if a >= 0x33000000 then
    let m = a land 0x7FFFFF lor 0x800000 in
    let shift = 126 - (a lsr 23) in
    let base = m lsr shift in
    let rest = m land ((1 lsl shift) - 1) in
    let half = 1 lsl (shift - 1) in
    if rest > half || (rest = half && base land 1 = 1) then sign lor (base + 1)
    else sign lor base
  else sign

let[@inline] round_f16 f = Array.unsafe_get f16_decode_table (f16_encode f)
let[@inline] round_f32 f =
  (* NaN payloads pass through untouched, exactly as [Dtype.round_f32]:
     the f32 bit roundtrip would truncate them, which the equivalence
     suite in test_bulk.ml observes bit for bit. *)
  if Float.is_nan f then f else Int32.float_of_bits (Int32.bits_of_float f)

(* The integer wraps and the dtype dispatch are local for the same
   reason: [Dtype.round]/[Dtype.cast] called per element box their
   argument and result. [round_dt]/[cast_dt] are [Dtype.round]/
   [Dtype.cast] with every arm inlined — integer wrap by mask and sign
   fold, no division — and test_bulk.ml pins them to [Dtype] on the
   integer edge values. *)
let[@inline] wrap_signed bits v =
  let h = 1 lsl (bits - 1) in
  float_of_int (((int_of_float v land ((1 lsl bits) - 1)) lxor h) - h)

let[@inline] wrap_unsigned bits v =
  float_of_int (int_of_float v land ((1 lsl bits) - 1))

let[@inline] round_dt dt v =
  match dt with
  | Dtype.F16 -> round_f16 v
  | Dtype.F32 -> round_f32 v
  | Dtype.I8 -> wrap_signed 8 v
  | Dtype.I16 -> wrap_signed 16 v
  | Dtype.U16 -> wrap_unsigned 16 v
  | Dtype.I32 -> wrap_signed 32 v

let[@inline] cast_dt ~from ~into v =
  match from, into with
  | (Dtype.F16 | Dtype.F32), (Dtype.I8 | Dtype.I16 | Dtype.U16 | Dtype.I32) ->
      round_dt into (Float.of_int (int_of_float v))
  | _, _ -> round_dt into v

(* Storage pool. Simulated scratchpads are allocated per block per
   launch — without reuse, a 20-block McScan launch maps, faults in and
   unmaps ~10 MB of 128 KB Bigarrays per run, and the GC's custom-block
   accounting paces dozens of major slices per run to reclaim them.
   Retired payloads are kept on per-length free lists (capped; excess
   falls back to the GC) and handed back out by [create], so
   steady-state launches allocate no storage at all. A run meets a
   handful of distinct lengths, so the lists are found by a linear
   scan rather than by hashing the length. Invariant: a pooled payload
   is all +0.0. [retire] re-zeroes only the dirty extent [0, hi) —
   tiles are sized for the largest case and most of one is never
   written — and [create] zero-fills only fresh storage. The pool is
   shared across domains (blocks allocate and finish concurrently
   under domain-parallel launches), hence the mutex. *)
type free_list = { size : int; mutable free : ba list }

let pool : free_list list ref = ref []
let pool_mutex = Mutex.create ()
let pool_bytes = ref 0
let pool_cap_bytes = 64 * 1024 * 1024

let rec find_list n = function
  | [] -> None
  | fl :: rest -> if fl.size = n then Some fl else find_list n rest

let pool_take n =
  Mutex.lock pool_mutex;
  let r =
    match find_list n !pool with
    | Some ({ free = ba :: rest; _ } as fl) ->
        fl.free <- rest;
        pool_bytes := !pool_bytes - (n * 8);
        Some ba
    | _ -> None
  in
  Mutex.unlock pool_mutex;
  r

let pool_put (data : ba) =
  let n = BA1.dim data in
  let bytes = n * 8 in
  if n > 0 then begin
    Mutex.lock pool_mutex;
    if !pool_bytes + bytes <= pool_cap_bytes then begin
      (match find_list n !pool with
      | Some fl -> fl.free <- data :: fl.free
      | None -> pool := { size = n; free = [ data ] } :: !pool);
      pool_bytes := !pool_bytes + bytes
    end;
    Mutex.unlock pool_mutex
  end

let create dtype n =
  if n < 0 then invalid_arg "Host_buffer.create: negative length";
  let data =
    match pool_take n with
    | Some data -> data
    | None ->
        (* Array1.create does not zero *)
        let data = BA1.create Bigarray.float64 Bigarray.c_layout n in
        BA1.fill data 0.0;
        data
  in
  { dtype; data; hi = Atomic.make 0; retired = false }

(* Zero the dirty extent [0, hi): a store loop for the few elements a
   tile usually holds, one C fill of a sub-array for a long extent. *)
let zero_dirty t =
  let hi = Atomic.get t.hi in
  if hi > 256 then BA1.fill (BA1.sub t.data 0 hi) 0.0
  else
    for i = 0 to hi - 1 do
      BA1.unsafe_set t.data i 0.0
    done;
  Atomic.set t.hi 0

let clear t = if Atomic.get t.hi > 0 then zero_dirty t

let retire t =
  if not t.retired then begin
    t.retired <- true;
    zero_dirty t;
    pool_put t.data
  end

let rec raise_hi t e =
  let h = Atomic.get t.hi in
  if e > h && not (Atomic.compare_and_set t.hi h e) then raise_hi t e

(* Record that [0, e) may hold non-zero data; [e] is in bounds. *)
let[@inline] mark t e = if e > Atomic.get t.hi then raise_hi t e

let dtype t = t.dtype
let length t = BA1.dim t.data
let size_bytes t = length t * Dtype.size_bytes t.dtype
let read_data t = t.data

let write_data t ~extent =
  if extent < 0 || extent > length t then
    invalid_arg "Host_buffer.write_data: extent out of bounds";
  mark t extent;
  t.data

(* Bounds-checked Array1 access raises the same
   [Invalid_argument "index out of bounds"] the historical array
   representation did. *)
let get t i = BA1.get t.data i

let set t i v =
  BA1.set t.data i (round_dt t.dtype v);
  mark t (i + 1)

let set_cast t i ~from v =
  BA1.set t.data i (cast_dt ~from ~into:t.dtype v);
  mark t (i + 1)

(* Unsafe accessors for validated inner loops. [unsafe_set] still
   rounds through the dtype. *)
let[@inline] unsafe_get t i = BA1.unsafe_get t.data i

let[@inline] unsafe_set t i v =
  BA1.unsafe_set t.data i (round_dt t.dtype v);
  mark t (i + 1)

let check_range name t off len =
  if len < 0 || off < 0 || off + len > length t then
    invalid_arg (Printf.sprintf "Host_buffer.%s: range out of bounds" name)

let fill t v =
  let v = round_dt t.dtype v in
  BA1.fill t.data v;
  mark t (length t)

let fill_range t ~off ~len v =
  check_range "fill_range" t off len;
  if len > 0 then begin
    BA1.fill (BA1.sub t.data off len) (round_dt t.dtype v);
    mark t (off + len)
  end

(* Bulk element conversion with the dtype dispatch hoisted out of the
   loop; ranges must already be validated. Shared by the converting
   [blit] path and [of_array]. The F16/F32 arms call the codec directly
   so the rounding inlines instead of re-dispatching per element. *)
let convert_into ~from ~(dst : t) ~(src : ba) ~src_off ~dst_off ~len =
  let d = dst.data in
  mark dst (dst_off + len);
  match from, dst.dtype with
  | (Dtype.F16 | Dtype.F32), Dtype.F16 | Dtype.I8, Dtype.F16 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f16 (BA1.unsafe_get src (src_off + i)))
      done
  | (Dtype.F16 | Dtype.F32), Dtype.F32 | Dtype.I8, Dtype.F32 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f32 (BA1.unsafe_get src (src_off + i)))
      done
  | _, _ ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (cast_dt ~from ~into:dst.dtype (BA1.unsafe_get src (src_off + i)))
      done

let blit ~src ~src_off ~dst ~dst_off ~len =
  if
    len < 0 || src_off < 0 || dst_off < 0
    || src_off + len > length src
    || dst_off + len > length dst
  then invalid_arg "Host_buffer.blit: range out of bounds";
  if len > 0 then
    if Dtype.equal src.dtype dst.dtype then begin
      (* Stored values are already canonical for the dtype: move them
         wholesale (memmove; overlap-safe), no per-element rounding. *)
      BA1.blit (BA1.sub src.data src_off len) (BA1.sub dst.data dst_off len);
      mark dst (dst_off + len)
    end
    else
      convert_into ~from:src.dtype ~dst ~src:src.data ~src_off ~dst_off ~len

let of_array dt a =
  let n = Array.length a in
  let t = create dt n in
  let d = t.data in
  mark t n;
  (match dt with
  | Dtype.F16 ->
      for i = 0 to n - 1 do
        BA1.unsafe_set d i (round_f16 (Array.unsafe_get a i))
      done
  | Dtype.F32 ->
      for i = 0 to n - 1 do
        BA1.unsafe_set d i (round_f32 (Array.unsafe_get a i))
      done
  | dt ->
      for i = 0 to n - 1 do
        BA1.unsafe_set d i (round_dt dt (Array.unsafe_get a i))
      done);
  t

let load_array t a =
  let n = Array.length a in
  check_range "load_array" t 0 n;
  let d = t.data in
  mark t n;
  match t.dtype with
  | Dtype.F16 ->
      for i = 0 to n - 1 do
        BA1.unsafe_set d i (round_f16 (Array.unsafe_get a i))
      done
  | Dtype.F32 ->
      for i = 0 to n - 1 do
        BA1.unsafe_set d i (round_f32 (Array.unsafe_get a i))
      done
  | dt ->
      for i = 0 to n - 1 do
        BA1.unsafe_set d i (round_dt dt (Array.unsafe_get a i))
      done

(* A flat float array filled in place: [Array.init] would box every
   element its closure returns. *)
let to_array t =
  let n = length t in
  let a = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (BA1.unsafe_get t.data i)
  done;
  a

let copy t =
  let n = length t in
  let data = BA1.create Bigarray.float64 Bigarray.c_layout n in
  BA1.blit t.data data;
  (* [t] is +0.0 past its extent, and so is the copy *)
  { dtype = t.dtype; data; hi = Atomic.make (Atomic.get t.hi); retired = false }

(* ------------------------------------------------------------------ *)
(* Bulk kernels. Each validates its ranges once, hoists the dtype and
   operator dispatch out of the loop, and preserves the exact operand
   order and rounding of the scalar shim it replaces (NaN payloads and
   float non-associativity make the order observable bit for bit). *)

type binop = Add | Sub | Mul | Max | Min
type scalar_op = Adds | Muls | Maxs | Mins

(* dst.(i) <- round (src0.(i) op src1.(i)); src0 is the left operand,
   as in [Vec.binop]'s historical [fun_of_binop] closures. *)
let map2_binop op ~src0 ~src0_off ~src1 ~src1_off ~dst ~dst_off ~len =
  check_range "map2_binop" src0 src0_off len;
  check_range "map2_binop" src1 src1_off len;
  check_range "map2_binop" dst dst_off len;
  mark dst (dst_off + len);
  let a = src0.data and b = src1.data and d = dst.data in
  let finish_generic dt f =
    for i = 0 to len - 1 do
      BA1.unsafe_set d (dst_off + i)
        (round_dt dt
           (f (BA1.unsafe_get a (src0_off + i)) (BA1.unsafe_get b (src1_off + i))))
    done
  in
  match op, dst.dtype with
  | Add, Dtype.F16 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f16
             (BA1.unsafe_get a (src0_off + i) +. BA1.unsafe_get b (src1_off + i)))
      done
  | Add, Dtype.F32 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f32
             (BA1.unsafe_get a (src0_off + i) +. BA1.unsafe_get b (src1_off + i)))
      done
  | Max, Dtype.F16 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f16
             (Float.max
                (BA1.unsafe_get a (src0_off + i))
                (BA1.unsafe_get b (src1_off + i))))
      done
  | Max, Dtype.F32 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f32
             (Float.max
                (BA1.unsafe_get a (src0_off + i))
                (BA1.unsafe_get b (src1_off + i))))
      done
  | Add, dt -> finish_generic dt ( +. )
  | Sub, dt -> finish_generic dt ( -. )
  | Mul, dt -> finish_generic dt ( *. )
  | Max, dt -> finish_generic dt Float.max
  | Min, dt -> finish_generic dt Float.min

(* dst.(i) <- round (src.(i) op scalar), with the operand order of the
   historical [Vec] closures: [adds]/[muls] put the element first,
   [maxs]/[mins] partially applied the scalar first. *)
let map1_scalar op ~src ~src_off ~dst ~dst_off ~scalar ~len =
  check_range "map1_scalar" src src_off len;
  check_range "map1_scalar" dst dst_off len;
  mark dst (dst_off + len);
  let s = src.data and d = dst.data in
  let finish_generic dt f =
    for i = 0 to len - 1 do
      BA1.unsafe_set d (dst_off + i)
        (round_dt dt (f (BA1.unsafe_get s (src_off + i))))
    done
  in
  match op, dst.dtype with
  | Adds, Dtype.F16 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f16 (BA1.unsafe_get s (src_off + i) +. scalar))
      done
  | Adds, Dtype.F32 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f32 (BA1.unsafe_get s (src_off + i) +. scalar))
      done
  | Maxs, Dtype.F16 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f16 (Float.max scalar (BA1.unsafe_get s (src_off + i))))
      done
  | Maxs, Dtype.F32 ->
      for i = 0 to len - 1 do
        BA1.unsafe_set d (dst_off + i)
          (round_f32 (Float.max scalar (BA1.unsafe_get s (src_off + i))))
      done
  | Adds, dt -> finish_generic dt (fun v -> v +. scalar)
  | Muls, dt -> finish_generic dt (fun v -> v *. scalar)
  | Maxs, dt -> finish_generic dt (Float.max scalar)
  | Mins, dt -> finish_generic dt (Float.min scalar)

(* Closure fall-back for the cold element-wise paths ([exp]): still
   one range validation and no per-element bounds checks, but the
   element function stays a closure, which boxes the float it is given
   and the float it returns. *)
let map1_f f ~src ~src_off ~dst ~dst_off ~len =
  check_range "map1_f" src src_off len;
  check_range "map1_f" dst dst_off len;
  mark dst (dst_off + len);
  let s = src.data and d = dst.data in
  let dt = dst.dtype in
  for i = 0 to len - 1 do
    BA1.unsafe_set d (dst_off + i)
      (round_dt dt (f (BA1.unsafe_get s (src_off + i))))
  done

(* Integer and compare kernels. A bit-wise op views each element as
   the unsigned field of its dtype ([Dtype.unsigned_field]: the
   truncated value masked to the dtype's width), combines the fields
   as ints and rounds the result into the destination dtype; a compare
   writes 1 or 0 by [Float.compare] (NaN equals NaN and is below every
   other value, -0 equals +0). *)
type bit_scalar = Shift_right | Shift_left | Ands | Ors | Xors
type bitop = And | Or | Xor
type cmp = Eq | Ne | Lt | Le | Gt | Ge

let[@inline] field_mask dt = (1 lsl (Dtype.size_bytes dt * 8)) - 1

let[@inline] holds cmp c =
  match cmp with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* The op is loop-invariant, so matching it per element costs a
   predictable branch, not a closure call. *)
let map1_bits op ~src ~src_off ~dst ~dst_off ~arg ~len =
  check_range "map1_bits" src src_off len;
  check_range "map1_bits" dst dst_off len;
  mark dst (dst_off + len);
  let s = src.data and d = dst.data in
  let dt = dst.dtype and m = field_mask src.dtype in
  for i = 0 to len - 1 do
    let u = int_of_float (BA1.unsafe_get s (src_off + i)) land m in
    let r =
      match op with
      | Shift_right -> u lsr arg
      | Shift_left -> u lsl arg
      | Ands -> u land arg
      | Ors -> u lor arg
      | Xors -> u lxor arg
    in
    BA1.unsafe_set d (dst_off + i) (round_dt dt (float_of_int r))
  done

let map2_bits op ~src0 ~src0_off ~src1 ~src1_off ~dst ~dst_off ~len =
  check_range "map2_bits" src0 src0_off len;
  check_range "map2_bits" src1 src1_off len;
  check_range "map2_bits" dst dst_off len;
  mark dst (dst_off + len);
  let a = src0.data and b = src1.data and d = dst.data in
  let dt = dst.dtype in
  let ma = field_mask src0.dtype and mb = field_mask src1.dtype in
  for i = 0 to len - 1 do
    let u = int_of_float (BA1.unsafe_get a (src0_off + i)) land ma in
    let v = int_of_float (BA1.unsafe_get b (src1_off + i)) land mb in
    let r = match op with And -> u land v | Or -> u lor v | Xor -> u lxor v in
    BA1.unsafe_set d (dst_off + i) (round_dt dt (float_of_int r))
  done

let map1_compare cmp ~src ~src_off ~dst ~dst_off ~scalar ~len =
  check_range "map1_compare" src src_off len;
  check_range "map1_compare" dst dst_off len;
  mark dst (dst_off + len);
  let s = src.data and d = dst.data in
  let one = round_dt dst.dtype 1.0 and zero = round_dt dst.dtype 0.0 in
  for i = 0 to len - 1 do
    BA1.unsafe_set d (dst_off + i)
      (if holds cmp (Float.compare (BA1.unsafe_get s (src_off + i)) scalar)
       then one
       else zero)
  done

let map2_compare cmp ~src0 ~src0_off ~src1 ~src1_off ~dst ~dst_off ~len =
  check_range "map2_compare" src0 src0_off len;
  check_range "map2_compare" src1 src1_off len;
  check_range "map2_compare" dst dst_off len;
  mark dst (dst_off + len);
  let a = src0.data and b = src1.data and d = dst.data in
  let one = round_dt dst.dtype 1.0 and zero = round_dt dst.dtype 0.0 in
  for i = 0 to len - 1 do
    BA1.unsafe_set d (dst_off + i)
      (if
         holds cmp
           (Float.compare
              (BA1.unsafe_get a (src0_off + i))
              (BA1.unsafe_get b (src1_off + i)))
       then one
       else zero)
  done

let select_range ~mask ~mask_off ~src0 ~src0_off ~src1 ~src1_off ~dst ~dst_off
    ~len =
  check_range "select_range" mask mask_off len;
  check_range "select_range" src0 src0_off len;
  check_range "select_range" src1 src1_off len;
  check_range "select_range" dst dst_off len;
  mark dst (dst_off + len);
  let m = mask.data and a = src0.data and b = src1.data and d = dst.data in
  let dt = dst.dtype in
  for i = 0 to len - 1 do
    let v =
      if BA1.unsafe_get m (mask_off + i) <> 0.0 then
        BA1.unsafe_get a (src0_off + i)
      else BA1.unsafe_get b (src1_off + i)
    in
    BA1.unsafe_set d (dst_off + i) (round_dt dt v)
  done

let arange_range t ~off ~start ~len =
  check_range "arange_range" t off len;
  mark t (off + len);
  let d = t.data in
  let dt = t.dtype in
  for i = 0 to len - 1 do
    BA1.unsafe_set d (off + i) (round_dt dt (start +. float_of_int i))
  done

(* Raw double-accumulator reductions, forward order, no final rounding
   (the caller rounds, matching the historical [Vec] reductions). *)
let reduce_add t ~off ~len =
  check_range "reduce_add" t off len;
  let d = t.data in
  let acc = ref 0.0 in
  for i = off to off + len - 1 do
    acc := !acc +. BA1.unsafe_get d i
  done;
  !acc

let reduce_max t ~off ~len =
  check_range "reduce_max" t off len;
  let d = t.data in
  let acc = ref neg_infinity in
  for i = off to off + len - 1 do
    acc := Float.max !acc (BA1.unsafe_get d i)
  done;
  !acc

(* Linear inclusive scan rounding through [dst]'s dtype at every step:
   acc <- round (acc + src.(i)), the accumulation order of the
   historical [Vec.cumsum] loop. *)
let scan_accum ~src ~dst ~len =
  check_range "scan_accum" src 0 len;
  check_range "scan_accum" dst 0 len;
  mark dst len;
  let s = src.data and d = dst.data in
  let acc = ref 0.0 in
  (match dst.dtype with
  | Dtype.F16 ->
      for i = 0 to len - 1 do
        acc := round_f16 (!acc +. BA1.unsafe_get s i);
        BA1.unsafe_set d i !acc
      done
  | Dtype.F32 ->
      for i = 0 to len - 1 do
        acc := round_f32 (!acc +. BA1.unsafe_get s i);
        BA1.unsafe_set d i !acc
      done
  | dt ->
      for i = 0 to len - 1 do
        acc := round_dt dt (!acc +. BA1.unsafe_get s i);
        BA1.unsafe_set d i !acc
      done);
  !acc

(* In-place segment-carry propagation: for each row of [seg] elements,
   combine every element with the running carry in the exact
   [map1_scalar] operand order (Add/Mul put the element left, Max/Min
   the carry left) and pick up the row's last stored value as the next
   carry. [seg = len] is one scalar-op sweep; [Scan_core.propagate_rows]
   is the [seg = s] case. Returns the final carry.

   When two NaNs meet, the result is the element's NaN, quieted — the
   left operand in source order. x86 [addsd]/[mulsd] return their
   first operand's NaN, and ocamlopt swaps commutative float operands
   to fold a load, so a plain [+.]/[*.] picks either NaN depending on
   codegen (it differed between the dev and release profiles). Only a
   NaN carry can meet an element NaN, so such a row spells the rule
   out ([v +. v] quiets the element's NaN) and the other rows keep the
   bare loops. *)
let scan_segment op t ~off ~len ~seg ~init =
  if seg <= 0 then invalid_arg "Host_buffer.scan_segment: seg must be positive";
  check_range "scan_segment" t off len;
  mark t (off + len);
  let d = t.data in
  let dt = t.dtype in
  let carry = ref init in
  let pos = ref 0 in
  while !pos < len do
    let row_len = min seg (len - !pos) in
    let base = off + !pos in
    let c = !carry in
    (match op, dt with
    | (Add | Mul), dt when Float.is_nan c ->
        for j = base to base + row_len - 1 do
          let v = BA1.unsafe_get d j in
          let r =
            if Float.is_nan v then v +. v
            else if op = Add then v +. c
            else v *. c
          in
          BA1.unsafe_set d j (round_dt dt r)
        done
    | Add, Dtype.F16 ->
        for j = base to base + row_len - 1 do
          BA1.unsafe_set d j (round_f16 (BA1.unsafe_get d j +. c))
        done
    | Add, Dtype.F32 ->
        for j = base to base + row_len - 1 do
          BA1.unsafe_set d j (round_f32 (BA1.unsafe_get d j +. c))
        done
    | Add, dt ->
        for j = base to base + row_len - 1 do
          BA1.unsafe_set d j (round_dt dt (BA1.unsafe_get d j +. c))
        done
    | Max, dt ->
        for j = base to base + row_len - 1 do
          BA1.unsafe_set d j (round_dt dt (Float.max c (BA1.unsafe_get d j)))
        done
    | Min, dt ->
        for j = base to base + row_len - 1 do
          BA1.unsafe_set d j (round_dt dt (Float.min c (BA1.unsafe_get d j)))
        done
    | Mul, dt ->
        for j = base to base + row_len - 1 do
          BA1.unsafe_set d j (round_dt dt (BA1.unsafe_get d j *. c))
        done
    | Sub, dt ->
        for j = base to base + row_len - 1 do
          BA1.unsafe_set d j (round_dt dt (BA1.unsafe_get d j -. c))
        done);
    carry := BA1.unsafe_get d (base + row_len - 1);
    pos := !pos + row_len
  done;
  !carry

let count_nonzero t ~off ~len =
  check_range "count_nonzero" t off len;
  let d = t.data in
  let k = ref 0 in
  for i = off to off + len - 1 do
    if BA1.unsafe_get d i <> 0.0 then incr k
  done;
  !k

(* GatherMask: compact the [src] elements whose [mask] entry is
   non-zero into [dst] from [dst_off], each rounded through [dst]'s
   dtype as [set] does — a no-op between equal dtypes, whose stored
   values are already canonical (as in the same-dtype [blit]). [dst]
   needs room for the selected elements only, so they are counted
   first when it cannot hold all [len]: an overflow raises before
   anything is written. *)
let gather_mask ~src ~src_off ~mask ~mask_off ~dst ~dst_off ~len =
  check_range "gather_mask" src src_off len;
  check_range "gather_mask" mask mask_off len;
  check_range "gather_mask" dst dst_off
    (if dst_off + len <= length dst then 0
     else count_nonzero mask ~off:mask_off ~len);
  let s = src.data and m = mask.data and d = dst.data in
  let dt = dst.dtype in
  let k = ref dst_off in
  if Dtype.equal src.dtype dt then
    for i = 0 to len - 1 do
      if BA1.unsafe_get m (mask_off + i) <> 0.0 then begin
        BA1.unsafe_set d !k (BA1.unsafe_get s (src_off + i));
        incr k
      end
    done
  else
    for i = 0 to len - 1 do
      if BA1.unsafe_get m (mask_off + i) <> 0.0 then begin
        BA1.unsafe_set d !k (round_dt dt (BA1.unsafe_get s (src_off + i)));
        incr k
      end
    done;
  mark dst !k;
  !k - dst_off
