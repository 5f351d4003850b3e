type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

(* The C primitive behind Printf's %f/%g conversions, called without
   CamlinternalFormat's interpretation of the format: same bytes,
   a fraction of the cost. Only numbers outside [10^-6, 10^15) reach
   it. *)
external format_float : string -> float -> string = "caml_format_float"

(* 10^i for every i whose power is an exact double. *)
let exact_pow10 =
  let p = Array.make 23 1.0 in
  for i = 1 to 22 do
    p.(i) <- p.(i - 1) *. 10.0
  done;
  p

let int_pow10 = Array.init 18 (fun i -> int_of_float exact_pow10.(i))

(* [pow10_at.(x + 6)] is the least double >= 10^x, for x in [-6, 15]:
   [a >= pow10_at.(x + 6)] decides [a >= 10^x] exactly. *)
let pow10_at =
  Array.init 22 (fun i ->
      let x = i - 6 in
      if x >= 0 then exact_pow10.(x)
      else
        let d = float_of_string ("1e" ^ string_of_int x) in
        (* d is 10^x rounded to nearest; d·10^-x - 1 keeps its sign. *)
        if Float.fma d exact_pow10.(-x) (-1.0) < 0.0 then Float.succ d else d)

(* floor(log10 a), exactly, for [a] in the decimal range. With 2^e <= a
   < 2^(e+1), floor(e·log10 2) (78913/2^18 is log10 2 to 6 digits) is
   floor(log10 a) or one below it. *)
let[@inline] decimal_exponent a =
  let e = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float a) 52) - 1023 in
  let x = ref ((e * 78913) asr 18) in
  if !x < -6 then x := -6;
  while a < pow10_at.(!x + 6) do
    decr x
  done;
  while a >= pow10_at.(!x + 7) do
    incr x
  done;
  !x

(* The integer nearest the exact product a·10^k, ties to even, for [a]
   in the decimal range and -3 <= k <= 22 (so the result is below
   10^17).

   k >= 0: 10^k is exact, so [hi + lo] with [lo = fma a 10^k (-hi)] is
   the exact product and |lo| <= ulp(hi)/2. When [hi] has a fraction
   (ulp(hi) <= 1/2), [hi - floor hi - 1/2] is exact and a multiple of
   ulp(hi), so its sign decides unless it is 0, where [lo]'s sign does.
   When [hi] is integral, [lo - round lo] is exact (Sterbenz), and a
   tie shows as a distance of exactly 1/2.

   k < 0 (a >= 10^11): [a = i + f] with [i] an integer below 2^50 and
   [f] its fraction; [i mod 10^-k + f] is exact (26 bits at most). *)
let[@inline] scaled_round a k =
  if k >= 0 then begin
    let p = Array.unsafe_get exact_pow10 k in
    let hi = a *. p in
    let lo = Float.fma a p (-.hi) in
    let h = Float.floor hi in
    let m = int_of_float h in
    if h <> hi then begin
      let d = hi -. h -. 0.5 in
      if d > 0.0 || (d = 0.0 && lo > 0.0) then m + 1
      else if d < 0.0 || lo < 0.0 then m
      else m + (m land 1)
    end
    else
      let r = Float.round lo in
      let m = m + int_of_float r in
      if Float.abs (lo -. r) = 0.5 && m land 1 = 1 then
        if lo > 0.0 then m - 1 else m + 1
      else m
  end
  else
    let i = Float.floor a in
    let q = int_pow10.(-k) in
    let i' = int_of_float i in
    let m = i' / q in
    let t = float_of_int (i' mod q) +. (a -. i) and half = 0.5 *. float_of_int q in
    if t > half then m + 1 else if t < half then m else m + (m land 1)

(* "00" "01" ... "99" *)
let digit_pairs =
  String.init 200 (fun i ->
      Char.chr (Char.code '0' + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* [n] digits of [v], zero-padded, at [o]; two at a time. *)
let put_digits b o v n =
  let v = ref v and i = ref (o + n - 1) in
  while !i > o do
    let q = !v / 100 in
    let r = 2 * (!v - (q * 100)) in
    Bytes.unsafe_set b !i (String.unsafe_get digit_pairs (r + 1));
    Bytes.unsafe_set b (!i - 1) (String.unsafe_get digit_pairs r);
    v := q;
    i := !i - 2
  done;
  if !i = o then Bytes.unsafe_set b o (Char.unsafe_chr (Char.code '0' + (!v mod 10)))

(* The ["%.<p>g"] layout of m·10^(x-p+1), m having [p] digits (or being
   10^p, which rounding carried over): trailing zeros stripped, an
   exponent of at least two digits when x < -4 or x >= p. Writes at
   [o]; returns the end. *)
let layout b o m p x =
  let carry = m = int_pow10.(p) in
  let m = if carry then int_pow10.(p - 1) else m and x = if carry then x + 1 else x in
  let m = ref m and d = ref p in
  while !d > 1 && !m mod 10 = 0 do
    m := !m / 10;
    decr d
  done;
  let m = !m and d = !d in
  if x < -4 || x >= p then begin
    put_digits b o (m / int_pow10.(d - 1)) 1;
    let o =
      if d = 1 then o + 1
      else begin
        Bytes.unsafe_set b (o + 1) '.';
        put_digits b (o + 2) (m mod int_pow10.(d - 1)) (d - 1);
        o + d + 1
      end
    in
    Bytes.unsafe_set b o 'e';
    Bytes.unsafe_set b (o + 1) (if x < 0 then '-' else '+');
    put_digits b (o + 2) (abs x) 2;
    o + 4
  end
  else if x < 0 then begin
    Bytes.unsafe_set b o '0';
    Bytes.unsafe_set b (o + 1) '.';
    Bytes.unsafe_fill b (o + 2) (-x - 1) '0';
    put_digits b (o + 1 - x) m d;
    o + 1 - x + d
  end
  else if d <= x + 1 then begin
    put_digits b o m d;
    Bytes.unsafe_fill b (o + d) (x + 1 - d) '0';
    o + x + 1
  end
  else begin
    let fd = d - x - 1 in
    put_digits b o (m / int_pow10.(fd)) (x + 1);
    Bytes.unsafe_set b (o + x + 1) '.';
    put_digits b (o + x + 2) (m mod int_pow10.(fd)) fd;
    o + d + 1
  end

(* A number needs at most this many bytes in [10^-6, 10^15). *)
let max_decimal_len = 24

(* [f] as ["%.12g"] when that reads back as [f], else as ["%.17g"]
   (printf's digits: the exact value rounded, ties to even), written
   at the start of [b]; its length, or -1 when |f| is outside
   [10^-6, 10^15) and only printf's formatter is proven to print it.
   The 12 digits are M·10^-k with M the exact a·10^k rounded; they
   read back as [f] iff M /. 10^k does, one correctly rounded
   operation on exact doubles, as strtod rounds the decimal. *)
let format_decimal b f =
  let a = Float.abs f in
  if not (a >= Array.unsafe_get pow10_at 0 && a < 1e15) then -1
  else begin
    let o = if f < 0.0 then (Bytes.unsafe_set b 0 '-'; 1) else 0 in
    let x = decimal_exponent a in
    let k = 11 - x in
    let m = scaled_round a k in
    let back =
      if k >= 0 then float_of_int m /. exact_pow10.(k)
      else float_of_int m *. exact_pow10.(-k)
    in
    if back = a then layout b o m 12 x else layout b o (scaled_round a (16 - x)) 17 x
  end

(* For finite [a > 0] outside the decimal range: false only when
   ["%.12g"] cannot round-trip, so the formatter may skip trying it.
   Scale [a] to x = a·10^k in [1e11, 1e12). If the 12-digit decimal
   M·10^-k that ["%.12g"] prints reads back as [a], then M and the
   computed x are each within 2^-53·x < 1.2e-4 of the exact a·10^k, so
   M = round x; and M·10^-k reads back as x rescaled, one correctly
   rounded operation on exact doubles, as strtod rounds it. *)
let twelve_digits_may_round_trip a =
  let k0 = 11 - int_of_float (Float.floor (Float.log10 a)) in
  if k0 < -21 || k0 > 21 then true
  else
    let scale k m = if k >= 0 then m *. exact_pow10.(k) else m /. exact_pow10.(-k) in
    let x = scale k0 a in
    (* log10 may land one off next to a power of ten. *)
    let k = if x < 1e11 then k0 + 1 else if x >= 1e12 then k0 - 1 else k0 in
    scale (-k) (Float.round (scale k a)) = a

let format_outside_range f =
  if twelve_digits_may_round_trip (Float.abs f) then
    let s = format_float "%.12g" f in
    if float_of_string s = f then s else format_float "%.17g" f
  else format_float "%.17g" f

let hex = "0123456789abcdef"

let write_string buf s =
  Buffer.add_char buf '"';
  (* Copy runs of plain bytes in one blit; escape the rest. *)
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 15]
    end
  done;
  Buffer.add_substring buf s !run (String.length s - !run);
  Buffer.add_char buf '"'

(* Per-domain scratch for a number's digits, copied into the buffer
   in one blit: writing a number allocates nothing. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create max_decimal_len)

let write_int buf i =
  if i >= 0 && i < 10 then Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + i))
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    (* Digits right to left, then the sign. *)
    let b = Domain.DLS.get scratch in
    let v = ref (abs i) and o = ref max_decimal_len in
    while !v > 0 do
      decr o;
      Bytes.unsafe_set b !o (Char.unsafe_chr (Char.code '0' + (!v mod 10)));
      v := !v / 10
    done;
    if i < 0 then begin
      decr o;
      Bytes.unsafe_set b !o '-'
    end;
    Buffer.add_subbytes buf b !o (max_decimal_len - !o)
  end

let write_float buf f =
  if not (Float.is_finite f) then
    invalid_arg "Jsonw: non-finite numbers are not valid JSON";
  (* Integral values below 10^15 print as "%.0f" does: as the integer,
     "-0" for negative zero. *)
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0.0 && Float.sign_bit f then Buffer.add_string buf "-0"
    else write_int buf (int_of_float f)
  else
    let b = Domain.DLS.get scratch in
    let n = format_decimal b f in
    if n >= 0 then Buffer.add_subbytes buf b 0 n
    else Buffer.add_string buf (format_outside_range f)

let float_to_string f =
  let buf = Buffer.create max_decimal_len in
  write_float buf f;
  Buffer.contents buf

let write_field buf k =
  write_string buf k;
  Buffer.add_char buf ':'

let write_to ~pretty buf v =
  let indent n =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * n) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> write_int buf i
    | Float f -> write_float buf f
    | String s -> write_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            go (depth + 1) item)
          items;
        indent depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj members ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            write_field buf k;
            if pretty then Buffer.add_char buf ' ';
            go (depth + 1) item)
          members;
        indent depth;
        Buffer.add_char buf '}'
  in
  go 0 v

let to_string ?(pretty = false) v =
  let buf = Buffer.create 4096 in
  write_to ~pretty buf v;
  Buffer.contents buf

let to_channel ?(pretty = false) oc v =
  let buf = Buffer.create 65536 in
  write_to ~pretty buf v;
  Buffer.output_buffer oc buf

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

exception Parse_error of int * string

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let rec matches_at s i word j =
  j = String.length word
  || (String.unsafe_get s (i + j) = String.unsafe_get word j
     && matches_at s i word (j + 1))

(* More digits than this may overflow the in-place accumulator. *)
let max_int_digits = 18

(* The tree the parser returns is what the GC has to promote, so values
   that repeat are shared rather than allocated again: small integers
   (pids, tids, block ids) always, and through per-parse caches keyed
   by source text, short strings (keys, phases, op and track names) and
   whole members with a plain key and a number or plain string value
   (["ph":"X"], ["pid":1], ["kind":"lane"]). A member found in the
   cache is not converted again: a repeated float skips
   [float_of_string]. *)
let small_ints = Array.init 1024 (fun i -> Int i)
let max_shared_len = 32

(* Slot [i] holds the last value whose source text hashed to [i], with
   the offset and length of that text, so a hit is a byte comparison
   within the document. *)
type 'a texts = { at : int array; len : int array; vals : 'a array }

let texts slots dummy =
  { at = Array.make slots (-1); len = Array.make slots 0; vals = Array.make slots dummy }

let rec same_text s i j len =
  len = 0
  || (String.unsafe_get s i = String.unsafe_get s j && same_text s (i + 1) (j + 1) (len - 1))

(* The slot holding the text [start, start + len) of [s], or [lnot] of
   the slot it belongs in. *)
let find tc s start len =
  let h = ref len in
  for i = start to start + len - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  let slot = !h land (Array.length tc.at - 1) in
  let at = Array.unsafe_get tc.at slot in
  if at >= 0 && Array.unsafe_get tc.len slot = len && same_text s at start len then slot
  else lnot slot

let store tc slot start len v =
  Array.unsafe_set tc.at slot start;
  Array.unsafe_set tc.len slot len;
  Array.unsafe_set tc.vals slot v

(* The parser's state: top-level functions over one record rather than
   closures over a [pos] ref, which the compiler would not inline. *)
type cursor = {
  s : string;
  n : int;
  mutable pos : int;
  strings : t texts;
  members : (string * t) texts;
}

let fail c msg = raise (Parse_error (c.pos, msg))

(* The byte at [pos], or NUL past the end. NUL is invalid outside
   strings, so it can stand for "end of input" wherever the caller only
   dispatches on the byte; strings test [pos] themselves. *)
let peek c = if c.pos < c.n then String.unsafe_get c.s c.pos else '\000'
let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let s = c.s and n = c.n in
  let p = ref c.pos in
  while
    !p < n
    && match String.unsafe_get s !p with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    incr p
  done;
  c.pos <- !p

let expect c ch =
  if peek c = ch then advance c else fail c (Printf.sprintf "expected %c" ch)

let literal c word v =
  if c.pos + String.length word <= c.n && matches_at c.s c.pos word 0 then begin
    c.pos <- c.pos + String.length word;
    v
  end
  else fail c ("expected " ^ word)

let hex4 c =
  if c.pos + 4 > c.n then fail c "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let d = hex_digit (String.unsafe_get c.s (c.pos + i)) in
    if d < 0 then fail c "bad \\u escape";
    v := (!v lsl 4) lor d
  done;
  c.pos <- c.pos + 4;
  !v

(* Advance over bytes a string holds verbatim. *)
let skip_plain c =
  let s = c.s and n = c.n in
  let p = ref c.pos in
  while
    !p < n
    &&
    let ch = String.unsafe_get s !p in
    ch <> '"' && ch <> '\\' && Char.code ch >= 0x20
  do
    incr p
  done;
  c.pos <- !p

let parse_escape c buf =
  if c.pos >= c.n then fail c "unterminated escape";
  let ch = String.unsafe_get c.s c.pos in
  advance c;
  match ch with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'u' ->
      let cp = hex4 c in
      let cp =
        (* High surrogate: consume the paired low surrogate. *)
        if cp >= 0xD800 && cp <= 0xDBFF then begin
          if c.pos + 2 <= c.n && c.s.[c.pos] = '\\' && c.s.[c.pos + 1] = 'u'
          then begin
            c.pos <- c.pos + 2;
            let lo = hex4 c in
            if lo < 0xDC00 || lo > 0xDFFF then fail c "invalid low surrogate";
            0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
          end
          else fail c "lone high surrogate"
        end
        else if cp >= 0xDC00 && cp <= 0xDFFF then fail c "lone low surrogate"
        else cp
      in
      Buffer.add_utf_8_uchar buf (Uchar.of_int cp)
  | _ -> fail c "bad escape"

let shared c start len =
  if len = 0 || len > max_shared_len then String (String.sub c.s start len)
  else
    let i = find c.strings c.s start len in
    if i >= 0 then Array.unsafe_get c.strings.vals i
    else begin
      let v = String (String.sub c.s start len) in
      store c.strings (lnot i) start len v;
      v
    end

(* The rest of a string after its first escape, into [buf]. *)
let rec escaped_rest c buf =
  if c.pos >= c.n then fail c "unterminated string";
  match String.unsafe_get c.s c.pos with
  | '"' -> advance c
  | '\\' ->
      advance c;
      parse_escape c buf;
      let run = c.pos in
      skip_plain c;
      Buffer.add_substring buf c.s run (c.pos - run);
      escaped_rest c buf
  | _ -> fail c "control character in string"

(* A string value; plain ones end in [shared], escaped ones in a
   buffer. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  skip_plain c;
  if peek c = '"' then begin
    advance c;
    shared c start (c.pos - 1 - start)
  end
  else begin
    (* Escapes: only now does the string need a buffer. *)
    let buf = Buffer.create (2 * (c.pos - start) + 16) in
    Buffer.add_substring buf c.s start (c.pos - start);
    escaped_rest c buf;
    String (Buffer.contents buf)
  end

let parse_key c = match parse_string c with String k -> k | _ -> assert false

let digits c =
  let d0 = c.pos in
  let s = c.s and n = c.n in
  let p = ref d0 in
  while !p < n && match String.unsafe_get s !p with '0' .. '9' -> true | _ -> false do
    incr p
  done;
  c.pos <- !p;
  if !p = d0 then fail c "expected digit"

(* Advances over a number; true when it has a fraction or an
   exponent. *)
let scan_number c =
  if peek c = '-' then advance c;
  let d0 = c.pos in
  digits c;
  if c.pos - d0 > 1 && c.s.[d0] = '0' then begin
    c.pos <- d0;
    fail c "leading zero in number"
  end;
  let is_float = ref false in
  if peek c = '.' then begin
    is_float := true;
    advance c;
    digits c
  end;
  (match peek c with
  | 'e' | 'E' ->
      is_float := true;
      advance c;
      (match peek c with '+' | '-' -> advance c | _ -> ());
      digits c
  | _ -> ());
  !is_float

(* The number scanned from [start] to [pos]. *)
let number_value c start is_float =
  let s = c.s in
  let len = c.pos - start in
  if is_float then Float (float_of_string (String.sub s start len))
  else
    let neg = String.unsafe_get s start = '-' in
    let d0 = if neg then start + 1 else start in
    if c.pos - d0 <= max_int_digits then begin
      let acc = ref 0 in
      for i = d0 to c.pos - 1 do
        acc := (10 * !acc) + (Char.code (String.unsafe_get s i) - Char.code '0')
      done;
      (* "-0" is the writer's spelling of negative zero. *)
      if neg && !acc = 0 then Float (-0.)
      else if neg then Int (- !acc)
      else if !acc < Array.length small_ints then small_ints.(!acc)
      else Int !acc
    end
    else
      let text = String.sub s start len in
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)

let parse_number c =
  let start = c.pos in
  let is_float = scan_number c in
  number_value c start is_float

(* At a string's opening quote: advances past the string and returns
   true if it has no escapes, else stays and returns false. *)
let plain_string c =
  let start = c.pos in
  peek c = '"'
  && begin
       advance c;
       skip_plain c;
       if peek c = '"' then begin
         advance c;
         true
       end
       else begin
         c.pos <- start;
         false
       end
     end

(* The plain key whose quotes span [kstart, kend). *)
let key c kstart kend =
  match shared c (kstart + 1) (kend - kstart - 2) with String k -> k | _ -> assert false

(* Member [m], which slot [lnot i] will hold: its text is [kstart, pos). *)
let remember c i kstart m =
  store c.members (lnot i) kstart (c.pos - kstart) m;
  m

let rec parse_value c depth =
  if depth > 256 then fail c "nesting too deep";
  skip_ws c;
  match peek c with
  | '{' ->
      advance c;
      skip_ws c;
      if peek c = '}' then begin
        advance c;
        Obj []
      end
      else Obj (members c depth)
  | '[' ->
      advance c;
      skip_ws c;
      if peek c = ']' then begin
        advance c;
        List []
      end
      else List (items c depth)
  | '"' -> parse_string c
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | _ when c.pos >= c.n -> fail c "unexpected end of input"
  | ch -> fail c (Printf.sprintf "unexpected character %C" ch)

(* The members of an object after its [{], through its [}]. *)
and[@tail_mod_cons] members c depth =
  skip_ws c;
  let m = member c depth in
  skip_ws c;
  match peek c with
  | ',' ->
      advance c;
      m :: members c depth
  | '}' ->
      advance c;
      [ m ]
  | _ -> raise (Parse_error (c.pos, "expected , or }"))

(* A member with a plain key and a number or plain string value is
   looked up by its text before its key and value are built. *)
and member c depth =
  let kstart = c.pos in
  if not (plain_string c) then begin
    let k = parse_key c in
    skip_ws c;
    expect c ':';
    (k, parse_value c (depth + 1))
  end
  else
    let kend = c.pos in
    skip_ws c;
    expect c ':';
    if depth >= 256 then fail c "nesting too deep";
    skip_ws c;
    let vstart = c.pos in
    match peek c with
    | '-' | '0' .. '9' ->
        let is_float = scan_number c in
        let i = find c.members c.s kstart (c.pos - kstart) in
        if i >= 0 then Array.unsafe_get c.members.vals i
        else remember c i kstart (key c kstart kend, number_value c vstart is_float)
    | '"' when plain_string c ->
        let i = find c.members c.s kstart (c.pos - kstart) in
        if i >= 0 then Array.unsafe_get c.members.vals i
        else
          remember c i kstart
            (key c kstart kend, shared c (vstart + 1) (c.pos - vstart - 2))
    | _ -> (key c kstart kend, parse_value c (depth + 1))

(* The items of a non-empty array after its [\[], through its [\]]. *)
and[@tail_mod_cons] items c depth =
  let v = parse_value c (depth + 1) in
  skip_ws c;
  match peek c with
  | ',' ->
      advance c;
      v :: items c depth
  | ']' ->
      advance c;
      [ v ]
  | _ -> raise (Parse_error (c.pos, "expected , or ]"))

let parse s =
  let c =
    {
      s;
      n = String.length s;
      pos = 0;
      strings = texts 256 Null;
      members = texts 4096 ("", Null);
    }
  in
  match
    let v = parse_value c 0 in
    skip_ws c;
    if c.pos <> c.n then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member k = function
  | Obj m ->
      let rec find = function
        | [] -> None
        | (k', v) :: rest -> if String.equal k k' then Some v else find rest
      in
      find m
  | _ -> None

let to_list_opt = function List l -> Some l | _ -> None
let string_opt = function String s -> Some s | _ -> None

let number_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None
