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
   a fraction of the cost. *)
external format_float : string -> float -> string = "caml_format_float"

(* 10^i for every i whose power is an exact double. *)
let exact_pow10 =
  let p = Array.make 23 1.0 in
  for i = 1 to 22 do
    p.(i) <- p.(i - 1) *. 10.0
  done;
  p

(* For finite [a > 0]: false only when ["%.12g"] cannot round-trip,
   so the formatter may skip trying it. Scale [a] to x = a·10^k in
   [1e11, 1e12). If the 12-digit decimal M·10^-k that ["%.12g"] prints
   reads back as [a], then M and the computed x are each within
   2^-53·x < 1.2e-4 of the exact a·10^k, so M = round x; and M·10^-k
   reads back as x rescaled, one correctly rounded operation on exact
   doubles, as strtod rounds it. *)
let twelve_digits_may_round_trip a =
  let k0 = 11 - int_of_float (Float.floor (Float.log10 a)) in
  if k0 < -21 || k0 > 21 then true
  else
    let scale k m = if k >= 0 then m *. exact_pow10.(k) else m /. exact_pow10.(-k) in
    let x = scale k0 a in
    (* log10 may land one off next to a power of ten. *)
    let k = if x < 1e11 then k0 + 1 else if x >= 1e12 then k0 - 1 else k0 in
    scale (-k) (Float.round (scale k a)) = a

let float_to_string f =
  if not (Float.is_finite f) then
    invalid_arg "Jsonw: non-finite numbers are not valid JSON";
  if Float.is_integer f && Float.abs f < 1e15 then format_float "%.0f" f
  else if twelve_digits_may_round_trip (Float.abs f) then
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

let rec write_digits buf i =
  if i >= 10 then write_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (i mod 10)))

let write_int buf i =
  if i >= 0 then write_digits buf i else Buffer.add_string buf (string_of_int i)

let write_float buf f = Buffer.add_string buf (float_to_string f)

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
   (pids, tids, block ids) always, short strings (keys, phases, op and
   track names) through a per-parse cache of the last string seen in
   each slot. *)
let small_ints = Array.init 1024 (fun i -> Int i)
let string_slots = 256
let max_shared_len = 32

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  (* The byte at [pos], or NUL past the end. NUL is invalid outside
     strings, so it can stand for "end of input" wherever the caller
     only dispatches on the byte; strings test [pos] themselves. *)
  let peek () = if !pos < n then String.unsafe_get s !pos else '\000' in
  let skip_ws () =
    while
      !pos < n
      && match String.unsafe_get s !pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && matches_at s !pos word 0 then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for i = 0 to 3 do
      let d = hex_digit (String.unsafe_get s (!pos + i)) in
      if d < 0 then fail "bad \\u escape";
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  (* Advance over bytes a string holds verbatim. *)
  let skip_plain () =
    while
      !pos < n
      &&
      let c = String.unsafe_get s !pos in
      c <> '"' && c <> '\\' && Char.code c >= 0x20
    do
      incr pos
    done
  in
  let parse_escape buf =
    if !pos >= n then fail "unterminated escape";
    let c = String.unsafe_get s !pos in
    incr pos;
    match c with
    | '"' -> Buffer.add_char buf '"'
    | '\\' -> Buffer.add_char buf '\\'
    | '/' -> Buffer.add_char buf '/'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'n' -> Buffer.add_char buf '\n'
    | 'r' -> Buffer.add_char buf '\r'
    | 't' -> Buffer.add_char buf '\t'
    | 'u' ->
        let cp = hex4 () in
        let cp =
          (* High surrogate: consume the paired low surrogate. *)
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
              pos := !pos + 2;
              let lo = hex4 () in
              if lo < 0xDC00 || lo > 0xDFFF then fail "invalid low surrogate";
              0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else fail "lone high surrogate"
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then fail "lone low surrogate"
          else cp
        in
        Buffer.add_utf_8_uchar buf (Uchar.of_int cp)
    | _ -> fail "bad escape"
  in
  let strings = Array.make string_slots Null in
  let shared start len =
    if len = 0 || len > max_shared_len then String (String.sub s start len)
    else
      let slot =
        ((len * 31) + (Char.code s.[start] * 7) + Char.code s.[start + len - 1])
        land (string_slots - 1)
      in
      match strings.(slot) with
      | String c as v when String.length c = len && matches_at s start c 0 -> v
      | _ ->
          let v = String (String.sub s start len) in
          strings.(slot) <- v;
          v
  in
  (* A string value; plain ones end in [shared], escaped ones in a
     buffer. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    skip_plain ();
    if peek () = '"' then begin
      incr pos;
      shared start (!pos - 1 - start)
    end
    else begin
      (* Escapes: only now does the string need a buffer. *)
      let buf = Buffer.create (2 * (!pos - start) + 16) in
      Buffer.add_substring buf s start (!pos - start);
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match String.unsafe_get s !pos with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            parse_escape buf;
            let run = !pos in
            skip_plain ();
            Buffer.add_substring buf s run (!pos - run);
            go ()
        | _ -> fail "control character in string"
      in
      go ();
      String (Buffer.contents buf)
    end
  in
  let parse_key () =
    match parse_string () with String k -> k | _ -> assert false
  in
  let digits () =
    let d0 = !pos in
    while
      !pos < n && match String.unsafe_get s !pos with '0' .. '9' -> true | _ -> false
    do
      incr pos
    done;
    if !pos = d0 then fail "expected digit"
  in
  let parse_number () =
    let start = !pos in
    let neg = peek () = '-' in
    if neg then incr pos;
    let d0 = !pos in
    let acc = ref 0 in
    while
      !pos < n && match String.unsafe_get s !pos with '0' .. '9' -> true | _ -> false
    do
      acc := (10 * !acc) + (Char.code (String.unsafe_get s !pos) - Char.code '0');
      incr pos
    done;
    let len = !pos - d0 in
    if len = 0 then fail "expected digit";
    if len > 1 && s.[d0] = '0' then begin
      pos := d0;
      fail "leading zero in number"
    end;
    let is_float = ref false in
    if peek () = '.' then begin
      is_float := true;
      incr pos;
      digits ()
    end;
    (match peek () with
    | 'e' | 'E' ->
        is_float := true;
        incr pos;
        (match peek () with '+' | '-' -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    let text () = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string (text ()))
    else if len <= max_int_digits then
      (* "-0" is the writer's spelling of negative zero. *)
      if neg && !acc = 0 then Float (-0.)
      else if neg then Int (- !acc)
      else if !acc < Array.length small_ints then small_ints.(!acc)
      else Int !acc
    else
      match int_of_string_opt (text ()) with
      | Some i -> Int i
      | None -> Float (float_of_string (text ()))
  in
  let rec parse_value depth =
    if depth > 256 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let members = ref [] in
          let rec member () =
            skip_ws ();
            let k = parse_key () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            members := (k, v) :: !members;
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                member ()
            | '}' -> incr pos
            | _ -> fail "expected , or }"
          in
          member ();
          Obj (List.rev !members)
        end
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [] in
          let rec item () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                item ()
            | ']' -> incr pos
            | _ -> fail "expected , or ]"
          in
          item ();
          List (List.rev !items)
        end
    | '"' -> parse_string ()
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | _ when !pos >= n -> fail "unexpected end of input"
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
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
