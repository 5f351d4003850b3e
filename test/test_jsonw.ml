(* Jsonw tests.

   - The float formatter equals its Printf definition (the oracle
     below) on random bit patterns, trace-style timestamps and edge
     cases, and on the values where its integer path could go wrong:
     rounding ties, powers of ten, the ends of its range; every output
     reads back as the same number.
   - Writer and parser round-trip random trees with escapes, control
     characters and astral code points, and [\u] escapes with
     surrogate pairs decode to the same strings.
   - RFC 8259 edges: exactly four hex digits per [\u] escape, no
     leading zeros, "-0" reads back as negative zero.
   - Parser errors: the exact message and byte offset for each kind of
     malformed input; a flat array of a million items parses in a
     small stack.
   - Mutation fuzz of an exported Chrome trace: every reader of trace
     JSON returns [Ok] or [Error] and never raises. *)

module J = Obs.Jsonw

(* ------------------------------------------------------------------ *)
(* Formatter equivalence                                               *)

(* The formatter's definition through Printf. *)
let reference_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let two53 = 9007199254740992.0

let edge_floats =
  [
    0.0; -0.0; 5e-324; -5e-324; 2.2250738585072009e-308; Float.min_float;
    Float.max_float; -.Float.max_float; Float.epsilon; 1e15; -1e15;
    Float.pred 1e15; Float.succ 1e15; 999999999999999.5; 1e15 +. 2.0;
    two53; Float.pred two53; Float.succ two53; -.two53; 0.1; 0.1 +. 0.2;
    1.0 /. 3.0; Float.pi; Float.succ 1.0; Float.pred 1.0; 123456.789;
    1e-7; 1e300; 4503599627370495.5; 0.5; 2.5;
    (* A cycle count in microseconds at 1.8 GHz, as the trace prints. *)
    12345.0 /. 1.8e9 *. 1e6;
  ]

(* Powers of two and of ten with their neighbours: where the digit
   count and the rounding interval change. *)
let powers =
  List.concat_map
    (fun f -> [ Float.pred f; f; Float.succ f; -.f ])
    (List.init 2098 (fun k -> Float.ldexp 1.0 (k - 1074))
    @ List.init 601 (fun k -> float_of_string (Printf.sprintf "1e%d" (k - 300))))

let test_edge_floats () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) (reference_float f) (J.float_to_string f))
    (edge_floats @ List.filter Float.is_finite powers)

(* Where the integer path of the formatter decides something. *)
let integer_path_floats =
  let around f = [ Float.pred f; f; Float.succ f ] in
  (* Exact decimals of 13 and 18 significant digits ending in 5: ties
     at the 12th and the 17th digit. x = n / 2^j with n odd has j
     digits after the point, the last a 5. *)
  let ties digits =
    List.concat_map
      (fun x ->
        let j = digits - 1 - x in
        List.map
          (fun n -> Float.ldexp (float_of_int n) (-j))
          [
            (int_of_float (10.0 ** float_of_int x) lsl j) + 1;
            (int_of_float (10.0 ** float_of_int x) lsl j) + 12345;
            (int_of_float (3.0 *. (10.0 ** float_of_int x)) lsl j) + 98765;
            (int_of_float (10.0 ** float_of_int (x + 1)) lsl j) - 1;
          ])
      (List.init (digits - 4) Fun.id)
  in
  let powers_of_ten =
    List.concat_map
      (fun k -> around (float_of_string (Printf.sprintf "1e%d" k)))
      (List.init 25 (fun k -> k - 8))
  in
  let range_ends = around 1e-6 @ around 1e15 @ around 1e-5 @ around 1e11 @ around 1e12 in
  let trace_shaped =
    List.init 2000 (fun k -> float_of_int (k * 7919) /. 1800.0)
    @ List.init 2000 (fun k -> float_of_int (k * 104729) /. 1.8e9 *. 1e6)
  in
  let subnormals = [ 5e-324; 1e-310; 2.2250738585072009e-308; Float.min_float ] in
  let base =
    ties 13 @ ties 18 @ powers_of_ten @ range_ends @ trace_shaped @ subnormals
    @ [ 0.0; 0.5; 2.5; 999999999999.5; 99999999999.95; 9.9999999999995e-5 ]
  in
  base @ List.map Float.neg base

let test_integer_path () =
  List.iter
    (fun f ->
      let want = reference_float f in
      Alcotest.(check string) (Printf.sprintf "%h" f) want (J.float_to_string f);
      let b = Buffer.create 32 in
      J.write_float b f;
      Alcotest.(check string) (Printf.sprintf "write_float %h" f) want (Buffer.contents b))
    integer_path_floats;
  Alcotest.(check string) "negative zero" "-0" (J.float_to_string (-0.0))

let test_non_finite () =
  List.iter
    (fun f ->
      match J.float_to_string f with
      | s -> Alcotest.failf "%h printed as %s" f s
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let is_neg_zero f = f = 0.0 && Float.sign_bit f

(* [s] reads back as [f], with the sign of zero. *)
let reads_back f s =
  match J.parse s with
  | Ok (J.Float g) -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
  | Ok (J.Int i) -> float_of_int i = f && not (is_neg_zero f)
  | _ -> false

let formatter_matches f =
  QCheck.assume (Float.is_finite f);
  let s = J.float_to_string f in
  s = reference_float f && reads_back f s

let prop_formatter_bits =
  QCheck.Test.make ~name:"float_to_string = Printf definition, random bit patterns"
    ~count:20000 QCheck.int64 (fun b -> formatter_matches (Int64.float_of_bits b))

let prop_formatter_ts =
  QCheck.Test.make ~name:"float_to_string = Printf definition, trace timestamps"
    ~count:20000
    QCheck.(int_bound 1_000_000_000)
    (fun cycles -> formatter_matches (float_of_int cycles /. 1.8e9 *. 1e6))

(* Decimals of at most 12 significant digits (which "%.12g" prints
   exactly) and the doubles next to them (which need "%.17g"). *)
let prop_formatter_decimals =
  QCheck.Test.make
    ~name:"float_to_string = Printf definition, 12-digit decimals and neighbours"
    ~count:20000
    QCheck.(triple (int_range 1 999_999_999_999) (int_range (-40) 40) (int_range (-1) 1))
    (fun (m, e, step) ->
      let f = float_of_string (Printf.sprintf "%de%d" m e) in
      formatter_matches
        (if step < 0 then Float.pred f else if step > 0 then Float.succ f else f))

let test_edge_floats_read_back () =
  List.iter
    (fun f ->
      if not (reads_back f (J.float_to_string f)) then
        Alcotest.failf "%h does not read back" f)
    edge_floats

(* ------------------------------------------------------------------ *)
(* Round trip                                                          *)

let gen_uchar =
  QCheck.Gen.(
    map Uchar.of_int
      (frequency
         [
           (6, int_range 0x20 0x7e);
           (2, int_range 0 0x1f);
           (2, oneofl [ 0x22; 0x5c; 0x2f; 0x7f ]);
           (1, int_range 0x80 0xd7ff);
           (1, int_range 0xe000 0xfffd);
           (1, int_range 0x10000 0x10ffff);
         ]))

let utf8 us =
  let b = Buffer.create 16 in
  List.iter (Buffer.add_utf_8_uchar b) us;
  Buffer.contents b

let gen_uchars = QCheck.Gen.(list_size (int_bound 12) gen_uchar)
let gen_string = QCheck.Gen.map utf8 gen_uchars

let gen_float =
  QCheck.Gen.(
    map
      (fun b ->
        let f = Int64.float_of_bits b in
        if Float.is_finite f then f else 0.5)
      int64)

let gen_tree =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return J.Null);
                 (1, map (fun b -> J.Bool b) bool);
                 (2, map (fun i -> J.Int i) int);
                 (2, map (fun f -> J.Float f) gen_float);
                 (1, map (fun f -> J.Float f) (oneofl edge_floats));
                 (2, map (fun s -> J.String s) gen_string);
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> J.List l) (list_size (int_bound 5) (self (n / 3))));
                 ( 1,
                   map
                     (fun l -> J.Obj l)
                     (list_size (int_bound 5) (pair gen_string (self (n / 3)))) );
               ]))

let arb_tree = QCheck.make ~print:(fun v -> J.to_string v) gen_tree

(* Equal up to the writer printing integral floats as integers; float
   leaves compare bitwise, so a lost sign of zero shows. *)
let rec equiv a b =
  match (a, b) with
  | J.Float x, J.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | J.Float x, J.Int i -> float_of_int i = x && not (is_neg_zero x)
  | J.List l, J.List m -> List.length l = List.length m && List.for_all2 equiv l m
  | J.Obj l, J.Obj m ->
      List.length l = List.length m
      && List.for_all2 (fun (k, x) (k', y) -> k = k' && equiv x y) l m
  | a, b -> a = b

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (to_string v) = v, compact and pretty" ~count:2000 arb_tree
    (fun v ->
      let s = J.to_string v in
      match (J.parse s, J.parse (J.to_string ~pretty:true v)) with
      | Ok a, Ok b -> equiv v a && equiv v b && J.to_string a = s
      | Error e, _ | _, Error e -> QCheck.Test.fail_reportf "%s on %s" e s)

(* The same string written with every non-printable-ASCII code point as
   a \u escape, astral ones as surrogate pairs. *)
let escaped us =
  let b = Buffer.create 32 in
  Buffer.add_char b '"';
  List.iteri
    (fun i u ->
      let cp = Uchar.to_int u in
      let esc c = Printf.bprintf b (if i land 1 = 0 then "\\u%04x" else "\\u%04X") c in
      if cp >= 0x10000 then begin
        esc (0xD800 + ((cp - 0x10000) lsr 10));
        esc (0xDC00 + ((cp - 0x10000) land 0x3ff))
      end
      else if cp < 0x20 || cp >= 0x7f || cp = 0x22 || cp = 0x5c then esc cp
      else Buffer.add_char b (Char.chr cp))
    us;
  Buffer.add_char b '"';
  Buffer.contents b

let prop_unicode_escapes =
  QCheck.Test.make ~name:"\\u escapes and surrogate pairs decode to UTF-8" ~count:2000
    (QCheck.make ~print:escaped gen_uchars)
    (fun us -> J.parse (escaped us) = Ok (J.String (utf8 us)))

(* ------------------------------------------------------------------ *)
(* RFC 8259 edges                                                      *)

let rejects what s =
  match J.parse s with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "%s: %S parsed as %s" what s (J.to_string v)

let test_hex4_exact () =
  List.iter (rejects "\\u needs four hex digits")
    [ {|"\u0_41"|}; {|"\u_041"|}; {|"\u-041"|}; {|"\u+041"|}; {|"\u 041"|}; {|"\u00g1"|}; {|"\u004"|} ];
  Alcotest.(check bool) "\\u0041 is A" true (J.parse {|"\u0041"|} = Ok (J.String "A"))

let test_leading_zero () =
  List.iter (rejects "leading zero") [ "01"; "00"; "00.5"; "-01"; "-00"; "[0,01]"; "{\"a\":007}" ];
  List.iter
    (fun (s, v) -> Alcotest.(check bool) s true (J.parse s = Ok v))
    [ ("0", J.Int 0); ("0.5", J.Float 0.5); ("-0.5", J.Float (-0.5)); ("0e1", J.Float 0.0); ("10", J.Int 10) ]

let test_negative_zero () =
  (match J.parse "-0" with
  | Ok (J.Float z) -> Alcotest.(check bool) "sign kept" true (z = 0.0 && Float.sign_bit z)
  | _ -> Alcotest.fail "-0 is not Float (-0.)");
  (* print -> parse -> print is a fixpoint, negative zero included. *)
  let doc =
    J.Obj
      [
        ("z", J.Float (-0.0)); ("p", J.Float 0.0); ("l", J.List [ J.Float (-0.0); J.Int 0 ]);
        ("big", J.Int max_int); ("small", J.Int min_int); ("s", J.String "\000\031\"\\/\127");
      ]
  in
  let s = J.to_string doc in
  Alcotest.(check string) "negative zero printed" "-0" (J.float_to_string (-0.0));
  match J.parse s with
  | Ok d -> Alcotest.(check string) "fixpoint" s (J.to_string d)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Parser errors                                                       *)

let nested n = String.concat "" (List.init n (fun _ -> {|{"a":|})) ^ "1" ^ String.make n '}'

(* Each malformed input with its exact error: message and byte offset. *)
let error_table =
  [
    ({|"\u12|}, "JSON parse error at byte 3: truncated \\u escape");
    ({|"\uD800"|}, "JSON parse error at byte 7: lone high surrogate");
    ({|"\uDC00"|}, "JSON parse error at byte 7: lone low surrogate");
    ({|"\uD800\u0041"|}, "JSON parse error at byte 13: invalid low surrogate");
    ({|["\uDBFF\uDBFF"]|}, "JSON parse error at byte 14: invalid low surrogate");
    ({|{"a\u00":1}|}, "JSON parse error at byte 5: bad \\u escape");
    ("01", "JSON parse error at byte 0: leading zero in number");
    ("-01", "JSON parse error at byte 1: leading zero in number");
    ({|{"a":01}|}, "JSON parse error at byte 5: leading zero in number");
    ("-", "JSON parse error at byte 1: expected digit");
    ({|{"a":-}|}, "JSON parse error at byte 6: expected digit");
    ("1e+", "JSON parse error at byte 3: expected digit");
    ("[1,2] x", "JSON parse error at byte 6: trailing garbage");
    ("{} {}", "JSON parse error at byte 3: trailing garbage");
    (String.make 300 '[', "JSON parse error at byte 257: nesting too deep");
    (nested 257, "JSON parse error at byte 1285: nesting too deep");
    ({|"abc|}, "JSON parse error at byte 4: unterminated string");
    ({|{"a":"x}|}, "JSON parse error at byte 8: unterminated string");
    ("\"a\001b\"", "JSON parse error at byte 2: control character in string");
    ("[1,]", "JSON parse error at byte 3: unexpected character ']'");
    ({|{"a" 1}|}, "JSON parse error at byte 5: expected :");
    ({|{"a":1,}|}, "JSON parse error at byte 7: expected \"");
    ({|{"a":1 "b":2}|}, "JSON parse error at byte 7: expected , or }");
    ("[1 2]", "JSON parse error at byte 3: expected , or ]");
    ({|{"a":1,"a":tru}|}, "JSON parse error at byte 11: expected true");
    ("", "JSON parse error at byte 0: unexpected end of input");
    ({|"\x"|}, "JSON parse error at byte 3: bad escape");
    ({|"ab\|}, "JSON parse error at byte 4: unterminated escape");
  ]

let test_error_table () =
  List.iter
    (fun (input, want) ->
      match J.parse input with
      | Error got -> Alcotest.(check string) (String.escaped input) want got
      | Ok v -> Alcotest.failf "%S parsed as %s" input (J.to_string v))
    error_table;
  (* One level less than the limit still parses. *)
  Alcotest.(check bool) "256 levels parse" true (Result.is_ok (J.parse (nested 256)))

(* Lists are built in constant stack: a million items parse with the
   stack limited to 256 KiB. *)
let test_flat_array () =
  let n = 1_000_000 in
  let items = String.concat "," (List.init n (fun i -> string_of_int (i land 7))) in
  let members =
    String.concat "," (List.init (n / 10) (fun i -> Printf.sprintf {|"k%d":%d|} i i))
  in
  let old = Gc.get () in
  Gc.set { old with Gc.stack_limit = 32768 };
  let arr, obj =
    Fun.protect
      ~finally:(fun () -> Gc.set old)
      (fun () -> (J.parse ("[" ^ items ^ "]"), J.parse ("{" ^ members ^ "}")))
  in
  (match arr with
  | Ok (J.List l) -> Alcotest.(check int) "items" n (List.length l)
  | Ok _ -> Alcotest.fail "not a list"
  | Error e -> Alcotest.fail e);
  match obj with
  | Ok (J.Obj l) ->
      Alcotest.(check int) "members" (n / 10) (List.length l);
      Alcotest.(check bool) "last member" true (List.nth l (n / 10 - 1) = ("k99999", J.Int 99999))
  | Ok _ -> Alcotest.fail "not an object"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Trace-JSON mutation fuzz                                            *)

let trace_text =
  lazy
    (Ops.Ops_registry.install ();
     let entry = Option.get (Scan.Op_registry.find "mcscan") in
     match Workload.Op_driver.run ~n:1024 entry with
     | Ok (_, Some tr) -> Obs.Chrome_trace.to_string tr
     | _ -> failwith "mcscan trace")

type mutation =
  | Flip of int * int  (** Byte at the position, xor the mask (1..255). *)
  | Set of int * char  (** A JSON-significant byte at the position. *)
  | Truncate of int
  | Dup_bytes of int * int * int  (** Copy [len] bytes from [src] to [dst]. *)
  | Dup_event of int  (** Repeat the k-th event of traceEvents. *)

let print_mutation = function
  | Flip (p, m) -> Printf.sprintf "Flip(%d,%d)" p m
  | Set (p, c) -> Printf.sprintf "Set(%d,%C)" p c
  | Truncate p -> Printf.sprintf "Truncate %d" p
  | Dup_bytes (s, l, d) -> Printf.sprintf "Dup_bytes(%d,%d,%d)" s l d
  | Dup_event k -> Printf.sprintf "Dup_event %d" k

(* Positions are taken modulo the text length when applied. *)
let gen_mutation =
  QCheck.Gen.(
    let pos = int_bound 1_000_000 in
    frequency
      [
        (3, map2 (fun p m -> Flip (p, m)) pos (int_range 1 255));
        (3, map2 (fun p c -> Set (p, c)) pos (oneofl (List.of_seq (String.to_seq "0123456789-.e\",:{}[] x"))));
        (1, map (fun p -> Truncate p) pos);
        (2, map3 (fun s l d -> Dup_bytes (s, l, d)) pos (int_range 1 200) pos);
        (3, map (fun k -> Dup_event k) (int_bound 10_000));
      ])

let event_marker = {|,{"name":|}

let event_starts s =
  let m = String.length event_marker in
  let rec go i acc =
    if i + m > String.length s then List.rev acc
    else if String.sub s i m = event_marker then go (i + m) (i :: acc)
    else go (i + 1) acc
  in
  Array.of_list (go 0 [])

let apply s = function
  | _ when s = "" -> s
  | Flip (p, m) ->
      let b = Bytes.of_string s and p = p mod String.length s in
      Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor m));
      Bytes.to_string b
  | Set (p, c) ->
      let b = Bytes.of_string s in
      Bytes.set b (p mod String.length s) c;
      Bytes.to_string b
  | Truncate p -> String.sub s 0 (p mod String.length s)
  | Dup_bytes (src, len, dst) ->
      let n = String.length s in
      let src = src mod n and dst = dst mod n in
      let len = min len (n - src) in
      String.sub s 0 dst ^ String.sub s src len ^ String.sub s dst (n - dst)
  | Dup_event k ->
      let starts = event_starts s in
      if Array.length starts < 2 then s
      else
        let i = k mod (Array.length starts - 1) in
        let a = starts.(i) and b = starts.(i + 1) in
        String.sub s 0 b ^ String.sub s a (b - a) ^ String.sub s b (String.length s - b)

let readers_total text =
  let guard what f =
    match f () with
    | _ -> ()
    | exception e -> QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)
  in
  match J.parse text with
  | exception e -> QCheck.Test.fail_reportf "Jsonw.parse raised %s" (Printexc.to_string e)
  | Error _ -> true
  | Ok doc ->
      guard "Chrome_trace.validate" (fun () -> Obs.Chrome_trace.validate doc);
      guard "Critical_path.of_json" (fun () -> Obs.Critical_path.of_json doc);
      true

let prop_trace_fuzz =
  QCheck.Test.make ~name:"mutated trace JSON: readers return Ok or Error" ~count:1000
    (QCheck.make
       ~print:(fun ms -> String.concat "; " (List.map print_mutation ms))
       QCheck.Gen.(list_size (int_range 1 3) gen_mutation))
    (fun ms -> readers_total (List.fold_left apply (Lazy.force trace_text) ms))

(* The export of two zero-length spans and their recorded edge 0 -> 1. *)
let two_span_text () =
  let module T = Ascend.Trace in
  let tr = T.create () in
  let b = T.block_builder ~idx:0 ~core:0 in
  let span () =
    T.Block_builder.span b ~track:0 ~engine:"vec0" ~queue:"V" ~op:"nop" ~start:0.0
      ~cycles:0.0 ~bytes:0
  in
  let s0 = span () in
  let s1 = span () in
  T.Block_builder.edge b ~kind:T.Lane ~src:s0 ~dst:s1;
  let phase =
    {
      Ascend.Stats.compute_seconds = 0.0;
      bandwidth_seconds = 0.0;
      seconds = 0.0;
      gm_bytes = 0;
      footprint_bytes = 0;
      bandwidth_bound = false;
    }
  in
  T.record_launch tr ~name:"nop" ~seconds:0.0 ~latency_cycles:0.0 ~sync_cycles:0.0
    ~phases:[ (phase, [ T.Block_builder.finish b ~cycles:0.0 ]) ];
  Obs.Chrome_trace.to_string tr

let index_of ~sub s =
  let m = String.length sub in
  let rec go i =
    if i + m > String.length s then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* [text] with the first occurrence of [sub] replaced by [by]. *)
let substitute ~what text ~sub ~by =
  match index_of ~sub text with
  | None -> Alcotest.failf "%s: %s not in the export" what sub
  | Some i ->
      let n = String.length sub in
      String.sub text 0 i ^ by ^ String.sub text (i + n) (String.length text - i - n)

(* [of_json] of [text] with the first occurrence of [sub] replaced by
   [by] must be an error whose message holds [needle]. *)
let expect_profile_error ~what ~needle text ~sub ~by =
  match J.parse (substitute ~what text ~sub ~by) with
  | Error e -> Alcotest.fail e
  | Ok doc -> (
      match Obs.Critical_path.of_json doc with
      | exception e -> Alcotest.failf "%s: of_json raised %s" what (Printexc.to_string e)
      | Ok _ -> Alcotest.failf "%s was accepted" what
      | Error e ->
          if index_of ~sub:needle e = None then
            Alcotest.failf "%s: error %S does not say %S" what e needle)

(* A flow event for the edge 1 -> 0, numbered after the recorded one:
   every issue time still checks out, but the critical-path walk from
   span 1 back to span 0 could now go round the cycle for ever. *)
let test_backward_edge () =
  let head = {|{"traceEvents":[|} in
  expect_profile_error ~what:"a backward edge" ~needle:"not in issue order"
    (two_span_text ()) ~sub:head
    ~by:
      (head
     ^ {|{"name":"lane","cat":"flow","ph":"s","id":1,"pid":1,"tid":0,"ts":0,"args":{"id":1,"kind":"lane","src":1,"dst":0}},|}
      )

let test_bad_flow_kind () =
  expect_profile_error ~what:"an unknown flow kind" ~needle:"not an edge kind"
    (two_span_text ()) ~sub:{|"kind":"lane"|} ~by:{|"kind":"slot"|}

(* Span 1's sid made 2 (past the two spans the trace declares, or a
   gap when it declares three), 0 (a duplicate) or 99999. *)
let test_sids_not_contiguous () =
  let text = two_span_text () in
  let three = substitute ~what:"span count" text ~sub:{|"spans":2|} ~by:{|"spans":3|} in
  List.iter
    (fun (text, sid) ->
      expect_profile_error
        ~what:("span sid " ^ sid)
        ~needle:"not contiguous" text ~sub:{|"sid":1,|}
        ~by:(Printf.sprintf {|"sid":%s,|} sid))
    [ (text, "2"); (three, "2"); (text, "0"); (text, "99999") ]

let test_unmutated_trace () =
  let text = Lazy.force trace_text in
  match J.parse text with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      Alcotest.(check bool) "validates" true (Result.is_ok (Obs.Chrome_trace.validate doc));
      Alcotest.(check bool) "profiles" true (Result.is_ok (Obs.Critical_path.of_json doc));
      Alcotest.(check bool) "has events to duplicate" true (Array.length (event_starts text) > 10)

(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "jsonw"
    [
      ( "formatter",
        [
          Alcotest.test_case "edge cases = Printf definition" `Quick test_edge_floats;
          Alcotest.test_case "edge cases read back" `Quick test_edge_floats_read_back;
          Alcotest.test_case "non-finite rejected" `Quick test_non_finite;
          Alcotest.test_case "integer path = Printf definition" `Quick test_integer_path;
        ]
        @ qc [ prop_formatter_bits; prop_formatter_ts; prop_formatter_decimals ] );
      ("roundtrip", qc [ prop_roundtrip; prop_unicode_escapes ]);
      ( "rfc8259",
        [
          Alcotest.test_case "\\u takes exactly four hex digits" `Quick test_hex4_exact;
          Alcotest.test_case "leading zeros rejected" `Quick test_leading_zero;
          Alcotest.test_case "negative zero fixpoint" `Quick test_negative_zero;
        ] );
      ( "errors",
        [
          Alcotest.test_case "messages and offsets pinned" `Quick test_error_table;
          Alcotest.test_case "flat array in constant stack" `Quick test_flat_array;
        ] );
      ( "trace-fuzz",
        Alcotest.test_case "unmutated trace reads" `Quick test_unmutated_trace
        :: Alcotest.test_case "backward edge is an error, not a hang" `Quick
             test_backward_edge
        :: Alcotest.test_case "unknown flow kind is an error" `Quick test_bad_flow_kind
        :: Alcotest.test_case "non-contiguous sids are an error" `Quick
             test_sids_not_contiguous
        :: qc [ prop_trace_fuzz ] );
    ]
