(** Minimal self-contained JSON: a value type, a deterministic writer
    and a recursive-descent parser. No external dependencies — the
    observability layer must not change the repo's dependency
    footprint, and determinism of the byte output (for the
    cross-domain trace-identity contract) is easier to guarantee in a
    writer we own.

    {2 Determinism}

    [to_string] is a pure function of the value: object members are
    written in the order given, floats print through one canonical
    formatter (shortest round-trip style, ["%.17g"] fallback), and no
    whitespace depends on ambient state. Two structurally equal values
    always serialize to identical bytes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val float_to_string : float -> string
(** The canonical number formatter used by the writer: the shortest
    of ["%.12g"]/["%.17g"] that round-trips, integral values without
    an exponent where possible; non-finite values (invalid JSON)
    raise [Invalid_argument]. *)

(** {2 Streaming primitives}

    The tree writer is built from these, so a producer that writes
    JSON straight into a buffer (the Chrome trace export) emits the
    same bytes as {!to_string} of the equivalent tree. Separators
    ([{], [,], [}], ...) are the caller's. *)

val write_string : Buffer.t -> string -> unit
(** A quoted, escaped string. *)

val write_int : Buffer.t -> int -> unit

val write_float : Buffer.t -> float -> unit
(** The bytes of {!float_to_string}. Neither writer allocates, beyond
    the buffer's own growth, except for [min_int] and for a float
    whose magnitude lies outside [\[10^-6, 10^15)] and is not an
    integer (those go through the C formatter): digits are formatted
    in a per-domain scratch and copied into the buffer. *)

val write_field : Buffer.t -> string -> unit
(** An object key and its [:]. *)

val to_string : ?pretty:bool -> t -> string
(** Serialize. [pretty] (default false) adds newlines and 2-space
    indentation; the compact form has no whitespace. *)

val to_channel : ?pretty:bool -> out_channel -> t -> unit

val parse : string -> (t, string) result
(** Parse a complete JSON document (RFC 8259; trailing whitespace
    allowed, trailing garbage rejected). Numbers without a fraction or
    exponent parse to [Int] when they fit, else [Float]; ["-0"] parses
    to [Float (-0.)], so every [float_to_string] output reads back as
    the same number, sign of zero included. Numbers with a leading
    zero (["01"]) are rejected. [\uXXXX] escapes take exactly four
    hex digits and decode to UTF-8 (surrogate pairs supported).
    [Error] carries a message with the byte offset of the failure; no
    input raises. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Object member lookup; [None] on missing key or non-object. *)

val to_list_opt : t -> t list option
val string_opt : t -> string option

val number_opt : t -> float option
(** [Int] or [Float] as a float. *)

val int_opt : t -> int option
(** [Int], or a [Float] with an integral value. *)
