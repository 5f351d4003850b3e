(** Operator registry: one extension point for kernels and operators.

    Every scan kernel (this library) and scan-based operator (the [ops]
    library, via its [Ops_registry.install]) registers a named entry
    with its aliases, capabilities, operator monoid, and a uniform run
    function. Front-ends — CLI subcommands, bench tables, cross-kernel
    test matrices — enumerate the registry instead of keeping parallel
    hand-maintained lists, and capability queries replace ad-hoc
    pattern matching on a closed variant.

    The scan kernels register at module initialisation of this module
    itself, so merely linking the [scan] library populates them. *)

open Ascend

type caps = {
  dtypes : Dtype.t list;  (** Input data types accepted. *)
  exclusive : bool;  (** Supports exclusive scans. *)
  batched : bool;  (** Needs [batch]/[len] config; input is row-major. *)
  segmented : bool;  (** Computes per-segment results. *)
  masked : bool;  (** Requires a second mask/flags input tensor. *)
}

type config = {
  s : int option;  (** Tile side (kernel default when [None]). *)
  exclusive : bool;
  blocks : int option;
  batch : int option;
  len : int option;
  bits : int option;  (** Radix key width. *)
  k : int option;  (** Selection count (top-k). *)
  p : float option;  (** Nucleus mass (top-p). *)
  theta : float option;  (** Uniform draw for sampling. *)
  seed : int option;
  devices : int option;
      (** Pod size for distributed entries (must be [>= 1] when set;
          others ignore it). *)
}

val default_config : config
(** Everything unset: each operator applies its own defaults. *)

type param = S | Exclusive | Bits | K | P | Theta | Devices | Batch
(** A per-entry parameter a front-end may set, one per {!config} field
    (or field pair: [Batch] sets [batch] and [len]). *)

val param_name : param -> string
(** The parameter's name, which is also its CLI flag: ["s"],
    ["exclusive"], ["bits"], ["k"], ["p"], ["theta"], ["devices"],
    ["batch"]. *)

type input =
  | Tensor of Global_tensor.t
  | Masked of { x : Global_tensor.t; mask : Global_tensor.t }

type output = {
  y : Global_tensor.t option;
      (** Main result tensor ([None] for pure-scalar operators). *)
  aux : (string * float) list;
      (** Scalar results (e.g. [("token", 42.)], [("count", n)]). *)
}

type entry = {
  name : string;  (** Canonical name, unique across the registry. *)
  aliases : string list;  (** Alternate spellings, also unique. *)
  kind : [ `Scan | `Op ];
  caps : caps;
  monoid : (module Scan_op.S) option;
      (** The associative operator a scan entry runs under ([None] for
          non-scan operators); front-ends use it for references and
          checksums. *)
  params : param list;
      (** The parameters the entry reads; a front-end rejects the others
          ([validate] does not, so sweeps may set one config for all). *)
  describe : string;  (** One-line description for [--list-ops]. *)
  run : config -> Device.t -> input -> output * Stats.t;
      (** May raise [Invalid_argument] on bad parameters; use {!run}
          for the uniform [Error] path. *)
}

val equal : entry -> entry -> bool
(** By {!entry.name}. Entries contain closures — never compare them
    with the polymorphic [=]. *)

val register : entry -> unit
(** Raises [Invalid_argument] when a name or alias is already taken. *)

val all : unit -> entry list
(** Every entry, in registration order. *)

val find : string -> entry option
(** Look up by canonical name or alias. *)

val scans : unit -> entry list
(** The [`Scan]-kind entries. *)

val unary_scans : unit -> entry list
(** Scan entries taking one tensor in, one tensor out (not batched,
    not masked) — what a cross-kernel matrix enumerates. *)

val validate : entry -> config -> input -> (unit, string) result
(** Capability pre-check: input arity, dtype support, exclusive
    support, batched parameters — everything knowable without
    launching. *)

val pp_markdown_table : Format.formatter -> unit -> unit
(** The full registry as a GitHub-markdown table (name, aliases, kind,
    dtypes, capabilities, params, description) in registration order —
    what the CLI's [--list-ops] prints and what the README embeds; CI
    diffs the two. *)

val run :
  entry ->
  config ->
  Device.t ->
  input ->
  (output * Stats.t, string) result
(** {!validate}, then the entry's run function with [Invalid_argument]
    mapped onto [Error] — the uniform error path front-ends rely on
    (the CLI turns [Error] into exit 2). *)
