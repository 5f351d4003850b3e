(** Unified front end over the scan kernels.

    An algorithm is an {!Op_registry} entry: the former closed variant
    is gone, and any unary scan registered in the registry — including
    ones added by other libraries — dispatches through {!run} with no
    change here. *)

type algo = Op_registry.entry

val algo_of_string : string -> algo option
(** Resolve a registry name or alias to a unary scan entry (one tensor
    in, one out); batched/masked entries and non-scan operators resolve
    to [None]. *)

val algo_to_string : algo -> string
(** The canonical registry name. *)

val get : string -> algo
(** Like {!algo_of_string}, raising [Invalid_argument] on unknown
    names — for test and example code with known-good literals. *)

val all_algos : algo list
(** Every registered unary scan, in registration order. *)

val run :
  ?s:int ->
  ?exclusive:bool ->
  ?devices:int ->
  algo:algo ->
  Ascend.Device.t ->
  Ascend.Global_tensor.t ->
  Ascend.Global_tensor.t * Ascend.Stats.t
(** Dispatch through the registry. [devices] feeds the device count
    of [dist_scan] and is ignored by single-device kernels. Capability violations (exclusive on a non-supporting
    kernel, unsupported dtype) and operator-side parameter errors
    surface as [Invalid_argument]; use {!Op_registry.run} directly for
    the [result]-typed error path. *)

val float_eq : float -> float -> bool
(** Bit-pattern float equality: [=] on ordinary values (so [0.0] and
    [-0.0] agree) that also treats a NaN as equal to itself. Every
    scan oracle compares through it. *)

val check_against_reference :
  ?round:(float -> float) ->
  ?exclusive:bool ->
  ?expected:float array ->
  input:float array ->
  output:Ascend.Global_tensor.t ->
  unit ->
  (unit, string) result
(** Compare a kernel output against {!Reference} (or an explicit
    [expected] array, e.g. a max-scan reference), stopping at the first
    mismatch; the error carries that index and both values. Floats are
    compared by bit pattern so NaN outputs check cleanly against NaN
    references. *)

val check_scan :
  ?round:(float -> float) ->
  ?exclusive:bool ->
  algo:algo ->
  dtype:Ascend.Dtype.t ->
  input:float array ->
  output:Ascend.Global_tensor.t ->
  unit ->
  (unit, string) result
(** Monoid-aware {!check_against_reference}: the expected array is
    built from the algorithm's registered operator (sum, max, ...), so
    one check call works for every registry scan. *)
