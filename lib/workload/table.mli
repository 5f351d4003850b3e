(** Minimal fixed-width table / series rendering for the benchmark
    harness (each figure of the paper becomes one printed table). *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Rows are rendered in insertion order; short rows are padded. *)

val print : t -> unit
(** Render to stdout with aligned columns and a title rule. *)

val save_csv : t -> dir:string -> unit
(** Write the table as [<dir>/<slug-of-title>.csv] (creating [dir]),
    header row first. *)

val fmt_time_us : float -> string
(** Seconds to a fixed-width microseconds cell. *)

val fmt_gbs : float -> string
(** Bytes/s to a GB/s cell. *)

val fmt_float : float -> string
(** Two decimals. *)
