(** Tiling arithmetic shared by the kernels. *)

val ceil_div : int -> int -> int
(** [ceil_div a b = (a + b - 1) / b] for positive [b]. *)

val round_up : int -> int -> int
(** Smallest multiple of [m] that is [>= a]. *)
