(** Tiling arithmetic shared by the kernels. *)

val ceil_div : int -> int -> int
(** [ceil_div a b = (a + b - 1) / b] for positive [b]. *)

val round_up : int -> int -> int
(** Smallest multiple of [m] that is [>= a]. *)

val check_s : who:string -> ?even:bool -> Ascend.Dtype.t -> int -> unit
(** Raise [Invalid_argument], naming [who], [s] and the largest
    accepted value, unless [s >= 1] ([~even]: even) and two s x s tiles
    of the dtype fit L0A: 128 for f16, 181 (180 even) for i8. *)
