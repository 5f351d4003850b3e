(** Deterministic workload generators for tests, examples and benches.

    All generators take an explicit seed so every experiment is
    reproducible; values destined for [F16] tensors are pre-rounded to
    representable fp16 values. *)

val uniform_f16 : seed:int -> ?lo:float -> ?hi:float -> int -> float array
(** [n] fp16-representable values uniform in [\[lo, hi)] (default
    [\[-1, 1)]). *)

val ones_and_zeros : seed:int -> density:float -> int -> float array
(** 0/1 mask with i.i.d. true probability [density]. *)

val small_ints : seed:int -> ?max_value:int -> int -> float array
(** Non-negative integers in [\[0, max_value\]] (default 9); keeps fp16
    cumulative sums exact for short arrays. *)

val sparse_ones : seed:int -> int -> float array
(** [1.0] at every index [i] with [(i + seed) mod 53 = 0], else [0.0]:
    the float workload of the CLI and {!Op_driver}. Prefix sums stay
    exact in fp16 while the total is at most 2048 (n up to ~108k). *)

val softmax_probs : seed:int -> int -> float array
(** A peaked LLM-style token distribution: softmax of [n] uniform
    logits in [0, 8\], rounded to fp16. *)

