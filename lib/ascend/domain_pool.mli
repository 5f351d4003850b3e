(** A small reusable pool of OCaml 5 domains for the host-side
    execution engine (stdlib [Domain]/[Mutex]/[Condition] only).

    The pool hands loop indices to its workers from a shared counter;
    the calling domain participates as one worker, so a request for
    [slots] uses at most [slots - 1] pool domains. Workers are spawned
    lazily and reused across calls; one process-wide pool (see
    {!global}) serves every {!Device} so repeated device creation
    never exhausts the runtime's domain budget. *)

type t

val create : ?max_workers:int -> unit -> t
(** A fresh pool. [max_workers] caps the number of spawned domains
    (beyond the caller); it defaults to, and is clamped to, 63.
    Raises [Invalid_argument] when negative. *)

val size : t -> int
(** Number of worker domains spawned so far (grows lazily). *)

val parallel_for : t -> slots:int -> n:int -> (int -> unit) -> unit
(** [parallel_for t ~slots ~n body] runs [body i] exactly once for
    every [i] in [[0, n)], using at most [slots] concurrent domains
    (the caller included), and returns after all of them finished.
    The body must deposit its results into caller-owned storage
    indexed by [i]; no ordering between indices is guaranteed while
    the loop runs. Runs the plain sequential loop when [slots <= 1],
    [n = 1], or when called from inside another [parallel_for] on the
    same pool (nested calls degrade rather than deadlock). If bodies
    raised, the exception of the {e smallest} failing index is
    re-raised after the join — the error a sequential left-to-right
    loop would have surfaced first. Callers with many short bodies
    batch them into fewer indices ({!Launch} hands over runs of
    blocks). *)

val shutdown : t -> unit
(** Stop and join all workers. Subsequent [parallel_for] calls on the
    pool degrade to sequential loops. *)

val global : unit -> t
(** The lazily created process-wide pool (joined automatically via
    [at_exit]). *)
