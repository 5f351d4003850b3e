(* A small reusable pool of OCaml 5 domains (stdlib Domain + Mutex +
   Condition only). One global pool is shared by every Device so that
   repeated device creation (tests, benches) never exhausts the
   runtime's domain budget; workers are spawned lazily, on first use,
   up to [max_workers].

   [parallel_for] hands out loop indices from a shared counter under
   the pool mutex; the calling domain participates too, so a request
   for [slots = n] uses at most [n - 1] pool workers. Results must be
   deposited by the body into caller-owned, index-disjoint storage —
   the pool itself guarantees only that every index in [0, n) runs
   exactly once and that the call returns after all of them finished.
   Exceptions raised by the body are collected and the one belonging
   to the smallest index is re-raised in the caller after the join,
   mirroring the error a sequential left-to-right loop would surface
   first. *)

type task = {
  run : int -> unit;
  total : int;
  mutable next_idx : int;  (* next unclaimed index *)
  mutable in_flight : int;  (* indices claimed but not yet finished *)
  mutable slots : int;  (* worker slots still allowed to join *)
  mutable errors : (int * exn) list;
}

type t = {
  mutex : Mutex.t;
  has_work : Condition.t;
  finished : Condition.t;
  mutable task : task option;
  mutable stop : bool;
  mutable spawned : int;
  mutable workers : unit Domain.t list;
  max_workers : int;
}

let max_pool_workers = 63

let create ?(max_workers = max_pool_workers) () =
  if max_workers < 0 then
    invalid_arg "Domain_pool.create: max_workers must be >= 0";
  {
    mutex = Mutex.create ();
    has_work = Condition.create ();
    finished = Condition.create ();
    task = None;
    stop = false;
    spawned = 0;
    workers = [];
    max_workers = min max_workers max_pool_workers;
  }

let size t = t.spawned

(* Drain loop indices of [task], one per claim. Called and returned
   with [t.mutex] held; the mutex is released around each body
   invocation. Every index runs exactly once: an index that raises is
   recorded and the other workers keep claiming past it. *)
let drain t task =
  while task.next_idx < task.total do
    let i = task.next_idx in
    task.next_idx <- i + 1;
    task.in_flight <- task.in_flight + 1;
    Mutex.unlock t.mutex;
    let error =
      match task.run i with () -> None | exception e -> Some (i, e)
    in
    Mutex.lock t.mutex;
    Option.iter (fun e -> task.errors <- e :: task.errors) error;
    task.in_flight <- task.in_flight - 1;
    if task.in_flight = 0 && task.next_idx >= task.total then
      Condition.broadcast t.finished
  done

let rec worker_loop t =
  match t.task with
  | _ when t.stop -> ()
  | Some task when task.slots > 0 && task.next_idx < task.total ->
      task.slots <- task.slots - 1;
      drain t task;
      worker_loop t
  | _ ->
      Condition.wait t.has_work t.mutex;
      worker_loop t

let worker t =
  Mutex.lock t.mutex;
  worker_loop t;
  Mutex.unlock t.mutex

(* With [t.mutex] held: grow the pool towards [wanted] extra workers. *)
let ensure_workers t wanted =
  let target = min wanted t.max_workers in
  while t.spawned < target do
    t.spawned <- t.spawned + 1;
    t.workers <- Domain.spawn (fun () -> worker t) :: t.workers
  done

let run_sequential ~n body =
  for i = 0 to n - 1 do
    body i
  done

let parallel_for t ~slots ~n body =
  if n < 0 then invalid_arg "Domain_pool.parallel_for: negative bound";
  if n > 0 then
    if slots <= 1 || n = 1 || t.max_workers = 0 then run_sequential ~n body
    else begin
      Mutex.lock t.mutex;
      if t.task <> None || t.stop then begin
        (* Nested or post-shutdown call: degrade to the plain loop
           rather than deadlocking on our own pool. *)
        Mutex.unlock t.mutex;
        run_sequential ~n body
      end
      else begin
        let slots = min slots n in
        ensure_workers t (slots - 1);
        let task =
          { run = body; total = n; next_idx = 0; in_flight = 0; slots;
            errors = [] }
        in
        t.task <- Some task;
        Condition.broadcast t.has_work;
        (* The caller takes one slot and drains alongside the pool. *)
        task.slots <- task.slots - 1;
        drain t task;
        while task.in_flight > 0 || task.next_idx < task.total do
          Condition.wait t.finished t.mutex
        done;
        t.task <- None;
        let errors = task.errors in
        Mutex.unlock t.mutex;
        match errors with
        | [] -> ()
        | errs ->
            let _, first =
              List.fold_left
                (fun ((bi, _) as best) ((i, _) as cand) ->
                  if i < bi then cand else best)
                (List.hd errs) (List.tl errs)
            in
            raise first
      end
    end

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.has_work;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

(* The process-wide pool. Sized generously; workers only exist once a
   launch actually requests parallelism. *)
let global_pool = ref None

let global () =
  match !global_pool with
  | Some p -> p
  | None ->
      let p = create () in
      global_pool := Some p;
      at_exit (fun () -> shutdown p);
      p
