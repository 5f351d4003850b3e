type kind =
  | Out_of_bounds
  | Queue_violation
  | Write_write_hazard
  | Read_write_hazard
  | Async_hazard

let kind_to_string = function
  | Out_of_bounds -> "out_of_bounds"
  | Queue_violation -> "queue_violation"
  | Write_write_hazard -> "write_write_hazard"
  | Read_write_hazard -> "read_write_hazard"
  | Async_hazard -> "async_copy_hazard"

type diag = {
  kind : kind;
  phase : int;
  block : int;
  op : string;
  tensor : string;
  message : string;
}

(* One coalesced global-memory access span of a block within the
   current phase: the bounding interval of everything the block read
   (resp. wrote) of one tensor. Exact for tiled kernels, conservative
   for scatters (which annotate themselves with [exempt_tensor]). *)
type span = {
  s_block : int;
  s_tensor : int;
  s_name : string;
  s_write : bool;
  mutable s_lo : int;
  mutable s_hi : int;
  s_op : string;
}

type t = {
  mutable phase : int;
  mutable diags : diag list;  (* newest first *)
  mutable n_diags : int;
  spans : (int * int * bool, span) Hashtbl.t;  (* (tensor, block, write) *)
  exempt : (int, string) Hashtbl.t;  (* tensor id -> reason, current phase *)
  mutable max_diags : int;
}

let create () =
  {
    phase = -1;
    diags = [];
    n_diags = 0;
    spans = Hashtbl.create 32;
    exempt = Hashtbl.create 8;
    max_diags = 256;
  }

let add_diag t d =
  if t.n_diags < t.max_diags then begin
    t.diags <- d :: t.diags;
    t.n_diags <- t.n_diags + 1
  end

let begin_phase t =
  t.phase <- t.phase + 1;
  Hashtbl.reset t.spans;
  Hashtbl.reset t.exempt

let record_global_access t ~block ~tensor_id ~tensor_name ~write ~off ~len ~op =
  if len > 0 then begin
    let key = (tensor_id, block, write) in
    match Hashtbl.find_opt t.spans key with
    | Some s ->
        s.s_lo <- min s.s_lo off;
        s.s_hi <- max s.s_hi (off + len)
    | None ->
        Hashtbl.add t.spans key
          { s_block = block; s_tensor = tensor_id; s_name = tensor_name;
            s_write = write; s_lo = off; s_hi = off + len; s_op = op }
  end

let exempt_tensor t ~tensor_id ~reason =
  if not (Hashtbl.mem t.exempt tensor_id) then
    Hashtbl.add t.exempt tensor_id reason

let overlaps a b =
  a.s_tensor = b.s_tensor && a.s_block <> b.s_block
  && (a.s_write || b.s_write)
  && a.s_lo < b.s_hi && b.s_lo < a.s_hi

let end_phase t =
  let spans = Hashtbl.fold (fun _ s acc -> s :: acc) t.spans [] in
  let spans =
    List.filter (fun s -> not (Hashtbl.mem t.exempt s.s_tensor)) spans
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a.s_block < b.s_block && overlaps a b then begin
            let kind =
              if a.s_write && b.s_write then Write_write_hazard
              else Read_write_hazard
            in
            let key = (a.s_tensor, a.s_block, b.s_block, kind) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              add_diag t
                {
                  kind;
                  phase = t.phase;
                  block = a.s_block;
                  op = a.s_op;
                  tensor = a.s_name;
                  message =
                    Printf.sprintf
                      "blocks %d and %d touch %s[%d,%d) x [%d,%d) in the same \
                       phase (%s vs %s) without an intervening SyncAll"
                      a.s_block b.s_block a.s_name a.s_lo a.s_hi b.s_lo b.s_hi
                      (if a.s_write then "write" else "read")
                      (if b.s_write then "write" else "read");
                }
            end
          end)
        spans)
    spans;
  Hashtbl.reset t.spans;
  Hashtbl.reset t.exempt

let record_oob t ~block ~op ~tensor ~message =
  add_diag t
    { kind = Out_of_bounds; phase = t.phase; block; op; tensor; message }

let record_queue_violation t ~block ~queue ~message =
  add_diag t
    { kind = Queue_violation; phase = t.phase; block; op = "queue";
      tensor = queue; message }

let record_async_hazard t ~block ~op ~tensor ~message =
  add_diag t
    { kind = Async_hazard; phase = t.phase; block; op; tensor; message }

let diagnostics t = List.rev t.diags
let count t = t.n_diags
let count_kind t k =
  List.fold_left (fun acc d -> if d.kind = k then acc + 1 else acc) 0 t.diags

let pp_diag fmt d =
  Format.fprintf fmt "[%s] phase %d block %d op %s tensor %s: %s"
    (kind_to_string d.kind) d.phase d.block d.op d.tensor d.message

let pp_report fmt t =
  if t.n_diags = 0 then Format.fprintf fmt "sanitizer: clean"
  else begin
    Format.fprintf fmt "@[<v>sanitizer: %d diagnostic%s" t.n_diags
      (if t.n_diags = 1 then "" else "s");
    List.iter (fun d -> Format.fprintf fmt "@   %a" pp_diag d) (diagnostics t);
    Format.fprintf fmt "@]"
  end

(* AscendC queue discipline (EnQue/DeQue over a fixed buffer pool),
   checked rather than simulated: kernels written against the queue
   API can assert they never enqueue without a free buffer or dequeue
   an empty queue. *)
module Queue = struct
  type nonrec q = {
    san : t;
    name : string;
    depth : int;
    block : int;
    mutable in_flight : int;
  }

  let make san ~block ~name ~depth =
    if depth < 1 then invalid_arg "Sanitizer.Queue.make: depth must be >= 1";
    { san; name; depth; block; in_flight = 0 }

  let in_flight q = q.in_flight

  let enqueue q =
    if q.in_flight >= q.depth then
      record_queue_violation q.san ~block:q.block ~queue:q.name
        ~message:
          (Printf.sprintf "enqueue with all %d buffers in flight (no free \
                           buffer)" q.depth)
    else q.in_flight <- q.in_flight + 1

  let dequeue q =
    if q.in_flight <= 0 then
      record_queue_violation q.san ~block:q.block ~queue:q.name
        ~message:"dequeue on an empty queue (double-dequeue)"
    else q.in_flight <- q.in_flight - 1
end
