type t = { blocks : int; alive : int list; total_cores : int }

let plan device ~n =
  if n < 0 then invalid_arg "Scheduler.plan: negative work-item count";
  let health = Device.health device in
  let alive = Health.alive_cores health in
  if alive = [] then raise Health.All_cores_dead;
  { blocks = List.length alive; alive; total_cores = Device.num_cores device }

let blocks t = t.blocks
let alive t = t.alive
let degraded t = t.blocks < t.total_cores

let chunk t ~n ~grain =
  if grain < 1 then invalid_arg "Scheduler.chunk: grain must be >= 1";
  let per = (n + t.blocks - 1) / t.blocks in
  (per + grain - 1) / grain * grain

let pp fmt t =
  if degraded t then
    Format.fprintf fmt "plan(%d blocks on %d/%d cores)" t.blocks t.blocks
      t.total_cores
  else Format.fprintf fmt "plan(%d blocks, all cores healthy)" t.blocks
