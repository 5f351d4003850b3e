type t = {
  clock_hz : float;
  num_ai_cores : int;
  vec_per_core : int;
  hbm_bandwidth : float;
  l2_bandwidth : float;
  l2_capacity_bytes : int;
  mte_stream_bandwidth : float;
  local_stream_bandwidth : float;
  mte_issue_cycles : float;
  vec_bytes_per_cycle : float;
  vec_issue_cycles : float;
  scalar_access_cycles : float;
  scalar_op_cycles : float;
  scalar_gm_cycles_per_access : float;
  cube_macs_per_cycle_f16 : float;
  cube_macs_per_cycle_i8 : float;
  mmad_issue_cycles : float;
  cumsum_instrs_per_row : float;
  sync_all_seconds : float;
  kernel_launch_seconds : float;
}

(* Calibration: datasheet-level constants (clock, core counts, HBM and
   datapath widths) come from the 910B4 description in the paper's §3
   and §6; the overhead constants (issue costs, barrier and launch
   latency, CumSum instruction density) were fitted once to the anchor
   points of Figures 3 and 8 and then frozen (DESIGN.md §4). *)
let default =
  {
    clock_hz = 1.8e9;
    num_ai_cores = 20;
    vec_per_core = 2;
    hbm_bandwidth = 800.0e9;
    l2_bandwidth = 0.85e12;
    l2_capacity_bytes = 192 * 1024 * 1024;
    mte_stream_bandwidth = 120.0e9;
    local_stream_bandwidth = 200.0e9;
    mte_issue_cycles = 16.0;
    vec_bytes_per_cycle = 256.0;
    vec_issue_cycles = 24.0;
    scalar_access_cycles = 28.0;
    scalar_op_cycles = 3.0;
    scalar_gm_cycles_per_access = 90.0;
    cube_macs_per_cycle_f16 = 4096.0;
    cube_macs_per_cycle_i8 = 8192.0;
    mmad_issue_cycles = 40.0;
    cumsum_instrs_per_row = 10.5;
    sync_all_seconds = 3.0e-6;
    kernel_launch_seconds = 8.0e-6;
  }

let cycles_to_seconds t c = c /. t.clock_hz
let seconds_to_cycles t s = s *. t.clock_hz

let pp fmt t =
  Format.fprintf fmt
    "@[<v>cost model:@ clock %.2f GHz, %d AI cores (x%d vec)@ HBM %.0f GB/s, \
     L2 %.0f GB/s / %d MiB@ MTE %.0f GB/s/stream (+%.0f cyc)@ vec %.0f B/cyc \
     (+%.0f cyc)@ cube %.0f/%.0f MAC/cyc (+%.0f cyc)@ sync %.1f us, launch \
     %.1f us@]"
    (t.clock_hz /. 1e9) t.num_ai_cores t.vec_per_core
    (t.hbm_bandwidth /. 1e9) (t.l2_bandwidth /. 1e9)
    (t.l2_capacity_bytes / 1024 / 1024)
    (t.mte_stream_bandwidth /. 1e9)
    t.mte_issue_cycles t.vec_bytes_per_cycle t.vec_issue_cycles
    t.cube_macs_per_cycle_f16 t.cube_macs_per_cycle_i8 t.mmad_issue_cycles
    (t.sync_all_seconds *. 1e6)
    (t.kernel_launch_seconds *. 1e6)
