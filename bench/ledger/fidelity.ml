(* The paper's five headline claims, regenerated on Cost_only devices
   with the configurations of bench/main.ml's headline table. Every
   number is simulated and deterministic. [div] shrinks every size (the
   smoke run uses 16); the claims then no longer match the paper, but
   the code path is the same. *)

open Ascend

type claim = { name : string; measured : float; paper : float; unit_ : string }

let pow2 k = 1 lsl k

let claims ~div =
  let d = Device.create ~mode:Device.Cost_only ~domains:1 () in
  let alloc n = Device.alloc d Dtype.F16 (n / div) ~name:"x" in
  let seconds (st : Stats.t) = st.Stats.seconds in
  let x = alloc (pow2 22) in
  let _, sv = Scan.Scan_vec_only.run d x in
  let _, su = Scan.Scan_u.run d x in
  let _, sl = Scan.Scan_ul1.run d x in
  let big = alloc (pow2 27) in
  let _, su_big = Scan.Scan_u.run d big in
  let _, smc = Scan.Mcscan.run d big in
  let bw =
    Workload.Metrics.scan_bandwidth smc ~n:(Global_tensor.length big) ~esize:2
  in
  let radix_vs_sort =
    List.fold_left
      (fun acc k ->
        let r = Ops.Radix_sort.run d (alloc (pow2 k)) in
        let _, sb = Ops.Baseline.sort d (alloc (pow2 k)) in
        Float.max acc (seconds sb /. seconds r.Ops.Radix_sort.stats))
      0.0 [ 23; 25; 26 ]
  in
  [
    { name = "scanu_vs_vec"; measured = seconds sv /. seconds su; paper = 5.0;
      unit_ = "x" };
    { name = "scanul1_vs_vec"; measured = seconds sv /. seconds sl;
      paper = 9.6; unit_ = "x" };
    { name = "mcscan_vs_scanu"; measured = seconds su_big /. seconds smc;
      paper = 15.2; unit_ = "x" };
    { name = "mcscan_peak_bw_pct";
      measured = Workload.Metrics.percent_of_peak bw; paper = 37.5;
      unit_ = "%" };
    { name = "radix_vs_sort"; measured = radix_vs_sort; paper = 3.3;
      unit_ = "x" };
  ]

(* Largest relative miss over the claims, in percent. *)
let max_err_pct claims =
  List.fold_left
    (fun acc c -> Float.max acc (100.0 *. Float.abs ((c.measured /. c.paper) -. 1.0)))
    0.0 claims
