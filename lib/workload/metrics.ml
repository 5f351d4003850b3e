let scan_bandwidth (st : Ascend.Stats.t) ~n ~esize =
  float_of_int (2 * n * esize) /. st.Ascend.Stats.seconds

let giga_elements_per_second (st : Ascend.Stats.t) ~n =
  float_of_int n /. st.Ascend.Stats.seconds /. 1e9

let speedup ~baseline (st : Ascend.Stats.t) =
  baseline.Ascend.Stats.seconds /. st.Ascend.Stats.seconds

let percent_of_peak b = 100.0 *. b /. 800.0e9
