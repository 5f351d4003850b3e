module Stats = Ascend.Stats
module Fault = Ascend.Fault

let phase_json (p : Stats.phase) =
  Jsonw.Obj
    [
      ("compute_seconds", Jsonw.Float p.Stats.compute_seconds);
      ("bandwidth_seconds", Jsonw.Float p.Stats.bandwidth_seconds);
      ("seconds", Jsonw.Float p.Stats.seconds);
      ("gm_bytes", Jsonw.Int p.Stats.gm_bytes);
      ("footprint_bytes", Jsonw.Int p.Stats.footprint_bytes);
      ("bandwidth_bound", Jsonw.Bool p.Stats.bandwidth_bound);
    ]

let to_string (st : Stats.t) =
  Jsonw.to_string
  @@ Jsonw.Obj
    [
      ("name", Jsonw.String st.Stats.name);
      ("seconds", Jsonw.Float st.Stats.seconds);
      ("phases", Jsonw.List (List.map phase_json st.Stats.phases));
      ("blocks", Jsonw.Int st.Stats.blocks);
      ("cores_used", Jsonw.Int st.Stats.cores_used);
      ("gm_read_bytes", Jsonw.Int st.Stats.gm_read_bytes);
      ("gm_write_bytes", Jsonw.Int st.Stats.gm_write_bytes);
      ( "engine_busy",
        Jsonw.Obj
          (List.map (fun (e, c) -> (e, Jsonw.Float c)) st.Stats.engine_busy)
      );
      ( "core_busy",
        Jsonw.List
          (Array.to_list
             (Array.map (fun b -> Jsonw.Float b) st.Stats.core_busy)) );
      ( "op_counts",
        Jsonw.Obj
          (List.map (fun (o, c) -> (o, Jsonw.Int c)) st.Stats.op_counts) );
      ( "faults",
        Jsonw.List
          (List.map
             (fun (e : Fault.event) ->
               Jsonw.String (Format.asprintf "%a" Fault.pp_event e))
             st.Stats.faults) );
      ("retries", Jsonw.Int st.Stats.retries);
      ("degraded", Jsonw.Int st.Stats.degraded);
      ("host_seconds", Jsonw.Float st.Stats.host_seconds);
      ("domains", Jsonw.Int st.Stats.domains);
      ("launches", Jsonw.Int st.Stats.launches);
    ]
