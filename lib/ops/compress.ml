type result = {
  values : Ascend.Global_tensor.t;
  count : int;
  stats : Ascend.Stats.t;
}

let run ?s device ~x ~mask () =
  let r = Split.run ?s ~emit_falses:false device ~x ~flags:mask () in
  {
    values = r.Split.values;
    count = r.Split.true_count;
    stats = Ascend.Stats.combine ~name:"compress" [ r.Split.stats ];
  }
