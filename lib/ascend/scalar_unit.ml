let ops ctx ~count = Block.scalar_ops ctx ~count

let gm_read ctx gt i =
  Block.scalar_gm ctx gt ~write:false;
  if Block.functional ctx then Global_tensor.get gt i else 0.0

let gm_write ctx gt i v =
  Block.scalar_gm ctx gt ~write:true;
  if Block.functional ctx then Global_tensor.set gt i v
