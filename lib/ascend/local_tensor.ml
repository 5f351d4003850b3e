type structure =
  | General
  | Upper_ones
  | Lower_ones
  | Strict_lower_ones
  | All_ones
  | Identity

type t = {
  kind : Mem_kind.t;
  dtype : Dtype.t;
  length : int;
  buf : Host_buffer.t;
  mutable structure : structure;
}

let make ~kind ~dtype ~length =
  let buf = Host_buffer.create dtype length in
  { kind; dtype; length; buf; structure = General }

let buffer t = t.buf
let structure t = t.structure
let set_structure t s = t.structure <- s
let touch t = t.structure <- General
let retire t = Host_buffer.retire t.buf

let recycle t =
  Host_buffer.clear t.buf;
  t.structure <- General

let get t i = Host_buffer.get t.buf i

let set t i v =
  touch t;
  Host_buffer.set t.buf i v
