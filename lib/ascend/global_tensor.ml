type t = {
  id : int;
  name : string;
  dtype : Dtype.t;
  length : int;
  data : Host_buffer.t option;
}

let make ~id ~name ~dtype ~length ~backed =
  let data = if backed then Some (Host_buffer.create dtype length) else None in
  { id; name; dtype; length; data }

let id t = t.id
let name t = t.name
let dtype t = t.dtype
let length t = t.length
let size_bytes t = t.length * Dtype.size_bytes t.dtype
let is_backed t = Option.is_some t.data

let buffer t =
  match t.data with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf
           "Global_tensor.buffer: %S is cost-only (no backing storage)" t.name)

let retire t = Option.iter Host_buffer.retire t.data
let get t i = Host_buffer.get (buffer t) i
let set t i v = Host_buffer.set (buffer t) i v

let load t a =
  let buf = buffer t in
  if Array.length a > t.length then
    invalid_arg "Global_tensor.load: array longer than tensor";
  Host_buffer.load_array buf a

let fill t v = Host_buffer.fill (buffer t) v

let to_array t = Host_buffer.to_array (buffer t)
