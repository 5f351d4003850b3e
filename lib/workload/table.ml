type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;
}

let create ~title ~columns = { title; columns; rows = [] }
let add_row t row = t.rows <- row :: t.rows

let print t =
  let rows = List.rev t.rows in
  let ncols = List.length t.columns in
  let pad row =
    let m = List.length row in
    if m >= ncols then row else row @ List.init (ncols - m) (fun _ -> "")
  in
  let rows = List.map pad rows in
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length c) rows)
      t.columns
  in
  let line ch =
    print_endline
      (String.concat "-+-" (List.map (fun w -> String.make w ch) widths))
  in
  let render row =
    print_endline
      (String.concat " | "
         (List.map2
            (fun w cell -> cell ^ String.make (w - String.length cell) ' ')
            widths row))
  in
  Printf.printf "\n== %s ==\n" t.title;
  render t.columns;
  line '-';
  List.iter render rows

let fmt_time_us s = Printf.sprintf "%.1f" (s *. 1e6)
let fmt_gbs b = Printf.sprintf "%.1f" (b /. 1e9)
let fmt_float v = Printf.sprintf "%.2f" v

let slug title =
  let b = Buffer.create (String.length title) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Buffer.add_char b (Char.lowercase_ascii c)
      | ' ' | '-' | '_' | '/' | ':' | '.' ->
          if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '_'
          then Buffer.add_char b '_'
      | _ -> ())
    title;
  let s = Buffer.contents b in
  let s = if String.length s > 60 then String.sub s 0 60 else s in
  if s = "" then "table" else s

let csv_cell cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let save_csv t ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (slug t.title ^ ".csv") in
  let oc = open_out path in
  let row r = output_string oc (String.concat "," (List.map csv_cell r) ^ "\n") in
  row t.columns;
  List.iter row (List.rev t.rows);
  close_out oc
