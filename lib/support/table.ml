type align = Left | Right

type t = { headers : string list; ncols : int; mutable rows : string list list }

let create ~headers = { headers; ncols = List.length headers; rows = [] }

let add_row t cells =
  if List.length cells <> t.ncols then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d cells, got %d" t.ncols
         (List.length cells));
  t.rows <- cells :: t.rows

let looks_numeric s =
  s <> ""
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '%' || c = ',')
       s

let render ?aligns t =
  let cell_rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  List.iter
    (fun cells ->
      List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells)
    cell_rows;
  let aligns =
    match aligns with
    | Some a when List.length a = t.ncols -> Array.of_list a
    | Some _ -> invalid_arg "Table.render: aligns length mismatch"
    | None ->
      (* A column is right-aligned when all its body cells look numeric. *)
      Array.init t.ncols (fun i ->
          let numeric =
            cell_rows <> []
            && List.for_all (fun cells -> looks_numeric (List.nth cells i)) cell_rows
          in
          if numeric then Right else Left)
  in
  let pad i s =
    let w = widths.(i) in
    let n = w - String.length s in
    match aligns.(i) with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s
  in
  let buf = Buffer.create 256 in
  let emit_cells cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad i c))
      cells;
    Buffer.add_char buf '\n'
  in
  let total_width =
    Array.fold_left ( + ) 0 widths + (2 * (t.ncols - 1))
  in
  emit_cells t.headers;
  Buffer.add_string buf (String.make total_width '-' ^ "\n");
  List.iter emit_cells cell_rows;
  Buffer.contents buf
