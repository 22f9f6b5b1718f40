type cell =
  | Str of string
  | Int of int
  | Float of float

let cell_to_string ~float_digits = function
  | Str s -> s
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 && float_digits = 0
    then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.*f" float_digits f

let is_numeric = function Str _ -> false | Int _ | Float _ -> true

let pad ~right width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    if right then fill ^ s else s ^ fill
  end

let render ?(float_digits = 2) ~header rows =
  let ncols = List.length header in
  List.iteri
    (fun i row ->
      if List.length row <> ncols then
        invalid_arg
          (Printf.sprintf "Table.render: row %d has %d cells, expected %d" i
             (List.length row) ncols))
    rows;
  let string_rows =
    List.map (List.map (cell_to_string ~float_digits)) rows
  in
  (* A column is right-aligned when every cell in it is numeric. *)
  let right =
    Array.init ncols (fun c ->
        rows <> []
        && List.for_all (fun row -> is_numeric (List.nth row c)) rows)
  in
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (List.iteri (fun c s -> widths.(c) <- max widths.(c) (String.length s)))
    string_rows;
  let buf = Buffer.create 1024 in
  let emit_row cells right_of =
    List.iteri
      (fun c s ->
        if c > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad ~right:(right_of c) widths.(c) s))
      cells;
    Buffer.add_char buf '\n'
  in
  emit_row header (fun _ -> false);
  let rule = List.init ncols (fun c -> String.make widths.(c) '-') in
  emit_row rule (fun _ -> false);
  List.iter (fun row -> emit_row row (Array.get right)) string_rows;
  Buffer.contents buf

let print ?float_digits ~header rows =
  print_string (render ?float_digits ~header rows)
