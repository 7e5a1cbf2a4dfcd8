type align = Left | Right | Center

type row = Cells of string list | Sep

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : row list; (* reversed *)
}

let create ?aligns headers =
  let aligns =
    match aligns with
    | Some a -> a
    | None -> (
        match headers with
        | [] -> []
        | _ :: rest -> Left :: List.map (fun _ -> Right) rest)
  in
  { headers; aligns; rows = [] }

let ncols t = List.length t.headers

let add_row t cells =
  let n = List.length cells in
  if n > ncols t then invalid_arg "Table.add_row: too many cells";
  let padded = cells @ List.init (ncols t - n) (fun _ -> "") in
  t.rows <- Cells padded :: t.rows

let add_sep t = t.rows <- Sep :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = width - n in
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s
    | Center ->
        let l = fill / 2 in
        String.make l ' ' ^ s ^ String.make (fill - l) ' '

let render t =
  let rows = List.rev t.rows in
  let all_cell_rows =
    t.headers :: List.filter_map (function Cells c -> Some c | Sep -> None) rows
  in
  let widths =
    List.mapi
      (fun i _ ->
        List.fold_left
          (fun acc cells -> max acc (String.length (List.nth cells i)))
          0 all_cell_rows)
      t.headers
  in
  let aligns =
    let rec extend a n =
      match (a, n) with
      | _, 0 -> []
      | [], n -> Left :: extend [] (n - 1)
      | x :: rest, n -> x :: extend rest (n - 1)
    in
    extend t.aligns (ncols t)
  in
  let buf = Buffer.create 256 in
  let hline () =
    Buffer.add_char buf '+';
    List.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let emit_cells cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        let a = List.nth aligns i in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad a w cell);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  hline ();
  emit_cells t.headers;
  hline ();
  List.iter (function Cells c -> emit_cells c | Sep -> hline ()) rows;
  hline ();
  Buffer.contents buf

let cell_float f =
  if Float.is_integer f then string_of_int (int_of_float f)
  else Printf.sprintf "%.1f" f
