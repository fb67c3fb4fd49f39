let section title =
  let line = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n" line title line

let kv k v = Printf.printf "  %-32s %s\n" (k ^ ":") v

let kvf k fmt = Format.kasprintf (fun s -> kv k s) fmt

let table ~header rows =
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) (List.length header) rows in
  let pad r = r @ List.init (ncols - List.length r) (fun _ -> "") in
  let all = pad header :: List.map pad rows in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row -> List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let print_row row =
    print_string "  ";
    List.iteri (fun i cell -> Printf.printf "%-*s  " widths.(i) cell) row;
    print_newline ()
  in
  print_row (pad header);
  print_string "  ";
  Array.iter (fun w -> print_string (String.make w '-' ^ "  ")) widths;
  print_newline ();
  List.iter print_row (List.map pad rows)

let float_cell ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v

let percentile_header ps = List.map (fun p -> Printf.sprintf "p%g" p) ps

let bar v ~max ~width =
  let n =
    if max <= 0.0 then 0 else int_of_float (Float.of_int width *. v /. max +. 0.5)
  in
  let n = if n < 0 then 0 else if n > width then width else n in
  String.make n '#'
