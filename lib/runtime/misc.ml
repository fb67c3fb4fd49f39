let norm x ~modulus =
  let r = x mod modulus in
  if r < 0 then r + modulus else r

let between x a b ~modulus ~incl_lo ~incl_hi =
  let x = norm x ~modulus and a = norm a ~modulus and b = norm b ~modulus in
  if x = a then incl_lo
  else if x = b then incl_hi
  else if a = b then true (* whole ring *)
  else if a < b then x > a && x < b
  else x > a || x < b

let ring_add a b ~modulus = norm (a + b) ~modulus

let ring_distance a b ~modulus = norm (b - a) ~modulus

let pow2 k =
  if k < 0 || k > 62 then invalid_arg "Misc.pow2";
  1 lsl k

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let duration_to_string s =
  if s < 60.0 then Printf.sprintf "%.1fs" s
  else if s < 3600.0 then Printf.sprintf "%dm%02ds" (int_of_float s / 60) (int_of_float s mod 60)
  else Printf.sprintf "%dh%02dm" (int_of_float s / 3600) (int_of_float s mod 3600 / 60)
