(* Paged growable storage: the columns of the engine's heaps and of the
   net's message slots.

   A doubling array copies every element into a new array each time it
   grows, and the old arrays stay in the major heap until the next sweep:
   a queue at its high-water mark leaves up to its capacity again in
   garbage. Below one page the storage is still one array that doubles
   (cheap at that size, and a small queue keeps one compact block); past
   one page it grows by appending a fixed-size page to the spine, and no
   element is ever copied again. Entry [i] lives at
   [spine.(i lsr bits).(i land mask)], the page-0 case included. *)

let bits = 12
let size = 1 lsl bits
let mask = size - 1

type 'a t = { mutable spine : 'a array array; mutable cap : int; fill : 'a }

let create fill = { spine = [||]; cap = 0; fill }

let grow t ~first =
  let cap = t.cap in
  if cap < size then begin
    let ncap = if cap = 0 then first else 2 * cap in
    let page = Array.make ncap t.fill in
    if cap > 0 then Array.blit (Array.unsafe_get t.spine 0) 0 page 0 cap;
    if Array.length t.spine = 0 then t.spine <- [| page |] else Array.unsafe_set t.spine 0 page;
    t.cap <- ncap
  end
  else begin
    let n = cap lsr bits in
    if n = Array.length t.spine then begin
      (* the spine holds one word per page: doubling it copies pointers,
         never elements *)
      let spine = Array.make (2 * n) [||] in
      Array.blit t.spine 0 spine 0 n;
      t.spine <- spine
    end;
    Array.unsafe_set t.spine n (Array.make size t.fill);
    t.cap <- cap + size
  end

(* A one-page spine stays (its page does not): a small queue that
   empties and refills does not reallocate it. *)
let release t =
  if Array.length t.spine = 1 then Array.unsafe_set t.spine 0 [||] else t.spine <- [||];
  t.cap <- 0
