(* Specialized 4-ary min-heap on an inlined (at, seq) key.

   The engine's schedule/pop loop is the hottest path of every experiment,
   and the generic closure-comparator heap paid for it twice: an indirect
   call per comparison and a boxed-float load per key. Here the keys live
   in parallel columns — [ats] holds unboxed floats, [seqs] ints — so a
   comparison is two scalar loads and the sift loops move a hole instead
   of swapping. 4-ary halves the tree depth, which is where the pops
   spend their time.

   The columns are paged ({!Pages}): a heap past one page grows by a page
   and never copies its entries, so a queue at its high-water mark leaves
   no copied-out arrays in the major heap. Each sift reads the spines
   once; an entry is [spine.(i lsr bits).(i land mask)].

   Order: strictly by [(at, seq)] lexicographically. Callers hand out
   unique [seq] values, so the key order is total and the pop sequence is
   exactly sorted order — FIFO among entries that share [at]. *)

(* Single-field float record: flat representation, so mutating [v] writes
   an unboxed double in place (a plain mutable float field of the mixed
   record below would be boxed and re-boxed on every store). *)
type fcell = Splay_obs.Obs.clock = { mutable v : float }

type 'a t = {
  ats : float Pages.t;
  seqs : int Pages.t;
  data : 'a Pages.t; (* filled with the dummy at every slot at or past [size] *)
  mutable size : int;
  popped_at : fcell;
}

(* The page geometry as constants. Under separate compilation (dune's
   dev profile compiles with [-opaque]) [Pages.bits] is a load from
   memory at every index, which showed in the sift loops; the two must
   agree, which module initialisation checks. *)
let bits = 12
let mask = (1 lsl bits) - 1
let () = assert (bits = Pages.bits)

(* Column reads and writes, typed here: a call into {!Pages} would box
   the float keys and cost a call per comparison. *)
let[@inline] fget (s : float array array) i =
  Array.unsafe_get (Array.unsafe_get s (i lsr bits)) (i land mask)

let[@inline] fset (s : float array array) i (x : float) =
  Array.unsafe_set (Array.unsafe_get s (i lsr bits)) (i land mask) x

let[@inline] iget (s : int array array) i =
  Array.unsafe_get (Array.unsafe_get s (i lsr bits)) (i land mask)

let[@inline] iset (s : int array array) i (x : int) =
  Array.unsafe_set (Array.unsafe_get s (i lsr bits)) (i land mask) x

let[@inline] get (s : 'a array array) i =
  Array.unsafe_get (Array.unsafe_get s (i lsr bits)) (i land mask)

let[@inline] set (s : 'a array array) i x =
  Array.unsafe_set (Array.unsafe_get s (i lsr bits)) (i land mask) x

let first = 16

let create ~dummy =
  {
    ats = Pages.create 0.0;
    seqs = Pages.create 0;
    data = Pages.create dummy;
    size = 0;
    popped_at = { v = nan };
  }

let size t = t.size

let release t =
  Pages.release t.ats;
  Pages.release t.seqs;
  Pages.release t.data

let ensure_capacity t =
  if t.size = t.data.cap then begin
    Pages.grow t.ats ~first;
    Pages.grow t.seqs ~first;
    Pages.grow t.data ~first
  end

let push t ~at:(c : fcell) ~seq x =
  let at = c.v in
  ensure_capacity t;
  let ats = t.ats.spine and seqs = t.seqs.spine and data = t.data.spine in
  (* sift the hole up, then drop the new entry in *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let p = (!i - 1) / 4 in
    let pat = fget ats p in
    if pat > at || (pat = at && iget seqs p > seq) then begin
      fset ats !i pat;
      iset seqs !i (iget seqs p);
      set data !i (get data p);
      i := p
    end
    else stop := true
  done;
  fset ats !i at;
  iset seqs !i seq;
  set data !i x

(* Sift the entry (at, seq, x) down from the hole at [start]. *)
let sift_down t start ~at ~seq x =
  let ats = t.ats.spine and seqs = t.seqs.spine and data = t.data.spine in
  let n = t.size in
  let i = ref start in
  let stop = ref false in
  while not !stop do
    let c1 = (4 * !i) + 1 in
    if c1 >= n then stop := true
    else begin
      let last = if c1 + 3 < n - 1 then c1 + 3 else n - 1 in
      let m = ref c1 and mat = ref (fget ats c1) in
      for c = c1 + 1 to last do
        let cat = fget ats c in
        if cat < !mat || (cat = !mat && iget seqs c < iget seqs !m) then begin
          m := c;
          mat := cat
        end
      done;
      let m = !m and mat = !mat in
      if mat < at || (mat = at && iget seqs m < seq) then begin
        fset ats !i mat;
        iset seqs !i (iget seqs m);
        set data !i (get data m);
        i := m
      end
      else stop := true
    end
  done;
  fset ats !i at;
  iset seqs !i seq;
  set data !i x

let min_at t = if t.size = 0 then infinity else fget t.ats.spine 0

(* Index 0 lives on page 0 at every capacity. *)
let keys t = if t.size = 0 then [||] else Array.unsafe_get t.ats.spine 0
let seqs t = if t.size = 0 then [||] else Array.unsafe_get t.seqs.spine 0

let popped_cell t = t.popped_at

(* precondition: t.size > 0 *)
let pop_nonempty t =
  let top = get t.data.spine 0 in
  t.popped_at.v <- fget t.ats.spine 0;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let at = fget t.ats.spine n and seq = iget t.seqs.spine n and x = get t.data.spine n in
    sift_down t 0 ~at ~seq x;
    (* sift_down left live elements in [0, n). The vacated slot gets the
       dummy, not a live entry: a live entry parked there stays reachable
       through the slot after it is popped in turn, so a queue that shrank
       from its high-water mark would keep that many popped payloads. *)
    set t.data.spine n t.data.fill
  end
  else if t.data.cap > Pages.size then
    (* emptied from past one page: drop every page. A smaller heap keeps
       its one array, so a queue that drains and refills does not
       reallocate it each time *)
    release t
  else set t.data.spine 0 t.data.fill;
  top

let pop t = if t.size = 0 then None else Some (pop_nonempty t)
let pop_or t dflt = if t.size = 0 then dflt else pop_nonempty t
let top_or t dflt = if t.size = 0 then dflt else get t.data.spine 0

let filter_in_place t pred =
  let ats = t.ats.spine and seqs = t.seqs.spine and data = t.data.spine in
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let x = get data i in
    if pred x then begin
      if !j <> i then begin
        fset ats !j (fget ats i);
        iset seqs !j (iget seqs i);
        set data !j x
      end;
      incr j
    end
  done;
  let kept = !j in
  (* overwrite dropped slots so they are collectable *)
  for i = kept to t.size - 1 do
    set data i t.data.fill
  done;
  t.size <- kept;
  if kept = 0 then release t
  else
    (* Floyd heapify: restore the heap property bottom-up *)
    for i = (kept - 2) / 4 downto 0 do
      sift_down t i ~at:(fget ats i) ~seq:(iget seqs i) (get data i)
    done
