(* Specialized 4-ary min-heap on an inlined (at, seq) key.

   The engine's schedule/pop loop is the hottest path of every experiment,
   and the generic closure-comparator heap paid for it twice: an indirect
   call per comparison and a boxed-float load per key. Here the keys live
   in parallel arrays — [ats] is an unboxed float array, [seqs] an int
   array — so a comparison is two scalar loads and the sift loops move a
   hole instead of swapping. 4-ary halves the tree depth, which is where
   the pops spend their time.

   Order: strictly by [(at, seq)] lexicographically. Callers hand out
   unique [seq] values, so the key order is total and the pop sequence is
   exactly sorted order — FIFO among entries that share [at]. *)

(* Single-field float record: flat representation, so mutating [v] writes
   an unboxed double in place (a plain mutable float field of the mixed
   record below would be boxed and re-boxed on every store). *)
type fcell = Splay_obs.Obs.clock = { mutable v : float }

type 'a t = {
  mutable ats : float array;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable size : int;
  popped_at : fcell;
  dummy : 'a; (* fills every slot at or past [size] *)
}

let create ~dummy = { ats = [||]; seqs = [||]; data = [||]; size = 0; popped_at = { v = nan }; dummy }

let size t = t.size

let ensure_capacity t =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nats = Array.make ncap 0.0 in
    let nseqs = Array.make ncap 0 in
    let ndata = Array.make ncap t.dummy in
    Array.blit t.ats 0 nats 0 t.size;
    Array.blit t.seqs 0 nseqs 0 t.size;
    Array.blit t.data 0 ndata 0 t.size;
    t.ats <- nats;
    t.seqs <- nseqs;
    t.data <- ndata
  end

let push t ~at:(c : fcell) ~seq x =
  let at = c.v in
  ensure_capacity t;
  (* sift the hole up, then drop the new entry in *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let p = (!i - 1) / 4 in
    let pat = t.ats.(p) in
    if pat > at || (pat = at && t.seqs.(p) > seq) then begin
      t.ats.(!i) <- pat;
      t.seqs.(!i) <- t.seqs.(p);
      t.data.(!i) <- t.data.(p);
      i := p
    end
    else stop := true
  done;
  t.ats.(!i) <- at;
  t.seqs.(!i) <- seq;
  t.data.(!i) <- x

(* Sift the entry (at, seq, x) down from the hole at [start]. *)
let sift_down t start ~at ~seq x =
  let n = t.size in
  let i = ref start in
  let stop = ref false in
  while not !stop do
    let c1 = (4 * !i) + 1 in
    if c1 >= n then stop := true
    else begin
      let last = if c1 + 3 < n - 1 then c1 + 3 else n - 1 in
      let m = ref c1 in
      for c = c1 + 1 to last do
        if
          t.ats.(c) < t.ats.(!m)
          || (t.ats.(c) = t.ats.(!m) && t.seqs.(c) < t.seqs.(!m))
        then m := c
      done;
      let m = !m in
      if t.ats.(m) < at || (t.ats.(m) = at && t.seqs.(m) < seq) then begin
        t.ats.(!i) <- t.ats.(m);
        t.seqs.(!i) <- t.seqs.(m);
        t.data.(!i) <- t.data.(m);
        i := m
      end
      else stop := true
    end
  done;
  t.ats.(!i) <- at;
  t.seqs.(!i) <- seq;
  t.data.(!i) <- x

let min_at t = if t.size = 0 then infinity else t.ats.(0)
let keys t = t.ats
let seqs t = t.seqs

let popped_cell t = t.popped_at

(* precondition: t.size > 0 *)
let pop_nonempty t =
  let top = t.data.(0) in
  t.popped_at.v <- t.ats.(0);
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let at = t.ats.(n) and seq = t.seqs.(n) and x = t.data.(n) in
    sift_down t 0 ~at ~seq x
  end;
  (* sift_down left live elements in [0, n). The vacated slot gets the
     dummy, not a live entry: a live entry parked there stays reachable
     through the slot after it is popped in turn, so a queue that shrank
     from its high-water mark would keep that many popped payloads. *)
  t.data.(n) <- t.dummy;
  top

let pop t = if t.size = 0 then None else Some (pop_nonempty t)
let pop_or t dflt = if t.size = 0 then dflt else pop_nonempty t
let top_or t dflt = if t.size = 0 then dflt else t.data.(0)

let filter_in_place t pred =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    if pred t.data.(i) then begin
      if !j <> i then begin
        t.ats.(!j) <- t.ats.(i);
        t.seqs.(!j) <- t.seqs.(i);
        t.data.(!j) <- t.data.(i)
      end;
      incr j
    end
  done;
  let kept = !j in
  (* overwrite dropped slots so they are collectable *)
  for i = kept to t.size - 1 do
    t.data.(i) <- t.dummy
  done;
  t.size <- kept;
  if kept = 0 then begin
    t.ats <- [||];
    t.seqs <- [||];
    t.data <- [||]
  end
  else
    (* Floyd heapify: restore the heap property bottom-up *)
    for i = (kept - 2) / 4 downto 0 do
      sift_down t i ~at:t.ats.(i) ~seq:t.seqs.(i) t.data.(i)
    done
