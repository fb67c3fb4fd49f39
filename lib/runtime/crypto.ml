(* SHA-1 per RFC 3174 on native ints masked to 32 bits, so the rounds
   allocate nothing (node and replica ids are hashed on hot paths): a
   hash allocates its padded copy, a 16-word message-schedule ring and
   the digest. Message length < 2^32 bits is ample for identifiers and
   cache keys. *)

let mask32 = 0xFFFF_FFFF

let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let sha1 msg =
  let len = String.length msg in
  (* padding: 0x80, zeros, 64-bit big-endian bit length *)
  let padded_len = ((len + 1 + 8 + 63) / 64) * 64 in
  let buf = Bytes.make padded_len '\000' in
  Bytes.blit_string msg 0 buf 0 len;
  Bytes.set buf len '\x80';
  let bitlen = len * 8 in
  for i = 0 to 7 do
    Bytes.set buf (padded_len - 1 - i) (Char.unsafe_chr ((bitlen lsr (8 * i)) land 0xFF))
  done;
  let h0 = ref 0x67452301
  and h1 = ref 0xEFCDAB89
  and h2 = ref 0x98BADCFE
  and h3 = ref 0x10325476
  and h4 = ref 0xC3D2E1F0 in
  (* w.(i land 15) holds schedule word i: word i needs only i-3, i-8,
     i-14 and i-16, the last of which it overwrites *)
  let w = Array.make 16 0 in
  for block = 0 to (padded_len / 64) - 1 do
    let base = block * 64 in
    for i = 0 to 15 do
      let o = base + (4 * i) in
      w.(i) <-
        (Char.code (Bytes.get buf o) lsl 24)
        lor (Char.code (Bytes.get buf (o + 1)) lsl 16)
        lor (Char.code (Bytes.get buf (o + 2)) lsl 8)
        lor Char.code (Bytes.get buf (o + 3))
    done;
    let a = ref !h0 and b = ref !h1 and c = ref !h2 and d = ref !h3 and e = ref !h4 in
    for i = 0 to 79 do
      let s = i land 15 in
      if i >= 16 then
        w.(s) <-
          rotl32
            (w.((i - 3) land 15) lxor w.((i - 8) land 15) lxor w.((i - 14) land 15) lxor w.(s))
            1;
      let f =
        if i < 20 then (!b land !c) lor (lnot !b land !d)
        else if i < 40 || i >= 60 then !b lxor !c lxor !d
        else (!b land !c) lor (!b land !d) lor (!c land !d)
      in
      let k =
        if i < 20 then 0x5A827999
        else if i < 40 then 0x6ED9EBA1
        else if i < 60 then 0x8F1BBCDC
        else 0xCA62C1D6
      in
      let tmp = (rotl32 !a 5 + f + !e + k + w.(s)) land mask32 in
      e := !d;
      d := !c;
      c := rotl32 !b 30;
      b := !a;
      a := tmp
    done;
    h0 := (!h0 + !a) land mask32;
    h1 := (!h1 + !b) land mask32;
    h2 := (!h2 + !c) land mask32;
    h3 := (!h3 + !d) land mask32;
    h4 := (!h4 + !e) land mask32
  done;
  let out = Bytes.create 20 in
  let put i v =
    for j = 0 to 3 do
      Bytes.set out ((4 * i) + j) (Char.unsafe_chr ((v lsr (8 * (3 - j))) land 0xFF))
    done
  in
  put 0 !h0;
  put 1 !h1;
  put 2 !h2;
  put 3 !h3;
  put 4 !h4;
  Bytes.unsafe_to_string out

let sha1_hex msg =
  let d = sha1 msg in
  let b = Buffer.create 40 in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents b

let hash_to_id s ~bits =
  if bits < 1 || bits > 62 then invalid_arg "Crypto.hash_to_id";
  let d = sha1 s in
  let v = ref 0 in
  (* take the first 8 bytes big-endian, then truncate *)
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v land ((1 lsl bits) - 1)
