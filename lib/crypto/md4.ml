(* RFC 1320. 32-bit arithmetic is done on native ints masked to 32 bits.

   The compression function is straight-line: it reads the block's sixteen
   words into locals with unchecked little-endian loads and runs the 48
   steps written out, so nothing is allocated per block. Whole blocks of
   the message are read where they lie, after one range check; only the
   tail and the padding, one or two blocks, go through a scratch buffer of
   at most 128 bytes. *)

let digest_size = 16

let mask = 0xFFFFFFFF

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] word m pos =
  let w = get32u m pos in
  Int32.to_int (if Sys.big_endian then swap32 w else w) land mask

let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let[@inline] r1 a b c d x s = rotl ((a + ((b land c) lor (lnot b land d)) + x) land mask) s

let[@inline] r2 a b c d x s =
  rotl ((a + ((b land c) lor (b land d) lor (c land d)) + x + 0x5a827999) land mask) s

let[@inline] r3 a b c d x s = rotl ((a + (b lxor c lxor d) + x + 0x6ed9eba1) land mask) s

type state = { mutable a : int; mutable b : int; mutable c : int; mutable d : int }

(* Folds the 64-byte block at [pos] of [m] into [st]. The loads are
   unchecked: every caller has checked that the block lies inside [m]. *)
let compress st m pos =
  let x0 = word m pos
  and x1 = word m (pos + 4)
  and x2 = word m (pos + 8)
  and x3 = word m (pos + 12) in
  let x4 = word m (pos + 16)
  and x5 = word m (pos + 20)
  and x6 = word m (pos + 24)
  and x7 = word m (pos + 28) in
  let x8 = word m (pos + 32)
  and x9 = word m (pos + 36)
  and x10 = word m (pos + 40)
  and x11 = word m (pos + 44) in
  let x12 = word m (pos + 48)
  and x13 = word m (pos + 52)
  and x14 = word m (pos + 56)
  and x15 = word m (pos + 60) in
  let a = st.a and b = st.b and c = st.c and d = st.d in
  (* Round 1 *)
  let a = r1 a b c d x0 3 in
  let d = r1 d a b c x1 7 in
  let c = r1 c d a b x2 11 in
  let b = r1 b c d a x3 19 in
  let a = r1 a b c d x4 3 in
  let d = r1 d a b c x5 7 in
  let c = r1 c d a b x6 11 in
  let b = r1 b c d a x7 19 in
  let a = r1 a b c d x8 3 in
  let d = r1 d a b c x9 7 in
  let c = r1 c d a b x10 11 in
  let b = r1 b c d a x11 19 in
  let a = r1 a b c d x12 3 in
  let d = r1 d a b c x13 7 in
  let c = r1 c d a b x14 11 in
  let b = r1 b c d a x15 19 in
  (* Round 2 *)
  let a = r2 a b c d x0 3 in
  let d = r2 d a b c x4 5 in
  let c = r2 c d a b x8 9 in
  let b = r2 b c d a x12 13 in
  let a = r2 a b c d x1 3 in
  let d = r2 d a b c x5 5 in
  let c = r2 c d a b x9 9 in
  let b = r2 b c d a x13 13 in
  let a = r2 a b c d x2 3 in
  let d = r2 d a b c x6 5 in
  let c = r2 c d a b x10 9 in
  let b = r2 b c d a x14 13 in
  let a = r2 a b c d x3 3 in
  let d = r2 d a b c x7 5 in
  let c = r2 c d a b x11 9 in
  let b = r2 b c d a x15 13 in
  (* Round 3 *)
  let a = r3 a b c d x0 3 in
  let d = r3 d a b c x8 9 in
  let c = r3 c d a b x4 11 in
  let b = r3 b c d a x12 15 in
  let a = r3 a b c d x2 3 in
  let d = r3 d a b c x10 9 in
  let c = r3 c d a b x6 11 in
  let b = r3 b c d a x14 15 in
  let a = r3 a b c d x1 3 in
  let d = r3 d a b c x9 9 in
  let c = r3 c d a b x5 11 in
  let b = r3 b c d a x13 15 in
  let a = r3 a b c d x3 3 in
  let d = r3 d a b c x11 9 in
  let c = r3 c d a b x7 11 in
  let b = r3 b c d a x15 15 in
  st.a <- (st.a + a) land mask;
  st.b <- (st.b + b) land mask;
  st.c <- (st.c + c) land mask;
  st.d <- (st.d + d) land mask

let digest_sub m ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length m - len then invalid_arg "Md4.digest_sub";
  let st = { a = 0x67452301; b = 0xefcdab89; c = 0x98badcfe; d = 0x10325476 } in
  let full = len land lnot 63 in
  let off = ref pos in
  while !off < pos + full do
    compress st m !off;
    off := !off + 64
  done;
  (* The tail, the 0x80 marker, zeros and the 64-bit bit length: one block,
     or two when the tail leaves no room for the length. *)
  let rest = len - full in
  let tail = Bytes.make (if rest < 56 then 64 else 128) '\000' in
  Bytes.blit m (pos + full) tail 0 rest;
  Bytes.set tail rest '\x80';
  Bytes.set_int64_le tail (Bytes.length tail - 8) (Int64.of_int (len * 8));
  compress st tail 0;
  if rest >= 56 then compress st tail 64;
  let out = Bytes.create 16 in
  Bytes.set_int32_le out 0 (Int32.of_int st.a);
  Bytes.set_int32_le out 4 (Int32.of_int st.b);
  Bytes.set_int32_le out 8 (Int32.of_int st.c);
  Bytes.set_int32_le out 12 (Int32.of_int st.d);
  out

let digest b = digest_sub b ~pos:0 ~len:(Bytes.length b)

let hex_digest b = Util.Bytesutil.to_hex (digest b)

let hmac_des_sub ~key b ~pos ~len =
  let k = Des.schedule_cached key in
  Mode.cbc_encrypt k ~iv:Mode.zero_iv (digest_sub b ~pos ~len)

let hmac_des ~key b = hmac_des_sub ~key b ~pos:0 ~len:(Bytes.length b)
