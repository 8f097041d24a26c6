(* Tables are copied from FIPS 46-3; bit positions are 1-based from the most
   significant bit, as in the standard.

   The block kernel is shaped by its latency chain: each round's output
   feeds the next round's S-box indices, so what sets the speed is the work
   between one round and the next, not the number of table lookups.

   - Both Feistel halves stay in a 34-bit, already-expanded form
     ([expand]) for all sixteen rounds. E only copies bits, so it commutes
     with the xor that joins the halves, and the SP table stores its
     entries in the same form: no round re-expands anything.
   - A round subkey is one word holding all eight S-boxes' 6-bit chunks,
     laid out so that the word keys the odd boxes as it is and the even
     boxes shifted down once. A round is then one shift, off the chain,
     two xors, eight lookups into one 512-entry table and an or-tree
     three levels deep, inlined into straight-line encrypt and decrypt
     bodies.
   - Decryption has its own body that reads the subkeys backwards, and a
     two-block form ([decrypt_pair]) for the modes whose decryption has no
     chain, so two blocks' rounds overlap in the pipeline.
   - The schedule applies PC1 and PC2 as tables indexed one byte at a
     time.

   IP and FP are the classic five-step Hoey/Kwan bit-swap networks on
   32-bit halves. [Reference] keeps the bit-by-bit cipher and schedule as
   the oracle the tests compare against. *)

let initial_permutation =
  [| 58; 50; 42; 34; 26; 18; 10; 2;
     60; 52; 44; 36; 28; 20; 12; 4;
     62; 54; 46; 38; 30; 22; 14; 6;
     64; 56; 48; 40; 32; 24; 16; 8;
     57; 49; 41; 33; 25; 17;  9; 1;
     59; 51; 43; 35; 27; 19; 11; 3;
     61; 53; 45; 37; 29; 21; 13; 5;
     63; 55; 47; 39; 31; 23; 15; 7 |]

let final_permutation =
  [| 40; 8; 48; 16; 56; 24; 64; 32;
     39; 7; 47; 15; 55; 23; 63; 31;
     38; 6; 46; 14; 54; 22; 62; 30;
     37; 5; 45; 13; 53; 21; 61; 29;
     36; 4; 44; 12; 52; 20; 60; 28;
     35; 3; 43; 11; 51; 19; 59; 27;
     34; 2; 42; 10; 50; 18; 58; 26;
     33; 1; 41;  9; 49; 17; 57; 25 |]

let expansion =
  [| 32;  1;  2;  3;  4;  5;
      4;  5;  6;  7;  8;  9;
      8;  9; 10; 11; 12; 13;
     12; 13; 14; 15; 16; 17;
     16; 17; 18; 19; 20; 21;
     20; 21; 22; 23; 24; 25;
     24; 25; 26; 27; 28; 29;
     28; 29; 30; 31; 32;  1 |]

let p_permutation =
  [| 16;  7; 20; 21;
     29; 12; 28; 17;
      1; 15; 23; 26;
      5; 18; 31; 10;
      2;  8; 24; 14;
     32; 27;  3;  9;
     19; 13; 30;  6;
     22; 11;  4; 25 |]

let pc1 =
  [| 57; 49; 41; 33; 25; 17;  9;
      1; 58; 50; 42; 34; 26; 18;
     10;  2; 59; 51; 43; 35; 27;
     19; 11;  3; 60; 52; 44; 36;
     63; 55; 47; 39; 31; 23; 15;
      7; 62; 54; 46; 38; 30; 22;
     14;  6; 61; 53; 45; 37; 29;
     21; 13;  5; 28; 20; 12;  4 |]

let pc2 =
  [| 14; 17; 11; 24;  1;  5;
      3; 28; 15;  6; 21; 10;
     23; 19; 12;  4; 26;  8;
     16;  7; 27; 20; 13;  2;
     41; 52; 31; 37; 47; 55;
     30; 40; 51; 45; 33; 48;
     44; 49; 39; 56; 34; 53;
     46; 42; 50; 36; 29; 32 |]

let rotations = [| 1; 1; 2; 2; 2; 2; 2; 2; 1; 2; 2; 2; 2; 2; 2; 1 |]

let sboxes =
  [| (* S1 *)
     [| 14;  4; 13;  1;  2; 15; 11;  8;  3; 10;  6; 12;  5;  9;  0;  7;
         0; 15;  7;  4; 14;  2; 13;  1; 10;  6; 12; 11;  9;  5;  3;  8;
         4;  1; 14;  8; 13;  6;  2; 11; 15; 12;  9;  7;  3; 10;  5;  0;
        15; 12;  8;  2;  4;  9;  1;  7;  5; 11;  3; 14; 10;  0;  6; 13 |];
     (* S2 *)
     [| 15;  1;  8; 14;  6; 11;  3;  4;  9;  7;  2; 13; 12;  0;  5; 10;
         3; 13;  4;  7; 15;  2;  8; 14; 12;  0;  1; 10;  6;  9; 11;  5;
         0; 14;  7; 11; 10;  4; 13;  1;  5;  8; 12;  6;  9;  3;  2; 15;
        13;  8; 10;  1;  3; 15;  4;  2; 11;  6;  7; 12;  0;  5; 14;  9 |];
     (* S3 *)
     [| 10;  0;  9; 14;  6;  3; 15;  5;  1; 13; 12;  7; 11;  4;  2;  8;
        13;  7;  0;  9;  3;  4;  6; 10;  2;  8;  5; 14; 12; 11; 15;  1;
        13;  6;  4;  9;  8; 15;  3;  0; 11;  1;  2; 12;  5; 10; 14;  7;
         1; 10; 13;  0;  6;  9;  8;  7;  4; 15; 14;  3; 11;  5;  2; 12 |];
     (* S4 *)
     [|  7; 13; 14;  3;  0;  6;  9; 10;  1;  2;  8;  5; 11; 12;  4; 15;
        13;  8; 11;  5;  6; 15;  0;  3;  4;  7;  2; 12;  1; 10; 14;  9;
        10;  6;  9;  0; 12; 11;  7; 13; 15;  1;  3; 14;  5;  2;  8;  4;
         3; 15;  0;  6; 10;  1; 13;  8;  9;  4;  5; 11; 12;  7;  2; 14 |];
     (* S5 *)
     [|  2; 12;  4;  1;  7; 10; 11;  6;  8;  5;  3; 15; 13;  0; 14;  9;
        14; 11;  2; 12;  4;  7; 13;  1;  5;  0; 15; 10;  3;  9;  8;  6;
         4;  2;  1; 11; 10; 13;  7;  8; 15;  9; 12;  5;  6;  3;  0; 14;
        11;  8; 12;  7;  1; 14;  2; 13;  6; 15;  0;  9; 10;  4;  5;  3 |];
     (* S6 *)
     [| 12;  1; 10; 15;  9;  2;  6;  8;  0; 13;  3;  4; 14;  7;  5; 11;
        10; 15;  4;  2;  7; 12;  9;  5;  6;  1; 13; 14;  0; 11;  3;  8;
         9; 14; 15;  5;  2;  8; 12;  3;  7;  0;  4; 10;  1; 13; 11;  6;
         4;  3;  2; 12;  9;  5; 15; 10; 11; 14;  1;  7;  6;  0;  8; 13 |];
     (* S7 *)
     [|  4; 11;  2; 14; 15;  0;  8; 13;  3; 12;  9;  7;  5; 10;  6;  1;
        13;  0; 11;  7;  4;  9;  1; 10; 14;  3;  5; 12;  2; 15;  8;  6;
         1;  4; 11; 13; 12;  3;  7; 14; 10; 15;  6;  8;  0;  5;  9;  2;
         6; 11; 13;  8;  1;  4; 10;  7;  9;  5;  0; 15; 14;  2;  3; 12 |];
     (* S8 *)
     [| 13;  2;  8;  4;  6; 15; 11;  1; 10;  9;  3; 14;  5;  0; 12;  7;
         1; 15; 13;  8; 10;  3;  7;  4; 12;  5;  6; 11;  0; 14;  9;  2;
         7; 11;  4;  1;  9; 12; 14;  2;  0;  6; 10; 13; 15;  3;  5;  8;
         2;  1; 14;  7;  4; 10;  8; 13; 15; 12;  9;  0;  3;  5;  6; 11 |] |]

(* [permute table width x]: [x] holds a [width]-bit value right-aligned; the
   result has [Array.length table] bits, where output bit i (1-based from the
   MSB) is input bit [table.(i-1)]. Builds the kernel's tables and runs
   [Reference]; the block and schedule hot paths never call it. *)
let permute table width x =
  let out_width = Array.length table in
  let out = ref 0L in
  for i = 0 to out_width - 1 do
    let bit = Int64.logand (Int64.shift_right_logical x (width - table.(i))) 1L in
    out := Int64.logor (Int64.shift_left !out 1) bit
  done;
  !out

let rotl28 x n = ((x lsl n) lor (x lsr (28 - n))) land 0xFFFFFFF

let schedules = ref 0
let schedules_performed () = !schedules
let blocks = ref 0
let blocks_performed () = !blocks

let block_size = 8

(* --- the expanded form -------------------------------------------------

   The E expansion reads eight overlapping 6-bit windows of the cyclic
   sequence bit32, bit1..bit32, bit1. [expand r] materializes that sequence
   as a 34-bit word; the window of S-box [g] is then
   [(expand r lsr (28 - 4g)) land 63]. *)
let[@inline] expand r = ((r land 1) lsl 33) lor (r lsl 1) lor (r lsr 31)
let[@inline] compress w = (w lsr 1) land 0xFFFFFFFF

(* [sp.((g lsl 6) lor v)] is the expanded form of P(S_g(v)), with S_g's
   4-bit output placed at its nibble of the 32-bit half: the 6-bit input
   [v] picks the row from its outer bits and the column from its middle
   four, as in the standard. One table rather than eight, so a round keeps
   one base address in a register. *)
let sp =
  Array.init 512 (fun i ->
      let box = i lsr 6 and v = i land 63 in
      let row = ((v lsr 4) land 2) lor (v land 1) in
      let col = (v lsr 1) land 0xF in
      let placed = sboxes.(box).((row * 16) + col) lsl (4 * (7 - box)) in
      expand (Int64.to_int (permute p_permutation 32 (Int64.of_int placed))))

(* --- key schedule ------------------------------------------------------

   Round [i]'s subkey is [sk.(i)], one word holding the 6-bit chunk of
   every S-box [g] at [28 - 4g], the offset of its window in the expanded
   half, plus 28 when [g] is even: the odd boxes' at 24, 16, 8 and 0, the
   even boxes' at 56, 48, 40 and 32. Within one parity the windows do not
   overlap, so one xor keys four boxes: the word itself keys the odd
   boxes, whose lookups mask off every bit above their windows, and the
   word shifted down by 28 keys the even boxes. That shift brings the odd
   chunks' top two bits into bits 0-1, which no even window reads, and
   leaves the word below 2^34, like an expanded half. A key is these 16
   words and nothing else (17 heap words with the header): the raw key is
   not kept, so a schedule held by a session or the memo costs its
   subkeys alone. *)
type key = int array

(* A 48-bit FIPS subkey (box [g]'s chunk in bits [47-6g .. 42-6g]) in the
   packed layout above. *)
let pack_subkey k =
  let at g = ((k lsr (42 - (6 * g))) land 63) lsl (28 - (4 * g)) in
  ((at 0 lor at 2 lor at 4 lor at 6) lsl 28) lor at 1 lor at 3 lor at 5 lor at 7

(* PC1 and PC2 only copy bits, so each is the or of per-byte parts.
   [by_byte ~bytes f] tabulates [f] on every [bytes]-byte input with one
   non-zero byte: entry [(b lsl 8) lor v] is [f] of byte [b] (from the
   most significant) holding [v]. PC1 never reads a key's parity bits. *)
let by_byte ~bytes f =
  Array.init (bytes * 256) (fun i ->
      f (Int64.shift_left (Int64.of_int (i land 255)) (8 * (bytes - 1 - (i lsr 8)))))

let pc1_bytes = by_byte ~bytes:8 (fun x -> Int64.to_int (permute pc1 64 x))
let pc2_bytes = by_byte ~bytes:7 (fun cd -> pack_subkey (Int64.to_int (permute pc2 56 cd)))

let schedule k =
  if Bytes.length k <> 8 then invalid_arg "Des.schedule: key must be 8 bytes";
  incr schedules;
  let cd = ref 0 in
  for b = 0 to 7 do
    cd := !cd lor Array.unsafe_get pc1_bytes ((b lsl 8) lor Char.code (Bytes.unsafe_get k b))
  done;
  let c = ref (!cd lsr 28) and d = ref (!cd land 0xFFFFFFF) in
  let sk = Array.make 16 0 in
  for i = 0 to 15 do
    c := rotl28 !c rotations.(i);
    d := rotl28 !d rotations.(i);
    let cd = (!c lsl 28) lor !d in
    let p = ref 0 in
    for b = 0 to 6 do
      p := !p lor Array.unsafe_get pc2_bytes ((b lsl 8) lor ((cd lsr (48 - (8 * b))) land 255))
    done;
    sk.(i) <- !p
  done;
  sk

let subkeys sk =
  Array.init 16 (fun i ->
      let chunk g = (sk.(i) lsr (28 - (4 * g) + (28 * (1 - (g land 1))))) land 63 in
      let s = ref 0 in
      for g = 0 to 7 do
        s := (!s lsl 6) lor chunk g
      done;
      !s)

(* --- the block kernel --------------------------------------------------- *)

(* Round [i] on expanded halves: the next right half, [l] xor f([r], K_i).
   The subkey's shift does not read [r], so it overlaps the previous
   round. [r] and the shifted subkey are 34 bits wide, so the top window
   needs no mask and every index stays inside its box's 64 entries: the
   unsafe gets are in bounds by construction. *)
let[@inline] round sp sk i l r =
  let k = Array.unsafe_get sk i in
  let e = r lxor (k lsr 28) in
  let o = r lxor k in
  l
  lxor ((Array.unsafe_get sp (e lsr 28)
         lor Array.unsafe_get sp (64 + ((o lsr 24) land 63))
        lor (Array.unsafe_get sp (128 + ((e lsr 20) land 63))
             lor Array.unsafe_get sp (192 + ((o lsr 16) land 63))))
       lor ((Array.unsafe_get sp (256 + ((e lsr 12) land 63))
             lor Array.unsafe_get sp (320 + ((o lsr 8) land 63)))
           lor (Array.unsafe_get sp (384 + ((e lsr 4) land 63))
                lor Array.unsafe_get sp (448 + (o land 63)))))

type halves = { mutable hi : int; mutable lo : int }

(* IP, in place. *)
let[@inline] ip st =
  let l = st.hi and r = st.lo in
  let t = ((l lsr 4) lxor r) land 0x0f0f0f0f in
  let r = r lxor t and l = l lxor (t lsl 4) in
  let t = ((l lsr 16) lxor r) land 0x0000ffff in
  let r = r lxor t and l = l lxor (t lsl 16) in
  let t = ((r lsr 2) lxor l) land 0x33333333 in
  let l = l lxor t and r = r lxor (t lsl 2) in
  let t = ((r lsr 8) lxor l) land 0x00ff00ff in
  let l = l lxor t and r = r lxor (t lsl 8) in
  let t = ((l lsr 1) lxor r) land 0x55555555 in
  st.hi <- l lxor (t lsl 1);
  st.lo <- r lxor t

(* FP = IP^-1 (the same swaps, reversed) of the pre-output block [l r],
   stored into [st]. *)
let[@inline] fp st l r =
  let t = ((l lsr 1) lxor r) land 0x55555555 in
  let r = r lxor t and l = l lxor (t lsl 1) in
  let t = ((r lsr 8) lxor l) land 0x00ff00ff in
  let l = l lxor t and r = r lxor (t lsl 8) in
  let t = ((r lsr 2) lxor l) land 0x33333333 in
  let l = l lxor t and r = r lxor (t lsl 2) in
  let t = ((l lsr 16) lxor r) land 0x0000ffff in
  let r = r lxor t and l = l lxor (t lsl 16) in
  let t = ((l lsr 4) lxor r) land 0x0f0f0f0f in
  st.hi <- l lxor (t lsl 4);
  st.lo <- r lxor t

(* Sixteen rounds materialize only the R chain (L_i = R_{i-1}); the
   pre-output block is R16 L16. Nothing is allocated. *)
let encrypt_halves sk st =
  incr blocks;
  ip st;
  let sp = sp in
  let l = expand st.hi and r = expand st.lo in
  let r1 = round sp sk 0 l r in
  let r2 = round sp sk 1 r r1 in
  let r3 = round sp sk 2 r1 r2 in
  let r4 = round sp sk 3 r2 r3 in
  let r5 = round sp sk 4 r3 r4 in
  let r6 = round sp sk 5 r4 r5 in
  let r7 = round sp sk 6 r5 r6 in
  let r8 = round sp sk 7 r6 r7 in
  let r9 = round sp sk 8 r7 r8 in
  let r10 = round sp sk 9 r8 r9 in
  let r11 = round sp sk 10 r9 r10 in
  let r12 = round sp sk 11 r10 r11 in
  let r13 = round sp sk 12 r11 r12 in
  let r14 = round sp sk 13 r12 r13 in
  let r15 = round sp sk 14 r13 r14 in
  let r16 = round sp sk 15 r14 r15 in
  fp st (compress r16) (compress r15)

let decrypt_halves sk st =
  incr blocks;
  ip st;
  let sp = sp in
  let l = expand st.hi and r = expand st.lo in
  let r1 = round sp sk 15 l r in
  let r2 = round sp sk 14 r r1 in
  let r3 = round sp sk 13 r1 r2 in
  let r4 = round sp sk 12 r2 r3 in
  let r5 = round sp sk 11 r3 r4 in
  let r6 = round sp sk 10 r4 r5 in
  let r7 = round sp sk 9 r5 r6 in
  let r8 = round sp sk 8 r6 r7 in
  let r9 = round sp sk 7 r7 r8 in
  let r10 = round sp sk 6 r8 r9 in
  let r11 = round sp sk 5 r9 r10 in
  let r12 = round sp sk 4 r10 r11 in
  let r13 = round sp sk 3 r11 r12 in
  let r14 = round sp sk 2 r12 r13 in
  let r15 = round sp sk 1 r13 r14 in
  let r16 = round sp sk 0 r14 r15 in
  fp st (compress r16) (compress r15)

(* Two independent blocks, round by round, so each round of one fills the
   other's wait on its table loads. *)
let decrypt_pair sk a b =
  blocks := !blocks + 2;
  ip a;
  ip b;
  let sp = sp in
  let al = expand a.hi and ar = expand a.lo in
  let bl = expand b.hi and br = expand b.lo in
  let a1 = round sp sk 15 al ar and b1 = round sp sk 15 bl br in
  let a2 = round sp sk 14 ar a1 and b2 = round sp sk 14 br b1 in
  let a3 = round sp sk 13 a1 a2 and b3 = round sp sk 13 b1 b2 in
  let a4 = round sp sk 12 a2 a3 and b4 = round sp sk 12 b2 b3 in
  let a5 = round sp sk 11 a3 a4 and b5 = round sp sk 11 b3 b4 in
  let a6 = round sp sk 10 a4 a5 and b6 = round sp sk 10 b4 b5 in
  let a7 = round sp sk 9 a5 a6 and b7 = round sp sk 9 b5 b6 in
  let a8 = round sp sk 8 a6 a7 and b8 = round sp sk 8 b6 b7 in
  let a9 = round sp sk 7 a7 a8 and b9 = round sp sk 7 b7 b8 in
  let a10 = round sp sk 6 a8 a9 and b10 = round sp sk 6 b8 b9 in
  let a11 = round sp sk 5 a9 a10 and b11 = round sp sk 5 b9 b10 in
  let a12 = round sp sk 4 a10 a11 and b12 = round sp sk 4 b10 b11 in
  let a13 = round sp sk 3 a11 a12 and b13 = round sp sk 3 b11 b12 in
  let a14 = round sp sk 2 a12 a13 and b14 = round sp sk 2 b12 b13 in
  let a15 = round sp sk 1 a13 a14 and b15 = round sp sk 1 b13 b14 in
  let a16 = round sp sk 0 a14 a15 and b16 = round sp sk 0 b14 b15 in
  fp a (compress a16) (compress a15);
  fp b (compress b16) (compress b15)

let crypt_i64 crypt key x =
  let st =
    { hi = Int64.to_int (Int64.shift_right_logical x 32);
      lo = Int64.to_int (Int64.logand x 0xFFFFFFFFL) }
  in
  crypt key st;
  Int64.logor (Int64.shift_left (Int64.of_int st.hi) 32) (Int64.of_int st.lo)

let encrypt_block_i64 key x = crypt_i64 encrypt_halves key x
let decrypt_block_i64 key x = crypt_i64 decrypt_halves key x

let crypt_block crypt key block =
  if Bytes.length block <> 8 then invalid_arg "Des: block must be 8 bytes";
  let st =
    { hi = (Bytes.get_uint16_be block 0 lsl 16) lor Bytes.get_uint16_be block 2;
      lo = (Bytes.get_uint16_be block 4 lsl 16) lor Bytes.get_uint16_be block 6 }
  in
  crypt key st;
  let out = Bytes.create 8 in
  Bytes.set_uint16_be out 0 (st.hi lsr 16);
  Bytes.set_uint16_be out 2 (st.hi land 0xffff);
  Bytes.set_uint16_be out 4 (st.lo lsr 16);
  Bytes.set_uint16_be out 6 (st.lo land 0xffff);
  out

let encrypt_block key block = crypt_block encrypt_halves key block
let decrypt_block key block = crypt_block decrypt_halves key block

module Reference = struct
  (* The bit-by-bit cipher and schedule: a generic [permute] per component
     per round, straight from the FIPS tables. It takes the raw 8-byte key,
     never the kernel's tables or packed subkeys, so agreement with it is
     evidence about the kernel. *)

  let schedule k =
    if Bytes.length k <> 8 then invalid_arg "Des.Reference.schedule: key must be 8 bytes";
    let cd = Int64.to_int (permute pc1 64 (Bytes.get_int64_be k 0)) in
    let c = ref ((cd lsr 28) land 0xFFFFFFF) in
    let d = ref (cd land 0xFFFFFFF) in
    Array.map
      (fun rot ->
        c := rotl28 !c rot;
        d := rotl28 !d rot;
        Int64.to_int (permute pc2 56 (Int64.of_int ((!c lsl 28) lor !d))))
      rotations

  let f_function r subkey =
    let e = Int64.logxor (permute expansion 32 r) subkey in
    let out = ref 0L in
    for box = 0 to 7 do
      let six =
        Int64.to_int (Int64.logand (Int64.shift_right_logical e ((7 - box) * 6)) 0x3FL)
      in
      let row = ((six lsr 4) land 2) lor (six land 1) in
      let col = (six lsr 1) land 0xF in
      let s = sboxes.(box).((row * 16) + col) in
      out := Int64.logor (Int64.shift_left !out 4) (Int64.of_int s)
    done;
    permute p_permutation 32 !out

  let crypt_block subkey_order key block =
    if Bytes.length block <> 8 then invalid_arg "Des: block must be 8 bytes";
    let subkeys = schedule key in
    let b = Bytes.get_int64_be block 0 in
    let ip = permute initial_permutation 64 b in
    let l = ref (Int64.shift_right_logical ip 32) in
    let r = ref (Int64.logand ip 0xFFFFFFFFL) in
    for i = 0 to 15 do
      let sk = Int64.of_int subkeys.(subkey_order i) in
      let next_r = Int64.logand (Int64.logxor !l (f_function !r sk)) 0xFFFFFFFFL in
      l := !r;
      r := next_r
    done;
    (* Pre-output block is R16 L16 (the halves are swapped). *)
    let preout = Int64.logor (Int64.shift_left !r 32) !l in
    let out = Bytes.create 8 in
    Bytes.set_int64_be out 0 (permute final_permutation 64 preout);
    out

  let encrypt_block key block = crypt_block (fun i -> i) key block
  let decrypt_block key block = crypt_block (fun i -> 15 - i) key block
end

(* [parity_table.[c]] is byte [c] with its low bit set to give the byte
   odd parity, the DES key convention. *)
let parity_table =
  String.init 256 (fun c ->
      let ones = ref 0 in
      for bit = 1 to 7 do
        ones := !ones + ((c lsr bit) land 1)
      done;
      Char.chr ((c land 0xFE) lor (1 - (!ones land 1))))

let fix_parity k =
  let n = Bytes.length k in
  let out = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set out i
      (String.unsafe_get parity_table (Char.code (Bytes.unsafe_get k i)))
  done;
  out

(* The 56 non-parity bits of an 8-byte key as one int: each 32-bit half
   with its parity bits cleared, the first shifted up by 31 (its bit 0 is
   a parity bit, so nothing overlaps and the top bit lands on bit 62).
   Parity fixing only rewrites the bits this drops, so two keys are equal
   after [fix_parity] exactly when their words are equal. *)
let[@inline] half_word k at =
  ((Bytes.get_uint16_be k at lsl 16) lor Bytes.get_uint16_be k (at + 2)) land 0xFEFEFEFE

let key_word k = (half_word k 0 lsl 31) lor half_word k 4

let weak_words =
  Array.of_list
    (List.map
       (fun h -> key_word (Util.Bytesutil.of_hex h))
       [ "0101010101010101"; "fefefefefefefefe"; "e0e0e0e0f1f1f1f1";
         "1f1f1f1f0e0e0e0e";
         (* semi-weak pairs *)
         "011f011f010e010e"; "1f011f010e010e01"; "01e001e001f101f1";
         "e001e001f101f101"; "01fe01fe01fe01fe"; "fe01fe01fe01fe01";
         "1fe01fe00ef10ef1"; "e01fe01ff10ef10e"; "1ffe1ffe0efe0efe";
         "fe1ffe1ffe0efe0e"; "e0fee0fef1fef1fe"; "fee0fee0fef1fef1" ])

let rec weak_from w i =
  i < Array.length weak_words && (Array.unsafe_get weak_words i = w || weak_from w (i + 1))

let is_weak k = Bytes.length k = 8 && weak_from (key_word k) 0

let rec random_key rng =
  let k = fix_parity (Util.Rng.bytes rng 8) in
  if is_weak k then random_key rng else k

(* --- schedule memo -------------------------------------------------------

   A schedule costs a PC1 pass and sixteen rotate-and-PC2 rounds, more than
   enciphering the short messages Kerberos sends, and long-lived keys
   (principal keys, the TGS key, a ticket's session key) are scheduled at
   every sealing site. So [schedule_cached] keeps recent schedules in one
   fixed table: [memo_size] slots in [memo_sets] two-way sets, indexed
   by a hash of [key_word k], the 56 bits that fix [schedule (fix_parity k)]
   exactly. Within a set, way 0 holds the more recently used key: a hit in
   way 1 swaps it forward, and a miss schedules the key into way 0 and
   pushes way 0 into way 1, so the older way is what is overwritten.

   Why 4,096 slots. A key whose life is one session (a hardened session's
   negotiated key, a ticket key minted per request when there is no
   credential cache) is never looked up again once its session ends, so
   an unbounded memo only accumulates them: one that kept every key held
   32,808 schedules (11.8 MiB, at 47 words an entry) at the end of
   hardened_tcp. What the memo must keep is the working set of keys that
   are reused: service keys, the TGS key and the ticket keys of live
   credential caches. A sweep at
   seed 4269, one untraced run per size, read peak heap (MiB) and
   schedules per request as follows; keeping every key read 0.444 and
   2.076 schedules a request when the table was first sized.

       slots    first_wave       hardened_tcp
       1,024    46.02   1.07     22.28   2.25
       2,048    44.93   0.80     22.26   2.13
       4,096    45.22   0.60     22.86   2.09
       8,192    44.22   0.50     23.67   2.08
      16,384    44.60   0.46     25.23   2.08

   A full table costs 19 words a slot: the 17-word schedule and its two
   index words. Each doubling past 4,096 adds 0.8-1.6 MiB to
   hardened_tcp's peak and saves about 0.1 schedules a request or fewer;
   each halving below it adds 0.2-0.3 schedules a request on first_wave.
   first_wave's peak moves by up to 1 MiB from one size to the next with
   no trend, which is the collector's pacing rather than the table. At
   4,096, first_wave's 0.16 added schedules of 0.3-0.6 us each cost at
   most 0.1 us of a request of about 36 us.

   The table is never dropped wholesale, holds no copy of a key (the word
   is the key) and allocates nothing on a hit. It is semantically
   invisible: a hit returns a schedule equal to what [schedule (fix_parity
   k)] would rebuild, and the switch exists so the equivalence tests and
   bench ablations can prove it. *)

let memo_set_bits = 11
let memo_sets = 1 lsl memo_set_bits
let memo_size = 2 * memo_sets

(* A key word is even (its bit 0 is byte 7's parity bit, cleared), so -1
   marks an empty slot; its schedule slot then holds [no_key]. *)
let no_key : key = [||]
let memo_words = Array.make memo_size (-1)
let memo_keys = Array.make memo_size no_key
let cache_enabled = ref true

(* Multiplicative hashing: the set is the product's top [memo_set_bits]
   bits, which depend on every bit of the word, parity-bit holes
   included. *)
let[@inline] memo_set w = (w * 0x2545F4914F6CDD1D) lsr (Sys.int_size - memo_set_bits)

let set_schedule_cache on =
  cache_enabled := on;
  if not on then begin
    Array.fill memo_words 0 memo_size (-1);
    Array.fill memo_keys 0 memo_size no_key
  end

let schedule_cache_enabled () = !cache_enabled

(* PC1 never reads the parity bits, so [schedule k] is already
   [schedule (fix_parity k)]. [memo_set] is below [memo_sets], so the
   unsafe accesses are in bounds. *)
let schedule_cached k =
  if (not !cache_enabled) || Bytes.length k <> 8 then schedule k
  else
    let w = key_word k in
    let i = 2 * memo_set w in
    if Array.unsafe_get memo_words i = w then Array.unsafe_get memo_keys i
    else
      let sk =
        if Array.unsafe_get memo_words (i + 1) = w then Array.unsafe_get memo_keys (i + 1)
        else schedule k
      in
      Array.unsafe_set memo_words (i + 1) (Array.unsafe_get memo_words i);
      Array.unsafe_set memo_keys (i + 1) (Array.unsafe_get memo_keys i);
      Array.unsafe_set memo_words i w;
      Array.unsafe_set memo_keys i sk;
      sk
