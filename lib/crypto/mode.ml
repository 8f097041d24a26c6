(* All three modes stream over the input with one or two reusable scratch
   cells ([Des.halves]) and write straight into the destination buffer: no
   per-block [Bytes.sub] or xor temporaries. The [*_into] variants are the
   primitive; the allocating functions wrap them, and sealing layers (Seal,
   Krb_priv) call them in place on freshly padded buffers. *)

let block = Des.block_size

let padded_length n = n + (block - (n mod block))

(* The allocation-free sealing layers assemble messages directly in their
   final padded buffer: [create_padded n] returns a block-multiple buffer
   whose last [padlen] bytes already hold the padding for an [n]-byte
   payload; the caller writes the payload into [0..n-1] and encrypts in
   place. Equivalent to [pad] without the intermediate plaintext copy. *)
let create_padded n =
  let padlen = block - (n mod block) in
  let out = Bytes.create (n + padlen) in
  Bytes.fill out n padlen (Char.chr padlen);
  out

let pad b =
  let n = Bytes.length b in
  let padlen = block - (n mod block) in
  let out = Bytes.create (n + padlen) in
  Bytes.blit b 0 out 0 n;
  Bytes.fill out n padlen (Char.chr padlen);
  out

let unpad_length b =
  let n = Bytes.length b in
  if n = 0 || n mod block <> 0 then None
  else
    let padlen = Char.code (Bytes.get b (n - 1)) in
    if padlen < 1 || padlen > block || padlen > n then None
    else
      let ok = ref true in
      for i = n - padlen to n - 1 do
        if Char.code (Bytes.get b i) <> padlen then ok := false
      done;
      if !ok then Some (n - padlen) else None

let unpad b =
  match unpad_length b with Some l -> Some (Bytes.sub b 0 l) | None -> None

let check_into name ~src ~dst =
  if Bytes.length src mod block <> 0 then
    invalid_arg (name ^ ": input not a multiple of the block size");
  if Bytes.length dst <> Bytes.length src then
    invalid_arg (name ^ ": src and dst lengths differ")

let check_iv iv =
  if Bytes.length iv <> block then invalid_arg "Mode: IV must be 8 bytes"

let zero_iv = Bytes.make block '\000'

(* 32-bit big-endian words as immediate ints, read and written without
   bounds checks: every caller has checked that [src] and [dst] are whole
   blocks of equal length and the IV one block, and touches whole blocks
   only. The int32 never leaves a register. *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let get32 b pos =
  let w = get32u b pos in
  Int32.to_int (if Sys.big_endian then w else swap32 w) land 0xFFFFFFFF

let set32 b pos v =
  let w = Int32.of_int v in
  set32u b pos (if Sys.big_endian then w else swap32 w)

(* The three modes differ only in what block [i] feeds forward, xored into
   the next block's input on encryption and its output on decryption:
   F_0 is the IV, then F_i is nothing (ECB, whose IV is zero), C_i (CBC) or
   P_i xor C_i (PCBC, Kerberos V4's "propagating" mode). *)
type chaining = Ecb | Cbc | Pcbc

let[@inline] feedback chaining ~c ~p =
  match chaining with Ecb -> 0 | Cbc -> c | Pcbc -> c lxor p

let encrypt_into chaining key ~iv ~src ~dst =
  let st = { Des.hi = 0; lo = 0 } in
  let n = Bytes.length src in
  let fhi = ref (get32 iv 0) and flo = ref (get32 iv 4) in
  let pos = ref 0 in
  while !pos < n do
    let at = !pos in
    let p0 = get32 src at and p1 = get32 src (at + 4) in
    st.Des.hi <- p0 lxor !fhi;
    st.Des.lo <- p1 lxor !flo;
    Des.encrypt_halves key st;
    set32 dst at st.Des.hi;
    set32 dst (at + 4) st.Des.lo;
    fhi := feedback chaining ~c:st.Des.hi ~p:p0;
    flo := feedback chaining ~c:st.Des.lo ~p:p1;
    pos := at + block
  done

(* No block's decipherment waits on another's, so blocks go through
   {!Des.decrypt_pair} two at a time and only the feedback xor runs in
   order. Both ciphertext blocks are read before either plaintext block is
   written: [dst] may alias [src]. *)
let decrypt_into chaining key ~iv ~src ~dst =
  let a = { Des.hi = 0; lo = 0 } and b = { Des.hi = 0; lo = 0 } in
  let n = Bytes.length src in
  let fhi = ref (get32 iv 0) and flo = ref (get32 iv 4) in
  let pos = ref 0 in
  while !pos + (2 * block) <= n do
    let at = !pos in
    let c0 = get32 src at and c1 = get32 src (at + 4) in
    let c2 = get32 src (at + 8) and c3 = get32 src (at + 12) in
    a.Des.hi <- c0;
    a.Des.lo <- c1;
    b.Des.hi <- c2;
    b.Des.lo <- c3;
    Des.decrypt_pair key a b;
    let p0 = a.Des.hi lxor !fhi and p1 = a.Des.lo lxor !flo in
    let p2 = b.Des.hi lxor feedback chaining ~c:c0 ~p:p0 in
    let p3 = b.Des.lo lxor feedback chaining ~c:c1 ~p:p1 in
    set32 dst at p0;
    set32 dst (at + 4) p1;
    set32 dst (at + 8) p2;
    set32 dst (at + 12) p3;
    fhi := feedback chaining ~c:c2 ~p:p2;
    flo := feedback chaining ~c:c3 ~p:p3;
    pos := at + (2 * block)
  done;
  if !pos < n then begin
    let at = !pos in
    a.Des.hi <- get32 src at;
    a.Des.lo <- get32 src (at + 4);
    Des.decrypt_halves key a;
    set32 dst at (a.Des.hi lxor !fhi);
    set32 dst (at + 4) (a.Des.lo lxor !flo)
  end

let ecb_encrypt_into key ~src ~dst =
  check_into "ecb_encrypt" ~src ~dst;
  encrypt_into Ecb key ~iv:zero_iv ~src ~dst

let ecb_decrypt_into key ~src ~dst =
  check_into "ecb_decrypt" ~src ~dst;
  decrypt_into Ecb key ~iv:zero_iv ~src ~dst

let cbc_encrypt_into key ~iv ~src ~dst =
  check_into "cbc_encrypt" ~src ~dst;
  check_iv iv;
  encrypt_into Cbc key ~iv ~src ~dst

let cbc_decrypt_into key ~iv ~src ~dst =
  check_into "cbc_decrypt" ~src ~dst;
  check_iv iv;
  decrypt_into Cbc key ~iv ~src ~dst

let pcbc_encrypt_into key ~iv ~src ~dst =
  check_into "pcbc_encrypt" ~src ~dst;
  check_iv iv;
  encrypt_into Pcbc key ~iv ~src ~dst

let pcbc_decrypt_into key ~iv ~src ~dst =
  check_into "pcbc_decrypt" ~src ~dst;
  check_iv iv;
  decrypt_into Pcbc key ~iv ~src ~dst

let fresh f key b =
  let out = Bytes.create (Bytes.length b) in
  f key ~src:b ~dst:out;
  out

let ecb_encrypt key b = fresh ecb_encrypt_into key b
let ecb_decrypt key b = fresh ecb_decrypt_into key b

let fresh_iv f key ~iv b =
  let out = Bytes.create (Bytes.length b) in
  f key ~iv ~src:b ~dst:out;
  out

let cbc_encrypt key ~iv b = fresh_iv cbc_encrypt_into key ~iv b
let cbc_decrypt key ~iv b = fresh_iv cbc_decrypt_into key ~iv b
let pcbc_encrypt key ~iv b = fresh_iv pcbc_encrypt_into key ~iv b
let pcbc_decrypt key ~iv b = fresh_iv pcbc_decrypt_into key ~iv b
