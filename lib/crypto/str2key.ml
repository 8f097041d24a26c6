(* Shape of the MIT V4 string_to_key: fan-fold the password into 8 bytes,
   reversing the bits of alternate chunks, fix parity, then CBC-checksum the
   password under that key and fix parity again. *)

let reverse_7bits c =
  let r = ref 0 in
  for i = 0 to 6 do
    if (c lsr i) land 1 = 1 then r := !r lor (1 lsl (6 - i))
  done;
  !r

let fanfold password =
  let acc = Array.make 8 0 in
  let n = String.length password in
  let nchunks = (n + 7) / 8 in
  for chunk = 0 to nchunks - 1 do
    let forward = chunk mod 2 = 0 in
    for j = 0 to 7 do
      let pos = (chunk * 8) + j in
      if pos < n then begin
        let c = Char.code password.[pos] land 0x7f in
        let idx = if forward then j else 7 - j in
        let v = if forward then c else reverse_7bits c in
        acc.(idx) <- acc.(idx) lxor v
      end
    done
  done;
  (* Left-shift each 7-bit value into the high bits; parity bit is low. *)
  Bytes.init 8 (fun i -> Char.chr ((acc.(i) lsl 1) land 0xff))

(* V4 corrects weak keys by toggling a byte. *)
let correct_weak candidate =
  if Des.is_weak candidate then
    Des.fix_parity (Util.Bytesutil.xor candidate (Util.Bytesutil.of_hex "00000000000000f0"))
  else candidate

let derive password =
  let base = Des.fix_parity (fanfold password) in
  let key = Des.schedule base in
  let data = Mode.pad (Bytes.of_string password) in
  let ct = Mode.cbc_encrypt key ~iv:base data in
  let last = Bytes.sub ct (Bytes.length ct - 8) 8 in
  correct_weak (Des.fix_parity last)
