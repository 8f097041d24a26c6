(* The key lives only inside this record; no accessor exposes it. *)
type t = { schedule : Crypto.Des.key; mutable uses : int }

let of_key key = { schedule = Crypto.Des.schedule key; uses = 0 }

let enroll ~password = of_key (Crypto.Str2key.derive password)

let respond t r =
  if Bytes.length r <> 8 then invalid_arg "Handheld.respond: challenge must be 8 bytes";
  t.uses <- t.uses + 1;
  Crypto.Des.encrypt_block t.schedule r

let responses_issued t = t.uses
