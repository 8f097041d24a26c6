(** MD4 (RFC 1320) — the "collision-proof" checksum of the Version 5 drafts
    (believed collision-resistant in 1990; we reproduce the 1990-era
    assumption, which is all the paper's argument needs: the attacker cannot
    steer MD4 the way CRC-32 linearity lets them steer CRC-32). *)

val digest_size : int
(** 16. *)

val digest : bytes -> bytes
(** [digest b] is the 16-byte MD4 hash of [b]. *)

val digest_sub : bytes -> pos:int -> len:int -> bytes
(** Hash a subrange without materializing the slice.
    @raise Invalid_argument if the range is not inside the buffer. *)

val hex_digest : bytes -> string

val hmac_des_sub : key:bytes -> bytes -> pos:int -> len:int -> bytes
(** Subrange form of {!hmac_des}. *)

val hmac_des : key:bytes -> bytes -> bytes
(** The drafts' "MD4 encrypted with DES" checksum: the MD4 digest enciphered
    under the session key (CBC, zero IV). Still forgeable when the protected
    data is public and the checksum is CRC — but with MD4 inside it is the
    strong variant. *)
