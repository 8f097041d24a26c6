(** Block-cipher modes of operation over DES.

    Three modes matter to the paper:
    - {b ECB} for single-block values;
    - {b CBC} (FIPS 81), used by the Version 5 drafts — and whose
      "prefixes of encryptions are encryptions of prefixes" property under a
      fixed IV enables the paper's inter-session chosen-plaintext attack;
    - {b PCBC}, the nonstandard propagating mode used by Kerberos Version 4,
      whose poor error-propagation (swapping two interior ciphertext blocks
      garbles only those blocks) the paper also discusses.

    All functions require the input length to be a multiple of 8; use [pad]
    / [unpad] for arbitrary-length payloads.

    Each mode comes in two forms: an allocating one returning fresh bytes,
    and an [*_into] primitive that streams [src] to [dst] with no
    per-block allocation; decryption deciphers two blocks at a time
    ({!Des.decrypt_pair}). [dst] may be [src] (in-place transformation);
    the sealing layers exploit this to encrypt freshly padded buffers
    without another copy. *)

val padded_length : int -> int
(** [padded_length n] is the length [pad] would produce for an [n]-byte
    input: the next multiple of the block size strictly greater than [n]. *)

val create_padded : int -> bytes
(** [create_padded n] allocates a [padded_length n] buffer with the pad
    bytes already written at positions [n..]; the caller fills [0..n-1]
    with the payload and encrypts in place. [pad b] is
    [create_padded (length b)] with [b] blitted in — the split form lets
    sealing layers build a message in its final buffer with no
    intermediate copy. *)

val pad : bytes -> bytes
(** [pad b] appends 1–8 bytes of padding, each holding the pad length, so
    the result is a non-empty multiple of the block size (PKCS#5-style). *)

val unpad : bytes -> bytes option
(** [unpad b] strips padding added by [pad]; [None] if malformed. *)

val unpad_length : bytes -> int option
(** [unpad_length b] is the payload length [unpad] would return, without
    allocating the stripped copy — openers that go on to parse fields in
    place use this. *)

val ecb_encrypt : Des.key -> bytes -> bytes
val ecb_decrypt : Des.key -> bytes -> bytes

val cbc_encrypt : Des.key -> iv:bytes -> bytes -> bytes
val cbc_decrypt : Des.key -> iv:bytes -> bytes -> bytes

val pcbc_encrypt : Des.key -> iv:bytes -> bytes -> bytes
val pcbc_decrypt : Des.key -> iv:bytes -> bytes -> bytes

val ecb_encrypt_into : Des.key -> src:bytes -> dst:bytes -> unit
val ecb_decrypt_into : Des.key -> src:bytes -> dst:bytes -> unit

val cbc_encrypt_into : Des.key -> iv:bytes -> src:bytes -> dst:bytes -> unit
val cbc_decrypt_into : Des.key -> iv:bytes -> src:bytes -> dst:bytes -> unit

val pcbc_encrypt_into : Des.key -> iv:bytes -> src:bytes -> dst:bytes -> unit
val pcbc_decrypt_into : Des.key -> iv:bytes -> src:bytes -> dst:bytes -> unit
(** The streaming primitives. [src] and [dst] must have equal lengths, a
    multiple of the block size; [dst] may alias [src].
    @raise Invalid_argument on length mismatch or a bad IV. *)

val zero_iv : bytes
(** The all-zero IV — "assume the initial vector is fixed and public", as the
    paper's hint to the reader puts it. *)
