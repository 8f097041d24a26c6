(** Password-to-key derivation, Kerberos V4 style.

    "The client key Kc is derived from a non-invertible transform of the
    user's typed password." The transform is public — which is exactly what
    makes the paper's offline password-guessing attack work: anyone can run
    candidate passwords through [derive] and test the result against a
    recorded [AS_REP]. *)

val derive : string -> bytes
(** [derive password] fan-folds the password into 56 bits, fixes parity,
    then runs a DES-CBC checksum of the password under that key (the V4
    recipe's shape). The result is a parity-fixed, non-weak DES key. *)

val correct_weak : bytes -> bytes
(** The last step of {!derive}: a parity-fixed key that {!Des.is_weak}
    accepts has its last byte toggled by [0xf0] and its parity fixed again;
    any other key is returned as is. A random password reaches the toggle
    with probability about 2^-52, so the tests call it directly. *)
