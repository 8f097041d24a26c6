(** The Data Encryption Standard (FIPS 46), the cipher Kerberos V4 and the
    V5 drafts are built on.

    Blocks and keys are 8 bytes. The kernel is built around the chain of
    dependent steps from one round to the next: both Feistel halves stay in
    an already-expanded 34-bit form for all sixteen rounds, each round
    subkey is one word (it keys the odd S-boxes as it is and the even ones
    shifted once, off the round-to-round chain), and a round is two xors,
    eight lookups into one fused S-box/P table and an or-tree, inlined
    into unrolled encrypt and decrypt bodies. Independent blocks can be
    deciphered two at a time ({!decrypt_pair}). The key schedule applies
    PC1 and PC2 one key byte at a time from tables. The test suite checks
    all of it against the NBS known-answer vectors and against the
    bit-by-bit {!Reference}. *)

type key
(** A scheduled key: the 16 round subkeys, one word each, and nothing
    else (17 heap words, one per round and a header); it keeps no copy of
    the key it came from. *)

val no_key : key
(** A placeholder that schedules no key, for the unused slots of a table
    of schedules (the memo's, an AP server's peer rows). The ciphers read
    a schedule's words unchecked: never pass it to one. *)

val block_size : int
(** 8. *)

val schedule : bytes -> key
(** [schedule k] expands an 8-byte key. Parity bits (the low bit of each
    byte) are ignored, as in the standard.
    @raise Invalid_argument if [k] is not 8 bytes. *)

val subkeys : key -> int array
(** The 16 round subkeys as 48-bit FIPS values (S-box 1's chunk in the top
    six bits), in encryption order. Lets the tests compare the schedule
    with {!Reference.schedule}. *)

val schedule_cached : bytes -> key
(** [schedule_cached k] is [schedule (fix_parity k)], memoized. Long-lived
    Kerberos keys are sealed under thousands of times, and the schedule
    dominates short-message sealing cost, so the hot paths route through
    this. The memo is one fixed table of 4,096 schedules in 2,048 two-way
    sets, keyed by the key's 56 non-parity bits (so parity-only variants
    of a key share an entry) and kept most-recent-first within a set: a
    miss overwrites the set's older entry, and the table is never dropped
    wholesale. It holds no copy of any key and allocates nothing on a
    hit. Semantically identical to rescheduling every time (the
    equivalence tests pin this, under eviction too). *)

val set_schedule_cache : bool -> unit
(** Enable/disable the [schedule_cached] memo table (empties it when
    turning off). On by default; the off position exists for equivalence
    tests and bench ablations. *)

val schedule_cache_enabled : unit -> bool

val schedules_performed : unit -> int
(** Process-wide count of key-schedule computations actually performed
    (cache hits don't count). Lets tests assert a session schedules its key
    exactly once. *)

val blocks_performed : unit -> int
(** Process-wide count of single-block DES operations (every mode bottoms
    out here; {!decrypt_pair} counts two). The load harness uses it to
    apportion wall time between irreducible cipher work and everything
    else. *)

val encrypt_block : key -> bytes -> bytes
(** [encrypt_block k b] enciphers one 8-byte block. *)

val decrypt_block : key -> bytes -> bytes
(** [decrypt_block k b] deciphers one 8-byte block. *)

val encrypt_block_i64 : key -> int64 -> int64
(** [encrypt_block_i64 k b] enciphers one block held as a big-endian int64
    (bit 63 is the block's first bit), with no [bytes] round-trip. *)

val decrypt_block_i64 : key -> int64 -> int64

type halves = { mutable hi : int; mutable lo : int }
(** One block as two 32-bit words ([hi] first). A scratch cell the block
    modes allocate once per call and reuse for every block. *)

val encrypt_halves : key -> halves -> unit
(** [encrypt_halves k st] enciphers the block in [st] in place. Allocates
    nothing; this is the hot entry point the streaming modes are built on. *)

val decrypt_halves : key -> halves -> unit

val decrypt_pair : key -> halves -> halves -> unit
(** [decrypt_pair k a b] deciphers two independent blocks in place, their
    rounds interleaved so that each hides the other's latency. Same result
    as [decrypt_halves k a; decrypt_halves k b]. *)

module Reference : sig
  val schedule : bytes -> int array
  (** The 16 round subkeys of an 8-byte key, computed bit by bit, in the
      layout of {!subkeys}. *)

  val encrypt_block : bytes -> bytes -> bytes
  (** [encrypt_block k b] enciphers the 8-byte block [b] under the raw
      8-byte key [k]. *)

  val decrypt_block : bytes -> bytes -> bytes
end
(** The bit-by-bit cipher and key schedule: one generic permutation per
    FIPS table per round, from the raw 8-byte key alone. It shares no
    tables and no subkeys with the kernel above, which makes it the oracle
    the property tests compare the kernel against. Roughly 30x slower per
    block, as it reschedules the key on every call; never used outside the
    test suite. *)

val fix_parity : bytes -> bytes
(** [fix_parity k] returns a copy with each byte's low bit set to give odd
    parity, the DES key convention: one 256-entry table lookup per byte. *)

val is_weak : bytes -> bool
(** True for the four weak and twelve semi-weak DES keys (after parity
    fixing). The simulated KDC rejects these when generating session keys.
    Compares the key's 56 non-parity bits, read as one int, against 16
    constants; allocates nothing. *)

val random_key : Util.Rng.t -> bytes
(** A fresh parity-fixed, non-weak key. *)
