(** A cache of recently seen authenticators.

    The original Kerberos design "required such caching, though this was
    never implemented"; the paper discusses why multi-process UNIX servers
    found it awkward. Here the cache is a module servers may or may not be
    configured with (the V4 profile runs without one, faithfully). Entries
    expire after the clock-skew horizon — outside it, the timestamp check
    itself rejects the authenticator.

    Expiry is tracked by a min-heap drained incrementally, so sustained
    insert load costs O(log n) amortized per operation rather than a full
    table sweep per insert. The heap's arrays and the key index are sized
    to the live entries: an empty cache is one small record, a cache
    holding one key adds that key's bytes and one slot of each heap
    array (no index), and each further key a few words of slots. The
    horizon, cap and eviction hook are one {!settings} value, which many
    caches can share: every session's KRB_PRIV cache points at the same
    one.

    The paper names cache flooding as a denial-of-service vector: an
    attacker stuffing distinct authenticators grows the cache without
    bound. [cap] closes it — at capacity the live entry closest to expiry
    is evicted deterministically (the smallest re-opened replay window;
    among equal expiries, an order fixed by the sequence of operations)
    and counted in {!evicted}. *)

type t

type settings
(** What caches of one kind have in common: the horizon, the cap and the
    eviction hook. *)

val settings : ?cap:int -> ?on_evict:(unit -> unit) -> horizon:float -> unit -> settings
(** [cap] bounds live entries (default: unbounded); [on_evict] fires once
    per cap eviction, e.g. to bump a server's [replay_cache.evicted]
    telemetry counter. @raise Invalid_argument when [cap <= 0]. *)

val make : settings -> t
(** An empty cache under [settings]. Caches made from one [settings]
    value share it and own only their entries and counters. *)

val create : ?cap:int -> ?on_evict:(unit -> unit) -> horizon:float -> unit -> t
(** [make] under settings of its own.
    @raise Invalid_argument when [cap <= 0]. *)

val singleton : settings -> string -> expiry:float -> t
(** A cache under [settings] holding the one entry [key], live until
    [expiry] as given, bit for bit: the cache {!check_and_insert} leaves
    when it admits [key] into an empty one, its counters at zero. With
    {!sole}, a table that keeps a one-entry cache as its key and expiry
    can rebuild it for one operation and take it back after. *)

val sole : t -> (string * float) option
(** The key and expiry of a cache holding exactly one entry, as stored
    (the entry may have expired since: only the next operation purges);
    [None] for any other size. *)

type verdict = Fresh | Replayed

val check_and_insert : t -> now:float -> bytes -> verdict
(** Keyed by the raw authenticator ciphertext (not a digest, so two
    distinct authenticators can never be conflated). [Fresh] inserts. *)

val size : t -> int
(** Live entries (after purging), the server-state cost measured in E14. *)

val hits : t -> int
(** Authenticators refused as replays over the cache's lifetime — the
    signal the telemetry layer surfaces to the operator. *)

val inserts : t -> int
(** Fresh authenticators admitted over the cache's lifetime. *)

val evicted : t -> int
(** Live entries pushed out by the cap over the cache's lifetime (0 when
    uncapped). Evicted entries can be replayed once more until their
    original expiry — the memory bound trades exactly that window. *)

val purge : t -> now:float -> unit

val to_bytes : t -> bytes
(** Deterministic snapshot (entries sorted by key) of the horizon, the
    cap and the live entries — what a server that keeps its cache on disk
    writes at shutdown. Lifetime counters ({!hits}/{!inserts}/{!evicted})
    are process state and are not included. *)

val of_bytes : ?now:float -> ?on_evict:(unit -> unit) -> bytes -> t
(** Rebuild a cache from {!to_bytes} output; counters start at zero and
    the cap is restored from the snapshot. With [~now], entries already
    expired at load time are pruned rather than admitted — a restart
    after a long crash window must not resurrect stale entries or rebuild
    a heap of dead weight. [on_evict] re-attaches the eviction hook
    (callbacks cannot be serialized).
    @raise Wire.Codec.Decode_error on malformed input, which includes
    what {!to_bytes} never writes: keys out of increasing order (so a key
    twice) and more live entries than the snapshot's cap. *)
