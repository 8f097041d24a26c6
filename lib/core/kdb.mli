(** The KDC's principal database. "Kerberos is secure if and only if it can
    protect other clients and servers, beginning only with the premise that
    these client and server keys are secret." This module holds those keys.

    The database is itself an experiment surface: the paper notes that
    without preauthentication "the Kerberos equivalent of /etc/passwd must
    be treated as public" — the database contents are what the
    password-guessing attacks try to reconstruct.

    The backend is hash-partitioned into {e shards} (principal name →
    shard, stable FNV-1a hash), so a realm serving "a fairly large user
    community" can be propagated shard-by-shard and load can be accounted
    per shard. A database created with [?shards:1] (the default) behaves
    exactly as the unsharded original.

    Every key is an 8-byte DES key. Each shard is one open-addressed
    table of flat arrays: a principal's name string in a [string array],
    its key packed 8 bytes a slot in one [bytes], and its kind in one byte
    a slot. The table grows by doubling before it is three-quarters full,
    so a registered user costs its name and 1.33 to 2.67 slots of 17/8
    words: 8.57 words a user at 100,000 users in 8 shards. No entry
    record exists until {!lookup} builds one. *)

type kind = User | Service | Cross_realm

type entry = { key : bytes; kind : kind }

(** The per-shard write-ahead log. Records are appended {e before} the
    in-memory tables change and framed as [u32 len; u32 crc32; payload],
    so a log image captured at any crash instant replays to at least the
    state a reader could have observed, and a torn or bit-flipped tail is
    detected and cleanly truncated rather than crashing recovery. *)
module Wal : sig
  type op =
    | Put of string * entry
        (** A single-principal upsert (the [add_*] family). A record whose
            key is not 8 bytes does not decode: {!replay} and
            {!replay_shipment} end their clean prefix before it. *)
    | Swap of bytes
        (** A whole-shard replacement — a propagation or reconcile
            install, carrying the full {!shard_to_bytes} dump. *)

  type record = {
    w_shard : int;    (** shard the mutation landed in *)
    w_version : int;  (** that shard's post-mutation version *)
    w_op : op;
  }

  type t

  val create : unit -> t
  val append : t -> record -> unit
  val length : t -> int
  (** Records currently held (post-truncation). *)

  val byte_size : t -> int
  val appended : t -> int
  (** Lifetime appends — unlike {!length}, never decreased by
      {!truncate_after_checkpoint}. *)

  val records : t -> record list
  val contents : t -> bytes
  (** The serialized log image — what a crash captures. *)

  val replay : bytes -> record list * int
  (** Parse a log image. Returns the records up to the first torn or
      CRC-failing frame, plus the number of trailing bytes discarded.
      Never raises: a corrupt log yields a shorter prefix, not an
      exception. *)

  val truncate_after_checkpoint : t -> versions:int array -> unit
  (** Drop every record a checkpoint at version vector [versions] already
      covers ([w_version <= versions.(w_shard)]). *)

  (** {2 Replication log}

      Every frame carries a log sequence number assigned at append time
      from the lifetime counter, so LSNs survive checkpoint truncation
      and give a replica a stable cursor into the primary's history. *)

  val head_lsn : t -> int
  (** LSN of the newest record ever appended (0 for an empty log). *)

  val first_retained_lsn : t -> int
  (** Oldest LSN still held, or [head_lsn + 1] when truncation has
      emptied the log — a replica applied to [first_retained_lsn - 1] or
      beyond can tail the log; anything older must catch up from the
      checkpoint. *)

  val ship_since : t -> lsn:int -> bytes
  (** Every retained frame with LSN strictly greater than [lsn], oldest
      first, each prefixed with its LSN:
      [i64 lsn; u32 len; u32 crc; payload] repeated. *)

  val replay_shipment : bytes -> (int * record) list * int
  (** Decode a {!ship_since} blob with the same torn-tail tolerance as
      {!replay}: the clean [(lsn, record)] prefix plus discarded trailing
      bytes. Never raises. *)
end

type t

val create : ?shards:int -> unit -> t
(** [shards] (default 1) fixes the partition count for the database's
    lifetime. @raise Invalid_argument if [shards < 1]. *)

val add_user : t -> Principal.t -> password:string -> unit
(** Stores the password-derived key (the KDC never keeps the password). *)

val add_service : t -> Principal.t -> key:bytes -> unit
(** Stores a copy of [key]. @raise Invalid_argument if [key] is not 8
    bytes, before anything is logged or stored: the KDC could not
    schedule it. *)

val add_cross_realm : t -> Principal.t -> key:bytes -> unit
(** As {!add_service}, for a [krbtgt.<us>@<neighbor>] key. *)

val lookup : t -> Principal.t -> entry option
(** A registered principal's entry is built fresh from its shard's slot,
    its key a copy: mutating it changes nothing stored. An entry the lazy
    provider materialized is the memoized one. Also counts the access
    against the principal's shard, the raw material of the per-shard
    throughput numbers in [BENCH_load.json]. *)

val principals : t -> Principal.t list

(** {2 Lazy materialization}

    A realm of a million principals does not need a million up-front
    [add_user] calls when only a fraction ever authenticate: a {e lazy
    provider} is consulted on a {!lookup} miss, and whatever it supplies
    is memoized in a side table. The shards — and with them every
    propagation, digest, WAL and reconciliation surface — hold only the
    explicitly registered population; materialized entries are serving
    state, not durable state. A later [add_*] of the same principal
    supersedes (and evicts) its memoized entry. *)

val set_lazy_provider : t -> (string -> entry option) -> unit
(** Install the provider. It receives the principal in
    {!Principal.to_string} form and must be deterministic: the same name
    always maps to the same entry, or the realm's keys depend on lookup
    order. *)

val lazy_materialized : t -> int
(** How many entries the provider has materialized so far. *)

val cross_realm_keys : t -> (Principal.t * bytes) list
(** The realm's cross-realm entries ([krbtgt.<us>@<neighbor>] keys),
    sorted by principal. Memoized: the TGS consults this set for every
    presented TGT, and a realm sized for "a fairly large user community"
    cannot afford a full-database scan per request. Any mutation
    (an [add_*] or a propagation swap) invalidates the memo. *)

val shard_count : t -> int

val shard_of : t -> Principal.t -> int
(** The shard this principal's entry lives in (whether or not the
    principal is present): FNV-1a of the principal string modulo
    {!shard_count} — deterministic across runs and processes, so master
    and slave agree on the partition. *)

val shard_lookups : t -> int array
(** Per-shard {!lookup} counts since creation (length {!shard_count}) —
    how evenly the hash spreads a realm's traffic. *)

val to_bytes : t -> bytes
(** Serialize the whole database — the payload of master→slave propagation
    (and precisely the blob whose theft equals total compromise, which is
    why kprop runs over [KRB_PRIV] and the master "must [have] strong
    physical security"). The format is shard-agnostic: a dump taken from
    an 8-shard master installs into a 2-shard slave. *)

val of_bytes : bytes -> t
(** @raise Wire.Codec.Decode_error on malformed input, a malformed
    principal name or a key that is not 8 bytes. *)

val shard_to_bytes : t -> int -> bytes
(** One shard's entries, same wire format as {!to_bytes} — the unit of
    incremental propagation ({!Services.Kprop.propagate_shard}).
    @raise Invalid_argument if the index is out of range. *)

val replace_shard_from_bytes : ?version:int -> t -> int -> bytes -> unit
(** Atomically replace shard [i] from a {!shard_to_bytes} dump taken on a
    database with the {e same} shard count. The blob is decoded fully
    before anything becomes visible: on a decode error (a truncated or
    corrupted propagation) the shard keeps its previous contents — no
    half-swapped state, ever. Without [?version] the swap counts as one
    local mutation (the shard's version increments); a reconcile install
    passes [~version] to adopt the winning replica's version instead.
    @raise Wire.Codec.Decode_error on malformed input, a key that is not 8
    bytes, or an entry that does not belong in shard [i]. Entries are
    checked in dump order, so the error names the first offending one.
    @raise Invalid_argument if the index is out of range. *)

val replace_from : t -> t -> unit
(** [replace_from dst src] atomically swaps [dst]'s contents for [src]'s —
    the slave side of a propagation. [src]'s entries are re-partitioned
    into [dst]'s own shard count, and the swap is a single reference
    update: a lookup interleaved with an in-flight propagation sees either
    the old database or the new one, never an emptied or half-filled
    hybrid. *)

val size : t -> int

val shard_sizes : t -> int array
(** Entries per shard (length {!shard_count}) — how evenly FNV-1a spreads
    a registered population, as opposed to {!shard_lookups}, which follows
    the {e traffic} and concentrates on hot principals (the TGS's own
    entry, popular services). *)

(** {2 Durability}

    The write-ahead log plus periodic checkpoints. Enable with
    {!enable_durability}; thereafter every mutation is logged
    append-before-apply, and {!disk_image} at any instant recovers (via
    {!recover}) to exactly the state a crash at that instant would
    strand. *)

val enable_durability : ?checkpoint_every:int -> t -> unit
(** Attach a WAL and take an initial checkpoint. [checkpoint_every = n]
    (default 0 = manual) takes a fresh checkpoint — and truncates the log
    — after every [n] mutations. *)

val durable : t -> bool

val checkpoint : t -> unit
(** Snapshot the current state and truncate the WAL behind it.
    @raise Invalid_argument if durability is not enabled. *)

val checkpoints_taken : t -> int

val wal : t -> Wal.t option

val disk_image : t -> (bytes * bytes) option
(** [(checkpoint, wal)] — what survives a crash. [None] when durability
    is off: such a database dies with its process. *)

val wipe : t -> unit
(** Model the crash itself: every table, version counter and the attached
    durable state vanish in place (the object identity survives — it is
    shared with routes and tests). Shard count is preserved. *)

val version_vector : t -> int array
(** Per-shard monotonic mutation counters (length {!shard_count}) — the
    vector anti-entropy reconciliation compares and WAL records carry. *)

val shard_digest : t -> int -> int
(** CRC-32 over the shard's deterministic sorted dump — equal digests
    mean byte-identical shard contents across replicas. *)

val digests : t -> int array

type recovery = {
  recovered : t;        (** fresh database: checkpoint + replayed WAL *)
  applied : int;        (** WAL records applied on top of the checkpoint *)
  skipped : int;        (** records the checkpoint already covered *)
  discarded_bytes : int (** torn/corrupt WAL tail dropped by CRC *)
}

val recover : checkpoint:bytes -> wal:bytes -> recovery
(** Rebuild from a {!disk_image}. The checkpoint must be intact (it is
    written atomically; @raise Wire.Codec.Decode_error if its CRC fails);
    the WAL may be torn or bit-flipped anywhere — replay stops cleanly at
    the first bad frame. Records the checkpoint already covers are
    skipped by version comparison, so replay is idempotent. *)

val restore : t -> recovery -> unit
(** Install a recovery into an existing database in place, adopting the
    recovered version vector as-is (no WAL logging — the recovery {e is}
    the log's effect). @raise Invalid_argument on shard count mismatch. *)

val head_lsn : t -> int
(** The primary's replication head — {!Wal.head_lsn} of the attached log.
    @raise Invalid_argument if durability is not enabled. *)

(** {2 Read replicas}

    The paper's master/slave database model, rebuilt on the WAL: a
    replica is a same-shard-count database fed by shipping log frames
    past its applied LSN (apply-before-ack — the ack never runs ahead of
    visible state), catching up via checkpoint + tail when the primary
    has truncated past its cursor, and rejoining after a crash through
    the same per-shard version/digest reconcile kprop anti-entropy uses.
    Replicas serve reads only; every write goes to the primary and
    reaches replicas through the log. *)

type replica

val attach_replica :
  ?telemetry:Telemetry.Collector.t -> ?shards:int list -> t -> name:string ->
  replica
(** Create a replica of [t] and bootstrap it from the current checkpoint
    plus the retained WAL tail. [?shards] restricts the subscription to
    the listed shard indices (default: all shards). With [?telemetry],
    applied records feed the [kdb.replica.applied] counter and shipping
    refreshes the [kdb.replica.lag.<name>] gauge.
    @raise Invalid_argument if durability is not enabled on [t], the
    shard list is empty, or an index is out of range. *)

val replica_name : replica -> string

val replica_db : replica -> t
(** The replica's own database — route read-only lookups here. *)

val replica_live : replica -> bool
val replica_applied_lsn : replica -> int

val replica_lag : t -> replica -> int
(** [head_lsn t - replica_applied_lsn r]: how many log records the
    replica has not yet acked (0 when durability is off). *)

val replica_covers : replica -> int -> bool
(** Whether the replica subscribes to the given shard index. *)

val replica_records_applied : replica -> int
(** Records materialized over the replica's lifetime. *)

val replica_catchups : replica -> int
(** Checkpoint+tail catch-ups taken, including the bootstrap one. *)

val ship_to_replica : replica -> int
(** One shipping round from the primary: frames past the replica's ack
    when the log still reaches back that far, checkpoint + tail when the
    primary has truncated beyond it. Returns the number of records
    materialized. @raise Invalid_argument if durability is not enabled. *)

val replica_crash : replica -> unit
(** Lose the replica's memory image and replication cursor in place (the
    handle survives, marked not live). *)

val replica_rejoin : replica -> int
(** Rejoin after a crash through the reconcile machinery: pull every
    subscribed shard whose version or digest diverges from the primary
    (versioned install — the primary wins), reset the cursor to the
    primary's head, and mark the replica live. Returns the number of
    shards pulled. @raise Invalid_argument if durability is not
    enabled. *)
