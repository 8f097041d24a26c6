(** The Key Distribution Center: authentication server (AS) and
    ticket-granting server (TGS) in one network service, as in MIT
    Kerberos.

    Behaviour follows the profile faithfully, including the weaknesses:
    without [preauth], anyone may request an [AS_REP] for any user (grist
    for password-guessing mills); with [allow_enc_tkt_in_skey] /
    [allow_reuse_skey] the Draft 3 options are honoured with {e no} check
    that the enclosed ticket's client matches the requested server — the
    omission the paper's cut-and-paste attack exploits. *)

type t

val default_port : int
(** 750, as in V4. *)

(** Admission control — the overload plane's KDC half. Requests join a
    bounded queue drained by a virtual single server whose per-request
    cost is [base_service_time] plus the read router's queueing delay.
    Three strict-priority classes share the queue budget: {e high} (TGS
    exchanges — the sender demonstrably holds a TGT, so renewals stay
    alive under load) admits up to [queue_limit]; {e normal} (fresh
    AS_REQ) up to 3/4 of it; {e low} (traffic from suspect sources, see
    [suspect_rate]) up to 1/4. Past its class's share a request is
    answered — never silently dropped — with [KRB_ERR_BUSY] carrying a
    measured retry-after hint. At depth [brownout_at] the KDC enters
    {e brownout}: expensive work (preauth/DH-heavy AS exchanges,
    cross-realm TGS chases) is shed with busy while cheap same-realm
    work still queues. [suspect_rate] is the per-source requests/minute
    above which a source is demoted to the low class (demotion, not
    refusal — distinct from [rate_limit]'s hard per-source cap), counted
    over every decoded arrival in the current and previous one-minute
    epochs of engine time, in the KDC's bounded per-source table
    ({!Telemetry.Rates}). [classes = false] collapses the scheduler to a
    single FIFO class with the full [queue_limit] — the
    queue-but-no-policy KDC the overload experiment's naive arm measures
    against. *)
type admission = {
  queue_limit : int;        (** total queued requests; > 0 *)
  base_service_time : float;(** seconds of KDC work per request; >= 0 *)
  brownout_at : int;        (** depth that sheds expensive work; 0 = off *)
  suspect_rate : int;       (** per-source req/min before demotion *)
  classes : bool;           (** strict-priority classes; false = one FIFO *)
}

val default_admission : admission
(** [{ queue_limit = 64; base_service_time = 0.001; brownout_at = 48;
      suspect_rate = 600; classes = true }]. *)

val create :
  ?seed:int64 ->
  ?enc_tkt_cname_check:bool ->
  ?verify_transit:bool ->
  ?rate_limit:int ->
  ?telemetry:Telemetry.Collector.t ->
  ?reads:Replication.t ->
  ?admission:admission ->
  realm:string ->
  profile:Profile.t ->
  lifetime:float ->
  Kdb.t ->
  t
(** [reads] attaches a replica-aware read router (over the {e same}
    database — @raise Invalid_argument otherwise): AS/TGS database
    lookups spread across the primary + replica pool by observed load,
    the AS client-key lookup carries the freshness floor, and each
    exchange's reply is held by the accumulated queueing delay so an
    overloaded pool shows up as client-visible latency. Default: every
    lookup on the primary, free — the pre-replication behaviour.

    [rate_limit] caps AS requests accepted per source address per minute —
    "an enhancement to the server, to limit the rate of requests from a
    single source, may be useful" (the paper's partial mitigation for
    ticket harvesting): a request is refused, and not recorded, when its
    source has [rate_limit] accepted AS requests in the last 60 s of the
    KDC host's clock. Default: unlimited.

    Both per-source rules keep their windows in the KDC's one per-source
    table ({!Telemetry.Rates}, taken from [telemetry]): at most
    {!Telemetry.Rates.capacity} sources, the least active evicted first,
    so a flood of spoofed sources cannot grow the KDC. A source evicted
    from it comes back with empty windows, and so do the operator
    view's counts of it.

    [enc_tkt_cname_check] (default [false], faithful to Draft 3) enables
    the rule the designers intended but omitted: with [ENC-TKT-IN-SKEY],
    "the cname in the additional ticket [must] match the name of the server
    for which the new ticket is being requested". Turning it on defeats the
    cut-and-paste attack even under a weak checksum.

    [telemetry] (default {!Telemetry.Collector.default}) receives a
    ["kdc.as_req"]/["kdc.tgs_req"] span per exchange, the request
    counters as registry metrics named [kdc.<realm>.as_requests_served]
    etc. (suffixed [#2], … when several KDCs serve one realm), and keeps
    the KDC's per-source table, whose AS outcome counts the operator view
    prints.

    [admission] enables the overload-control plane (default: off — every
    request handled inline on arrival, the historical behaviour).
    Requests whose deadline envelope (see {!Messages.with_deadline}) has
    already expired when they reach the queue head are shed without a
    reply — the caller stopped listening — and counted/traced as
    [overload.deadline_shed].

    The TGS replay cache holds at most 32,768 authenticators; past that a
    flood evicts the entry closest to expiry, counted on
    [kdc.<realm>.replay_cache.evicted]. *)

val realm : t -> string
val database : t -> Kdb.t

val add_realm_route : t -> remote:string -> next_hop:string -> unit
(** Static inter-realm routing: requests for [remote] are referred to the
    cross-realm principal for [next_hop]. The paper: "there is no
    discussion of how a TGS can determine which of its neighboring realms
    should be the next hop ... static tables ... have security
    limitations." *)

val install : Sim.Net.t -> Sim.Host.t -> t -> ?port:int -> unit -> unit

(** {2 Durability and crash recovery}

    Mirrors {!Apserver.crash}/[restart], but for the state that actually
    matters realm-wide: the principal database. With durability enabled
    the database logs every mutation append-before-apply
    ({!Kdb.enable_durability}); a crash captures the checkpoint + WAL
    disk image and the TGS replay-cache snapshot, and a restart recovers
    by checkpoint load + WAL replay (torn or bit-flipped tails are
    CRC-truncated, never fatal) and prunes expired replay entries. *)

val enable_durability : ?checkpoint_every:int -> t -> unit
(** Attach a WAL to the KDC's database and take an initial checkpoint.
    [checkpoint_every] as in {!Kdb.enable_durability}. *)

val crash : t -> unit
(** Stop listening and lose all in-memory state, both per-source rules'
    windows included; the operator view's per-source counts stay, as the
    operator saw them. Only meaningful after {!install} (a KDC that never
    listened has nothing to crash). Without durability the database
    itself is lost — the paper's single point of failure, reproduced. *)

val restart : t -> unit
(** Recover from the disk image captured at crash time and listen again
    on the same port. No-op if already running. *)

val running : t -> bool

type recovery_info = {
  wal_applied : int;        (** WAL records replayed on top of the checkpoint *)
  wal_skipped : int;        (** records the checkpoint already covered *)
  wal_discarded_bytes : int;(** torn/corrupt WAL tail truncated by CRC *)
  replay_entries : int;     (** TGS replay-cache entries still live at restart *)
}

val last_recovery : t -> recovery_info option
(** What the most recent {!restart} had to do, [None] before any
    recovery. *)

val recoveries : t -> int
(** Lifetime recovery count (the [kdc.<realm>.recoveries] counter). *)

(** Statistics for the experiments — thin wrappers over the registry
    counters the KDC records into (the historical interface, kept). *)

val as_requests_served : t -> int
val preauth_rejections : t -> int
val rate_limited_requests : t -> int

(** {2 Overload-plane statistics} *)

val admission_arrived : t -> int
(** Requests that reached admission control (decodable AS/TGS traffic). *)

val admission_processed : t -> int
(** Requests actually served from the queue. The zero-silent-drop
    identity: [arrived = processed + busy_rejections + brownout_sheds +
    deadline_sheds + admission_queue_depth]. *)

val busy_rejections : t -> int
(** Requests answered [KRB_ERR_BUSY] because their class's queue share
    was full. *)

val brownout_sheds : t -> int
(** Expensive requests answered [KRB_ERR_BUSY] by brownout (counted
    separately from class-limit rejections). *)

val deadline_sheds : t -> int
(** Requests dropped at the queue head because their propagated deadline
    had already passed — no reply, but traced. *)

val admission_queue_depth : t -> int
(** Requests currently queued across all three classes. *)

val replay_evictions : t -> int
(** TGS replay-cache entries evicted by the cache's cap
    (the [kdc.<realm>.replay_cache.evicted] counter). *)
