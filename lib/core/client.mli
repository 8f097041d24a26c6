(** The client library: login, ticket acquisition (including multi-hop
    cross-realm referrals), the AP exchange, and sealed application calls.

    All operations are continuation-passing over the simulated network.
    Credentials are cached in the host's credential cache — which is the
    object the paper worries about on multi-user machines. *)

type t

type credentials = {
  service : Principal.t;
  ticket : bytes;  (** sealed, opaque to us *)
  session_key : bytes;
  issued_at : float;
  lifetime : float;
}

val create :
  ?seed:int64 ->
  ?password:string ->
  ?kdc_timeout:float ->
  ?kdc_retries:int ->
  ?ccache:bool ->
  ?kdc_rotation:bool ->
  ?retry_budget:int ->
  ?breaker_threshold:int ->
  ?breaker_cooldown:float ->
  ?honor_retry_after:bool ->
  ?kdc_deadline:float ->
  Sim.Net.t ->
  Sim.Host.t ->
  profile:Profile.t ->
  kdcs:(string * Sim.Addr.t) list ->
  Principal.t ->
  t
(** [kdcs] maps realm names to KDC addresses. A realm may appear more
    than once: the first entry is the master, later entries the slave
    KDCs, and every KDC exchange fails over down the list when an address
    stays silent through its retry budget ([kdc_timeout] seconds per
    attempt, default 1.0, exponential backoff over [kdc_retries]
    retransmissions, default 0). [password], if given, is remembered so
    {!get_ticket} can re-login when the TGT has expired.

    [ccache] (default [false]) turns on the service-ticket credential
    cache: {!get_ticket} reuses an unexpired ticket for the same service
    without a TGS exchange, as the real client reuses [/tmp/tkt<uid>] —
    including the paper's caveat that anyone who can read the cache can
    replay its contents ("an intruder ... can use these until they
    expire"). Only plain requests are cached; a request carrying options,
    an additional ticket, or authorization data always goes to the TGS.

    [kdc_rotation] (default [false]) reuses the failover list as a
    load-balancing rotation: each logical KDC request starts one position
    further along the realm's list (wrapping), so a pool of KDCs serving
    one realm shares the load while an unreachable member still fails
    over to the rest.

    {b Storm hygiene} (all off by default — the historical client, which
    amplifies overload):

    [retry_budget] caps retry amplification with a token bucket of the
    given capacity: every failover hop and every honored busy-wait spends
    a token, every successful exchange refills one (capped), and when the
    bucket is dry the exchange fails instead of adding load. [None]
    (default) retries without bound.

    [breaker_threshold] arms a per-KDC circuit breaker: after that many
    {e consecutive} busy/timeout outcomes from one KDC, the client stops
    sending to it for [breaker_cooldown] seconds (default 5.0) and routes
    around it via the failover list. After the cooldown one probe request
    is allowed through — success closes the breaker, failure re-trips it
    immediately.

    [honor_retry_after] makes the client treat a [KRB_ERR_BUSY] answer as
    a scheduling hint: wait out the KDC's retry-after, then retry (budget
    permitting). Without it a busy answer surfaces as an ordinary KDC
    error — the naive client the overload experiment measures.

    [kdc_deadline] bounds each logical KDC exchange (seconds): the
    deadline is stamped into the request ({!Messages.with_deadline}) so
    an admission-controlled KDC can shed the queued copy once the caller
    has given up, and no failover/busy-wait step starts past it.

    @raise Invalid_argument if [kdc_timeout] or [kdc_deadline] is not a
    positive finite number, naming it; or if [kdc_deadline] is given
    under a profile whose encoding carries no tags (V4's ad hoc
    encoding): the envelope would reach the KDC as a malformed request
    and every exchange would fail. *)

val principal : t -> Principal.t
val host : t -> Sim.Host.t
val net : t -> Sim.Net.t
val client_profile : t -> Profile.t
val client_rng : t -> Util.Rng.t

val login :
  t ->
  ?handheld:(bytes -> bytes) ->
  ?key:bytes ->
  ?service:Principal.t ->
  password:string ->
  ((credentials, string) result -> unit) ->
  unit
(** Obtain the ticket-granting ticket — or, with [?service], a ticket for
    that service directly from the AS exchange. The AS exchange is
    clock-free on the client side (nonce-based), which matters when a
    machine with a broken clock must reach the time service to fix it
    (the bootstrap problem of the "Secure Time Services" section).
    Credentials from a [?service] login are returned but not installed as
    the TGT. Under [Handheld_challenge] the
    optional [handheld] function computes [{R}Kc] (a hardware device that
    never reveals Kc); without a device the login code derives Kc from the
    password and computes it itself, as the paper says the login program
    would. The password-derived key is discarded after login except under
    [Password] login where it transiently protects the reply. *)

val tgt : t -> credentials option

val adopt_tgt : t -> credentials -> unit
(** Install stolen or forwarded credentials as this client's TGT — what an
    attacker does with a cache-theft haul. *)

val get_ticket :
  t ->
  ?options:Messages.kdc_options ->
  ?additional_ticket:bytes ->
  ?authz_data:bytes ->
  service:Principal.t ->
  ((credentials, string) result -> unit) ->
  unit
(** Obtain a service ticket via the TGS, following cross-realm referrals
    (bounded hops). If the client was created with a [password], an
    expired (or missing) TGT triggers a re-login first — including once
    when a TGS answers with the ticket-expired code
    ({!Messages.err_ticket_expired}), for the client whose TGT dies while
    a retry is in flight. The re-login keys on that code, not on the
    error's text: a KDC deadline that runs out ("KDC deadline expired
    (timed out)") settles the request at the deadline with no AS
    request.

    How long the caller waits: [kdc_deadline] bounds each AS or TGS
    exchange on its own, not the request. Every referral hop is an
    exchange, and so are the re-login and the TGS retry after a
    ticket-expired answer. So one [get_ticket] can take up to three
    deadlines (TGS, re-login, TGS again) plus one for every referral hop
    either TGS attempt follows.
    Without [kdc_deadline] each exchange is bounded by the failover walk
    instead: [kdc_timeout] with backoff over [kdc_retries] at each KDC of
    the realm, plus any honored retry-after waits. *)

(** Where the credentials came from — {!get_ticket_ex} tags its result so
    a caller can tell a live KDC answer from graceful degradation. *)
type source =
  | From_kdc    (** a KDC (AS or TGS) issued the ticket just now *)
  | From_cache  (** credential-cache hit ([~ccache:true], unexpired) *)
  | Degraded
      (** every KDC timed out, but a still-valid cached service ticket
          was served instead — authentication to {e new} services is
          down, existing tickets keep working until they expire *)

val get_ticket_ex :
  t ->
  ?options:Messages.kdc_options ->
  ?additional_ticket:bytes ->
  ?authz_data:bytes ->
  service:Principal.t ->
  ((credentials * source, string) result -> unit) ->
  unit
(** As {!get_ticket}, with the provenance of the result. When the whole
    KDC pool is silent (crash windows, partitions) and an unexpired
    ticket for [service] sits in the wallet, the request degrades to it
    ([Degraded]) instead of surfacing the timeout — the paper's
    availability story: tickets in hand outlive the KDC that issued
    them. Only plain requests degrade; options, additional tickets and
    authorization data genuinely need the TGS. *)

val degraded_fallbacks : t -> int
(** Requests this client served as [Degraded] (also counted on the
    net-wide [client.degraded_fallbacks] metric). *)

val kdc_addrs : t -> string -> Sim.Addr.t list
(** All configured KDC addresses for a realm, failover order. *)

(** An authenticated session handle bound to a client-side port. *)
type channel

val session : channel -> Session.t

val ap_exchange :
  t ->
  credentials ->
  ?mutual:bool ->
  ?deadline:float ->
  ?transport:[ `Auto | `Udp | `Tcp ] ->
  dst:Sim.Addr.t ->
  dport:int ->
  ((channel, string) result -> unit) ->
  unit
(** [deadline] (seconds from now; default none — wait forever, the
    pre-fault-plane behaviour) bounds the whole exchange: if it passes
    first the link is torn down and the continuation gets
    [Error "AP exchange timed out"], exactly once. The deadline timer is
    disarmed when the exchange settles, so the event queue lets go of the
    continuation then, not at the deadline.

    [transport] (default [`Auto]) picks the channel's link: [`Auto]
    tries a datagram exchange first and transparently redoes it over
    framed TCP when the AP_REQ itself exceeds the client's path MTU or
    the server answers with a RESPONSE-TOO-BIG refusal; [`Udp]/[`Tcp]
    pin the link. A datagram channel that later hits the refusal on a
    sealed call re-establishes itself over TCP and resends the call,
    invisibly to the caller (counted in
    [transport.fallback.response_too_big]).

    @raise Invalid_argument if [deadline] is negative, NaN or infinite
    (to wait forever, give none). Zero is a deadline that has already
    run out. *)

val call_priv :
  t -> channel -> ?deadline:float -> bytes -> k:((bytes, string) result -> unit) -> unit
(** Seal a request, send it on the channel, open the sealed response.
    [deadline] bounds the wait as in {!ap_exchange} (the channel itself
    survives for later calls): the continuation runs exactly once, and a
    reply disarms the deadline timer, releasing the continuation at once.
    A call that times out is forgotten: a later TCP upgrade of the
    channel does not resend it. On a {!close}d channel the continuation
    gets [Error "channel closed"] at once.

    A stream channel whose connection the peer or the network tears
    down (a reset, forged or not; the peer's FIN; retransmission
    exhaustion) is over: a call waiting on it gets
    [Error "channel closed"], exactly once, and so does every later
    [call_priv]/[call_safe], at once. So does a channel whose TCP upgrade
    failed, after its waiting call got ["TCP upgrade failed: ..."].

    @raise Invalid_argument if [deadline] is negative, NaN or infinite,
    before anything is sent. *)

val call_safe :
  t -> channel -> ?deadline:float -> bytes -> k:((bytes, string) result -> unit) -> unit
(** As [call_priv] but integrity-only (KRB_SAFE): the request travels in
    the clear with a sealed checksum. A closed or lost channel answers
    as for [call_priv], and a negative, NaN or infinite [deadline] is
    refused the same way. *)

val close : channel -> unit
(** Tear the channel's link down: the datagram port stops listening (a
    late reply is dropped as [net.dropped.no-listener]); a stream link
    sends its FIN. A call still waiting on the channel gets
    [Error "channel closed"], exactly once. Closing again does nothing.
    The server keeps its side of the session until its peer table
    evicts it. *)

val logout : t -> unit
(** Wipe cached credentials (workstation logout) — the TGT, the
    service-ticket cache, and the host cache entries. *)

val ccache_hits : t -> int
(** TGS exchanges skipped because an unexpired service ticket was reused
    (always 0 unless the client was created with [~ccache:true]). *)

val ccache_misses : t -> int
(** Cacheable {!get_ticket} requests that had to go to the TGS anyway —
    first use of a service, or its cached ticket had expired. *)

val busy_received : t -> int
(** [KRB_ERR_BUSY] answers this client has received from KDCs. *)

val breaker_trips : t -> int
(** Times a per-KDC circuit breaker opened (0 without
    [breaker_threshold]). *)

val budget_exhausted : t -> int
(** Retry/busy-wait steps refused because the retry budget was dry (0
    without [retry_budget]). *)

val retry_tokens : t -> float
(** Tokens currently in the retry bucket (0.0 without [retry_budget]). *)

(** Plumbing shared with the hardened helpers and the attacks: *)

val seal_authenticator : t -> credentials -> Messages.authenticator -> bytes

val creds_to_bytes : credentials -> bytes
(** The serialized form parked in the host credential cache. *)

val creds_of_bytes : bytes -> credentials
(** What a cache thief does with a stolen entry.
    @raise Wire.Codec.Decode_error *)

val build_authenticator :
  t -> credentials -> ?req_cksum:bytes -> now:float -> unit ->
  Messages.authenticator * bytes option * int option
(** The authenticator record plus the subkey part and initial sequence
    number chosen for it (also returned so the caller can build the session
    afterwards). Not sealed yet. *)
