(** A Kerberos-authenticated application server on a datagram port.

    After a successful AP exchange (timestamp-authenticator or
    challenge/response, per the profile), the [handler] is invoked for each
    KRB_PRIV or KRB_SAFE request on the established session with the
    session's client and the opened data; its optional result is sealed
    and sent back.

    {2 The peer table}

    "All servers must then retain state": the server keeps one row per
    peer (source address and port), in parallel columns indexed by the
    row's slot on an insertion-order ring, with an open-addressed index
    from endpoint to slot. The columns are the endpoint, a pending
    challenge, and for an established session its key (8 bytes a slot in
    one [bytes]), the key's schedule, the client principal, the server
    address it was made at, and only what its profile's KRB_PRIV and
    KRB_SAFE read again:
    - [Priv_timestamp]: the one live ciphertext of the session's replay
      cache and its expiry (unboxed); a session with a second live entry
      keeps a {!Replay_cache.t} instead, until it holds one again;
    - [Priv_sequence]: the next sequence numbers to send and to accept;
    - [Cbc_iv_chain]: the 16 IV bytes of {!Session.iv_chain}.

    No {!Session.t} outlives a frame: each frame on an established row
    runs {!Krb_priv} or {!Krb_safe} on a session built from the row, and
    the row takes back what the frame changed (replay entries, sequence
    numbers, IVs). *)

type t

type config = {
  accept_forwarded : bool;
  trusted_transit : string list;
  skew : float;  (** authenticator acceptance window *)
  refuse_dup_skey : bool;
      (** obey Draft 3's warning against authenticating with
          DUPLICATE-SKEY tickets (defeats the REUSE-SKEY redirect) *)
  max_peers : int;
      (** bound on per-peer state (pending challenges + live sessions),
          at least 1. "All servers must then retain state to complete the
          authentication process" — and an attacker can milk that by
          opening challenges it never answers; beyond the bound the oldest
          entry is evicted. Entries are ordered by when their peer (source
          address and port) first appeared: a challenge answered later,
          or a peer's new AP exchange, keeps the entry's place. *)
  persist_replay_cache : bool;
      (** snapshot the replay cache at {!crash} and restore it at
          {!restart} (default [false] — the volatile cache whose restart
          gap the paper warns about). *)
}

val default_config : config

val install :
  ?seed:int64 ->
  ?config:config ->
  Sim.Net.t ->
  Sim.Host.t ->
  profile:Profile.t ->
  principal:Principal.t ->
  key:bytes ->
  port:int ->
  handler:(client:Principal.t -> bytes -> bytes option) ->
  unit ->
  t
(** [handler ~client data] answers one opened request from [client], the
    principal the session's ticket named; [None] sends nothing back.
    @raise Invalid_argument naming [max_peers] when [config.max_peers] is
    below 1: with no room for a peer, every session would be evicted as
    it was made. *)

val sessions_established : t -> int
(** Cumulative over the server's lifetime, crashes included. *)

val rejections : t -> (int * string) list
(** (code, reason) of the most recent refused AP attempts, newest first:
    at most the last 64, because an attacker decides how many there are.
    The per-service [ap.<service>.ap_rejects] counter still counts every
    one. *)

val replay_hits : t -> int
(** Authenticators refused as replays (the per-service telemetry
    counter), cumulative across restarts. *)

(** {1 Crash/restart}

    A server process dies and comes back: the port goes silent, pending
    challenges and established sessions are lost, and the replay cache
    survives only under [persist_replay_cache]. A {e non}-persistent
    cache restart re-admits any authenticator still inside the skew
    window — the operational gap the paper points out. *)

val crash : t -> unit
(** Idempotent; the port stops answering immediately. *)

val restart : t -> unit
(** Idempotent; re-listens on the same port with fresh peer state and a
    restored (persistent) or empty (volatile) replay cache. *)

val running : t -> bool

val replay_cache_size : t -> int
(** 0 when the profile runs without a cache. *)

val peer_state_size : t -> int
(** Pending challenges plus established sessions currently held — the
    state cost E14 measures. *)

val peer_state_words : t -> int
(** Heap words those {!peer_state_size} rows own: each one's slot of
    every column its profile reads (the 8 key bytes and the 16 IV bytes
    count as one and two words), its share of the endpoint index, and
    what the row alone reaches: the client principal, the live KRB_PRIV
    or KRB_SAFE ciphertext or replay cache, a pending challenge. What
    every row points at but none owns is not counted: the profile, the
    server's own principal (whose realm string the client principals
    share) and the empty instance, the settings every session's replay
    cache shares ({!Session.replay_settings}), the placeholders the
    table's unused slots hold, those slots themselves, and the sessions'
    DES schedules. The schedule memo shares a session's 17-word schedule
    only while its key is among the memo's recent entries. A
    measurement, not a hot path: it walks everything the table
    reaches. *)
