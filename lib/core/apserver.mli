(** A Kerberos-authenticated application server on a datagram port.

    After a successful AP exchange (timestamp-authenticator or
    challenge/response, per the profile), the [handler] is invoked for each
    KRB_PRIV request on the established session; its optional result is
    sealed and sent back. *)

type t

type config = {
  accept_forwarded : bool;
  trusted_transit : string list;
  skew : float;  (** authenticator acceptance window *)
  refuse_dup_skey : bool;
      (** obey Draft 3's warning against authenticating with
          DUPLICATE-SKEY tickets (defeats the REUSE-SKEY redirect) *)
  max_peers : int;
      (** bound on per-peer state (pending challenges + live sessions).
          "All servers must then retain state to complete the
          authentication process" — and an attacker can milk that by
          opening challenges it never answers; beyond the bound the oldest
          entries are evicted. *)
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
  handler:(Session.t -> client:Principal.t -> bytes -> bytes option) ->
  unit ->
  t

val sessions_established : t -> int
(** Cumulative over the server's lifetime, crashes included. *)

val rejections : t -> (int * string) list
(** Reverse-chronological (code, reason) of refused AP attempts. *)

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
(** Heap words those {!peer_state_size} entries hold: each one's table
    and eviction-queue cells, its endpoint, and its pending challenge or
    session (key, client principal, replay cache). The empty table, the
    profile (which the server holds anyway) and the sessions' DES
    schedules are not counted; the schedule memo shares a session's
    17-word schedule only while its key is among the memo's recent
    entries. A measurement, not a hot path: it walks everything the
    table reaches. *)
