(** Per-connection cryptographic state shared by the two ends of an
    authenticated exchange.

    The paper's point about "session" keys: in stock Kerberos the key in
    the ticket is really a {e multi-session} key, alive as long as the
    ticket. When [Profile.negotiate_session_key] is set, the key here is
    instead the XOR-negotiated true session key (recommendation (e)),
    limiting both cryptanalytic exposure and cross-session substitution. *)

type role = Client_side | Server_side

(** What stops a replayed KRB_PRIV or KRB_SAFE, per
    [Profile.priv_replay]. Each message is checked by one of them, never
    both, so a session holds only the one its profile reads. *)
type stamps =
  | Timestamps of Replay_cache.t
      (** [Priv_timestamp]: a message inside the skew window is refused
          if this per-session cache has seen its ciphertext. Only this
          mode has a replay cache. *)
  | Sequence of { mutable send_seq : int; mutable recv_seq : int }
      (** [Priv_sequence]: the next number to send and to accept. A
          sequence number needs no cache. *)

type t = {
  profile : Profile.t;
  key : bytes;  (** multi-session or negotiated, per profile *)
  sched : Crypto.Des.key;
      (** [key] scheduled once at [make]; every seal/open under this
          session reuses it instead of re-deriving the subkeys per
          message. *)
  role : role;
  own_addr : Sim.Addr.t;
  peer_addr : Sim.Addr.t;
  stamps : stamps;
  mutable send_iv : bytes;
      (** evolving IV, [Cbc_iv_chain] only; empty under the other modes *)
  mutable recv_iv : bytes;
}

val make :
  profile:Profile.t ->
  role:role ->
  key:bytes ->
  own_addr:Sim.Addr.t ->
  peer_addr:Sim.Addr.t ->
  send_seq:int ->
  recv_seq:int ->
  t
(** [send_seq] and [recv_seq] seed [Sequence]; under [Priv_timestamp]
    they are not read. *)

val derived_key :
  Profile.t ->
  multi:bytes ->
  client_part:bytes option ->
  server_part:bytes option ->
  (bytes, string) result
(** The session key per profile: the multi-session key as-is, or the
    negotiated XOR when the profile asks for it. A negotiating profile
    with either part absent is an [Error]: the part comes from the peer,
    so its absence is the peer's fault, not a local invariant. Parts
    decoded by {!Messages} are 8 bytes, as the XOR requires. *)
