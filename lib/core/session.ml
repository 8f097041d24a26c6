type role = Client_side | Server_side

type stamps =
  | Timestamps of Replay_cache.t
  | Sequence of { mutable send_seq : int; mutable recv_seq : int }

type t = {
  profile : Profile.t;
  key : bytes;
  sched : Crypto.Des.key;
  role : role;
  own_addr : Sim.Addr.t;
  peer_addr : Sim.Addr.t;
  stamps : stamps;
  iv_chain : bytes;
}

let replay_settings = Replay_cache.settings ~horizon:600.0 ()

(* Directional initial IVs both sides can compute: E_k(direction byte,
   zero-padded), the client-to-server one from 'C' and the other from
   'S'. "Initial values for it should be exchanged during (or derived
   from) the authentication handshake." Each side puts its sending IV
   first and enciphers both blocks in place. *)
let initial_ivs ~sched role =
  let send, recv = match role with Client_side -> ('C', 'S') | Server_side -> ('S', 'C') in
  let ivs = Bytes.make 16 '\000' in
  Bytes.set ivs 0 send;
  Bytes.set ivs 8 recv;
  Crypto.Mode.ecb_encrypt_into sched ~src:ivs ~dst:ivs;
  ivs

(* Only [Cbc_iv_chain] reads the IVs, so only it pays their buffer, and
   only [Priv_timestamp] reads a replay cache, so only it owns one. *)
let make ~profile ~role ~key ~own_addr ~peer_addr ~send_seq ~recv_seq =
  let sched = Crypto.Des.schedule_cached key in
  let iv_chain =
    match profile.Profile.priv_mode with
    | Profile.Pcbc_v4 | Profile.Cbc_v5_draft -> Bytes.empty
    | Profile.Cbc_iv_chain -> initial_ivs ~sched role
  in
  let stamps =
    match profile.Profile.priv_replay with
    | Profile.Priv_timestamp -> Timestamps (Replay_cache.make replay_settings)
    | Profile.Priv_sequence -> Sequence { send_seq; recv_seq }
  in
  { profile; key; sched; role; own_addr; peer_addr; stamps; iv_chain }

let derived_key (profile : Profile.t) ~multi ~client_part ~server_part =
  if not profile.negotiate_session_key then Ok multi
  else
    match (client_part, server_part) with
    | Some c, Some s ->
        Ok (Crypto.Prf.negotiate_session_key ~multi ~client_part:c ~server_part:s)
    | _ -> Error "negotiation parts missing"
