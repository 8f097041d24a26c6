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
  mutable send_iv : bytes;
  mutable recv_iv : bytes;
}

(* Directional initial IVs both sides can compute: E_k(direction byte,
   zero-padded). "Initial values for it should be exchanged during (or
   derived from) the authentication handshake." *)
let initial_iv ~sched direction =
  let block = Bytes.make 8 '\000' in
  Bytes.set block 0 direction;
  Crypto.Des.encrypt_block sched block

(* Only [Cbc_iv_chain] reads the IVs, so only it pays their two blocks,
   and only [Priv_timestamp] reads a replay cache, so only it owns one. *)
let make ~profile ~role ~key ~own_addr ~peer_addr ~send_seq ~recv_seq =
  let sched = Crypto.Des.schedule_cached key in
  let send_iv, recv_iv =
    match profile.Profile.priv_mode with
    | Profile.Pcbc_v4 | Profile.Cbc_v5_draft -> (Bytes.empty, Bytes.empty)
    | Profile.Cbc_iv_chain -> (
        let c2s = initial_iv ~sched 'C' and s2c = initial_iv ~sched 'S' in
        match role with Client_side -> (c2s, s2c) | Server_side -> (s2c, c2s))
  in
  let stamps =
    match profile.Profile.priv_replay with
    | Profile.Priv_timestamp -> Timestamps (Replay_cache.create ~horizon:600.0 ())
    | Profile.Priv_sequence -> Sequence { send_seq; recv_seq }
  in
  { profile; key; sched; role; own_addr; peer_addr; stamps; send_iv; recv_iv }

let derived_key (profile : Profile.t) ~multi ~client_part ~server_part =
  if not profile.negotiate_session_key then Ok multi
  else
    match (client_part, server_part) with
    | Some c, Some s ->
        Ok (Crypto.Prf.negotiate_session_key ~multi ~client_part:c ~server_part:s)
    | _ -> Error "negotiation parts missing"
