type error =
  | Garbled
  | Bad_direction
  | Bad_address
  | Stale of float
  | Replay
  | Out_of_sequence of { expected : int; got : int }

let error_to_string = function
  | Garbled -> "garbled"
  | Bad_direction -> "bad direction"
  | Bad_address -> "bad address"
  | Stale dt -> Printf.sprintf "stale by %.1fs" dt
  | Replay -> "replay"
  | Out_of_sequence { expected; got } ->
      Printf.sprintf "out of sequence (expected %d, got %d)" expected got

let skew = 300.0

let direction_byte (s : Session.t) ~sending =
  match (s.role, sending) with
  | Session.Client_side, true | Session.Server_side, false -> 0 (* client -> server *)
  | Session.Client_side, false | Session.Server_side, true -> 1

let sched (s : Session.t) = s.Session.sched

(* The seal paths assemble each layout directly in its final padded buffer
   ([Mode.create_padded]) with plain big-endian stores matching the
   [Wire.Codec.Writer] formats, then encrypt in place: sealing a frame
   performs exactly one allocation, the ciphertext itself. The open paths
   decrypt into one fresh buffer and parse it in place with a cursor
   reader ([Codec.Reader.of_sub]) — no trailer copies. *)
let set_u32 b pos v =
  Bytes.set_uint16_be b pos ((v lsr 16) land 0xffff);
  Bytes.set_uint16_be b (pos + 2) (v land 0xffff)

let decrypt_pcbc k ~iv ct =
  let plain = Bytes.create (Bytes.length ct) in
  Crypto.Mode.pcbc_decrypt_into k ~iv ~src:ct ~dst:plain;
  plain

let decrypt_cbc k ~iv ct =
  let plain = Bytes.create (Bytes.length ct) in
  Crypto.Mode.cbc_decrypt_into k ~iv ~src:ct ~dst:plain;
  plain

(* Stamp field: timestamp or sequence number, by profile. *)
let stamp_value (s : Session.t) ~now =
  match s.stamps with
  | Session.Timestamps _ -> Int64.bits_of_float now
  | Session.Sequence q ->
      let v = Int64.of_int q.send_seq in
      q.send_seq <- q.send_seq + 1;
      v

let check_stamp (s : Session.t) ~now stamp ~replay_key =
  match s.stamps with
  | Session.Timestamps cache ->
      let ts = Int64.float_of_bits stamp in
      let dt = Float.abs (now -. ts) in
      if dt > skew then Error (Stale dt)
      else if Replay_cache.check_and_insert cache ~now replay_key = Replay_cache.Replayed
      then Error Replay
      else Ok ()
  | Session.Sequence q ->
      let got = Int64.to_int stamp in
      if got <> q.recv_seq then Error (Out_of_sequence { expected = q.recv_seq; got })
      else begin
        q.recv_seq <- q.recv_seq + 1;
        Ok ()
      end

(* --- V4 layout: [u32 len][data][i64 msec][u32 addr][i64 stamp][u8 dir] --- *)

let seal_v4 s ~now data =
  let dlen = Bytes.length data in
  let plen = 4 + dlen + 8 + 4 + 8 + 1 in
  let buf = Crypto.Mode.create_padded plen in
  set_u32 buf 0 dlen;
  Bytes.blit data 0 buf 4 dlen;
  Bytes.set_int64_be buf (4 + dlen) (Int64.of_float (now *. 1000.0));
  set_u32 buf (12 + dlen) s.Session.own_addr;
  Bytes.set_int64_be buf (16 + dlen) (stamp_value s ~now);
  Bytes.set buf (24 + dlen) (Char.chr (direction_byte s ~sending:true));
  Crypto.Mode.pcbc_encrypt_into (sched s) ~iv:Crypto.Mode.zero_iv ~src:buf ~dst:buf;
  buf

let open_v4 s ~now ct =
  let plain = decrypt_pcbc (sched s) ~iv:Crypto.Mode.zero_iv ct in
  match Crypto.Mode.unpad_length plain with
  | None -> Error Garbled
  | Some n -> (
      match
        let r = Wire.Codec.Reader.of_sub plain ~pos:0 ~len:n in
        let data = Wire.Codec.Reader.lbytes r in
        let _msec = Wire.Codec.Reader.i64 r in
        let addr = Wire.Codec.Reader.u32 r in
        let stamp = Wire.Codec.Reader.i64 r in
        let dir = Wire.Codec.Reader.u8 r in
        Wire.Codec.Reader.expect_end r;
        (data, addr, stamp, dir)
      with
      | exception Wire.Codec.Decode_error _ -> Error Garbled
      | data, addr, stamp, dir ->
          if dir <> direction_byte s ~sending:false then Error Bad_direction
          else if not (Sim.Addr.equal addr s.Session.peer_addr) then Error Bad_address
          else
            Result.map (fun () -> data) (check_stamp s ~now stamp ~replay_key:ct))

(* --- V5 draft layout: [data][cksum over data][i64 stamp][u8 dir][u32 addr],
   data FIRST, under CBC with a fixed public IV. The checksum "is used to
   detect message modification" — but it is the profile's (possibly
   CRC-32) checksum over attacker-visible content, computed inside the
   encryption, so a chosen-plaintext prefix can carry a valid one. --- *)

let v5_cksum_size (s : Session.t) = Crypto.Checksum.size s.profile.Profile.checksum

let trailer_size = 8 + 1 + 4

(* The embedded checksum covers the data bytes; unkeyed for Crc32/Md4 (the
   session key argument is used only by Md4_des). *)
let v5_cksum (s : Session.t) data =
  Crypto.Checksum.compute s.profile.Profile.checksum ~key:s.key data

let seal_v5 s ~now data =
  let dlen = Bytes.length data in
  let csize = v5_cksum_size s in
  let plen = dlen + csize + trailer_size in
  let buf = Crypto.Mode.create_padded plen in
  Bytes.blit data 0 buf 0 dlen;
  let cksum =
    Crypto.Checksum.compute_sub s.Session.profile.Profile.checksum ~key:s.Session.key
      buf ~pos:0 ~len:dlen
  in
  Bytes.blit cksum 0 buf dlen csize;
  Bytes.set_int64_be buf (dlen + csize) (stamp_value s ~now);
  Bytes.set buf (dlen + csize + 8) (Char.chr (direction_byte s ~sending:true));
  set_u32 buf (dlen + csize + 9) s.Session.own_addr;
  Crypto.Mode.cbc_encrypt_into (sched s) ~iv:Crypto.Mode.zero_iv ~src:buf ~dst:buf;
  buf

let parse_v5_plain s plain n =
  let csize = v5_cksum_size s in
  if n < trailer_size + csize then Error Garbled
  else begin
    let dlen = n - trailer_size - csize in
    let data = Bytes.sub plain 0 dlen in
    let cksum = Bytes.sub plain dlen csize in
    let r = Wire.Codec.Reader.of_sub plain ~pos:(n - trailer_size) ~len:trailer_size in
    let stamp = Wire.Codec.Reader.i64 r in
    let dir = Wire.Codec.Reader.u8 r in
    let addr = Wire.Codec.Reader.u32 r in
    if Util.Bytesutil.equal cksum (v5_cksum s data) then Ok (data, addr, stamp, dir)
    else Error Garbled
  end

let open_v5 s ~now ct =
  let plain = decrypt_cbc (sched s) ~iv:Crypto.Mode.zero_iv ct in
  match Crypto.Mode.unpad_length plain with
  | None -> Error Garbled
  | Some n -> (
      match parse_v5_plain s plain n with
      | Error e -> Error e
      | Ok (data, addr, stamp, dir) ->
          if dir <> direction_byte s ~sending:false then Error Bad_direction
          else if not (Sim.Addr.equal addr s.Session.peer_addr) then Error Bad_address
          else Result.map (fun () -> data) (check_stamp s ~now stamp ~replay_key:ct))

(* --- Hardened layout: [data][md4 over data+trailer][trailer], IV chains
   across the session's messages in each direction. --- *)

let seal_chain s ~now data =
  let dlen = Bytes.length data in
  let plen = dlen + 16 + trailer_size in
  let buf = Crypto.Mode.create_padded plen in
  Bytes.blit data 0 buf 0 dlen;
  Bytes.fill buf dlen 16 '\000';
  Bytes.set_int64_be buf (dlen + 16) (stamp_value s ~now);
  Bytes.set buf (dlen + 24) (Char.chr (direction_byte s ~sending:true));
  set_u32 buf (dlen + 25) s.Session.own_addr;
  (* The digest field is still zero here, so this hashes the zeroed form
     (the digest covers the unpadded plaintext only). *)
  let digest = Crypto.Md4.digest_sub buf ~pos:0 ~len:plen in
  Bytes.blit digest 0 buf dlen 16;
  Crypto.Mode.cbc_encrypt_into (sched s) ~iv:s.Session.send_iv ~src:buf ~dst:buf;
  (* Chain: next message continues from this one's last block. *)
  s.Session.send_iv <- Bytes.sub buf (Bytes.length buf - 8) 8;
  buf

let open_chain s ~now ct =
  let plain = decrypt_cbc (sched s) ~iv:s.Session.recv_iv ct in
  match Crypto.Mode.unpad_length plain with
  | None -> Error Garbled
  | Some n ->
      if n < 16 + trailer_size then Error Garbled
      else begin
        let dlen = n - 16 - trailer_size in
        (* [plain] is ours: lift the digest out and re-zero its field in
           place rather than copying the whole message. *)
        let digest = Bytes.sub plain dlen 16 in
        Bytes.fill plain dlen 16 '\000';
        if not (Util.Bytesutil.equal digest (Crypto.Md4.digest_sub plain ~pos:0 ~len:n))
        then Error Garbled
        else begin
          let data = Bytes.sub plain 0 dlen in
          let r = Wire.Codec.Reader.of_sub plain ~pos:(dlen + 16) ~len:trailer_size in
          let stamp = Wire.Codec.Reader.i64 r in
          let dir = Wire.Codec.Reader.u8 r in
          let addr = Wire.Codec.Reader.u32 r in
          if dir <> direction_byte s ~sending:false then Error Bad_direction
          else if not (Sim.Addr.equal addr s.Session.peer_addr) then Error Bad_address
          else
            match check_stamp s ~now stamp ~replay_key:ct with
            | Error e -> Error e
            | Ok () ->
                s.Session.recv_iv <- Bytes.sub ct (Bytes.length ct - 8) 8;
                Ok data
        end
      end

let seal s ~now data =
  match s.Session.profile.Profile.priv_mode with
  | Profile.Pcbc_v4 -> seal_v4 s ~now data
  | Profile.Cbc_v5_draft -> seal_v5 s ~now data
  | Profile.Cbc_iv_chain -> seal_chain s ~now data

let open_ s ~now ct =
  (* Guard before the block modes see the buffer: [Mode.*_decrypt_into]
     raises [Invalid_argument] on anything that is not a whole number of
     blocks, and a fault-plane truncation (or any injected frame) can
     hand us exactly that. Not a ciphertext — just Garbled. *)
  if Bytes.length ct = 0 || Bytes.length ct mod 8 <> 0 then Error Garbled
  else
    match s.Session.profile.Profile.priv_mode with
    | Profile.Pcbc_v4 -> open_v4 s ~now ct
    | Profile.Cbc_v5_draft -> open_v5 s ~now ct
    | Profile.Cbc_iv_chain -> open_chain s ~now ct
