type error = Bad_checksum | Stale of float | Replay | Out_of_sequence | Malformed

let error_to_string = function
  | Bad_checksum -> "bad checksum"
  | Stale dt -> Printf.sprintf "stale by %.1fs" dt
  | Replay -> "replay"
  | Out_of_sequence -> "out of sequence"
  | Malformed -> "malformed"

let skew = Krb_priv.skew

(* Covered fields: data, stamp, the sender's address. The sender passes its
   own address; the verifier passes the peer's. *)
let covered ~addr data stamp =
  Wire.Codec.Writer.pooled (fun w ->
      Wire.Codec.Writer.lbytes w data;
      Wire.Codec.Writer.i64 w stamp;
      Wire.Codec.Writer.u32 w addr;
      Wire.Codec.Writer.contents w)

(* Encipher the checksum under the session key (ECB over its padded form),
   as the drafts' "encrypted checksum" types do. The session's scheduled
   key is reused; padding is written straight into the buffer we encrypt
   in place. *)
let seal_cksum (s : Session.t) raw =
  let n = Bytes.length raw in
  let buf = Crypto.Mode.create_padded n in
  Bytes.blit raw 0 buf 0 n;
  Crypto.Mode.ecb_encrypt_into s.sched ~src:buf ~dst:buf;
  buf

let stamp_of (s : Session.t) ~now =
  match s.stamps with
  | Session.Timestamps _ -> Int64.bits_of_float now
  | Session.Sequence q ->
      let v = Int64.of_int q.send_seq in
      q.send_seq <- q.send_seq + 1;
      v

let seal (s : Session.t) ~now data =
  let stamp = stamp_of s ~now in
  let cksum =
    Crypto.Checksum.compute s.profile.Profile.checksum ~key:s.key
      (covered ~addr:s.own_addr data stamp)
  in
  Wire.Codec.Writer.pooled (fun w ->
      Wire.Codec.Writer.lbytes w data;
      Wire.Codec.Writer.i64 w stamp;
      Wire.Codec.Writer.lbytes w (seal_cksum s cksum);
      Wire.Codec.Writer.contents w)

let open_ (s : Session.t) ~now msg =
  match
    let r = Wire.Codec.Reader.of_bytes msg in
    let data = Wire.Codec.Reader.lbytes r in
    let stamp = Wire.Codec.Reader.i64 r in
    let sealed = Wire.Codec.Reader.lbytes r in
    Wire.Codec.Reader.expect_end r;
    (data, stamp, sealed)
  with
  | exception Wire.Codec.Decode_error _ -> Error Malformed
  | data, stamp, sealed ->
      let expect =
        Crypto.Checksum.compute s.profile.Profile.checksum ~key:s.key
          (covered ~addr:s.peer_addr data stamp)
      in
      if not (Util.Bytesutil.equal sealed (seal_cksum s expect)) then Error Bad_checksum
      else begin
        match s.stamps with
        | Session.Timestamps cache ->
            let ts = Int64.float_of_bits stamp in
            let dt = Float.abs (now -. ts) in
            if dt > skew then Error (Stale dt)
            else if Replay_cache.check_and_insert cache ~now msg = Replay_cache.Replayed
            then Error Replay
            else Ok data
        | Session.Sequence q ->
            if Int64.to_int stamp <> q.recv_seq then Error Out_of_sequence
            else begin
              q.recv_seq <- q.recv_seq + 1;
              Ok data
            end
      end
