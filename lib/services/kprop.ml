open Kerberos

type t = {
  master : Principal.t;
  slave_db : Kdb.t;
  metrics : Telemetry.Metrics.t;
  mutable received : int;
  mutable refused : int;
  mutable shards_received : int;
  mutable reconciled : int;
}

let propagations_received t = t.received
let pushes_refused t = t.refused
let shard_propagations_received t = t.shards_received
let reconciliations t = t.reconciled

(* One counter per shard index, shared by name across the daemons of a
   net: how many times anti-entropy had to install that shard. *)
let note_reconciled metrics shard =
  Telemetry.Metrics.incr
    (Telemetry.Metrics.counter metrics (Printf.sprintf "kprop.reconciled.%d" shard))

(* "SHRD " payload: shard index, sender's shard count, shard dump. The
   count travels with every push so a mis-configured pair (master and
   slave partitioned differently) is refused instead of scattering
   entries into the wrong shards. *)
let shard_msg ~db ~shard =
  let w = Wire.Codec.Writer.create () in
  Wire.Codec.Writer.u32 w shard;
  Wire.Codec.Writer.u32 w (Kdb.shard_count db);
  Wire.Codec.Writer.lbytes w (Kdb.shard_to_bytes db shard);
  Bytes.cat (Bytes.of_string "SHRD ") (Wire.Codec.Writer.contents w)

let handle_shard t data =
  match
    let r = Wire.Codec.Reader.of_bytes data in
    let idx = Wire.Codec.Reader.u32 r in
    let count = Wire.Codec.Reader.u32 r in
    let blob = Wire.Codec.Reader.lbytes r in
    Wire.Codec.Reader.expect_end r;
    (idx, count, blob)
  with
  | exception Wire.Codec.Decode_error e -> "ERR " ^ e
  | idx, count, blob ->
      if count <> Kdb.shard_count t.slave_db then
        Printf.sprintf "ERR shard count mismatch (master %d, slave %d)" count
          (Kdb.shard_count t.slave_db)
      else if idx < 0 || idx >= count then
        Printf.sprintf "ERR shard index %d out of range" idx
      else (
        (* Atomic per shard: a decode error leaves the shard untouched. *)
        match Kdb.replace_shard_from_bytes t.slave_db idx blob with
        | () ->
            t.shards_received <- t.shards_received + 1;
            "OK"
        | exception Wire.Codec.Decode_error e -> "ERR " ^ e)

(* --- Anti-entropy reconciliation ----------------------------------- *)

(* "DIG" reply payload: per shard, the version counter and the CRC-32
   digest of the sorted shard dump. Equal digests mean byte-identical
   contents; the versions decide who wins when they differ. *)
let digests_msg db =
  let w = Wire.Codec.Writer.create () in
  let n = Kdb.shard_count db in
  Wire.Codec.Writer.u32 w n;
  let versions = Kdb.version_vector db in
  for i = 0 to n - 1 do
    Wire.Codec.Writer.i64 w (Int64.of_int versions.(i));
    Wire.Codec.Writer.u32 w (Kdb.shard_digest db i)
  done;
  Bytes.cat (Bytes.of_string "DIG ") (Wire.Codec.Writer.contents w)

let parse_digests data =
  let r = Wire.Codec.Reader.of_bytes data in
  let n = Wire.Codec.Reader.u32 r in
  if n < 1 || n > 65536 then Wire.Codec.fail "kprop: bad digest count";
  let out =
    Array.init n (fun _ ->
        let v = Int64.to_int (Wire.Codec.Reader.i64 r) in
        let d = Wire.Codec.Reader.u32 r in
        (v, d))
  in
  Wire.Codec.Reader.expect_end r;
  out

(* "SHD" reply / "SHDV" push payload: shard index, shard count, version,
   dump — a versioned variant of the plain "SHRD" push, so the installing
   side adopts the winner's version instead of minting a new one. *)
let versioned_shard_msg ~db ~shard ~version =
  let w = Wire.Codec.Writer.create () in
  Wire.Codec.Writer.u32 w shard;
  Wire.Codec.Writer.u32 w (Kdb.shard_count db);
  Wire.Codec.Writer.i64 w (Int64.of_int version);
  Wire.Codec.Writer.lbytes w (Kdb.shard_to_bytes db shard);
  Wire.Codec.Writer.contents w

let parse_versioned_shard data =
  let r = Wire.Codec.Reader.of_bytes data in
  let idx = Wire.Codec.Reader.u32 r in
  let count = Wire.Codec.Reader.u32 r in
  let version = Int64.to_int (Wire.Codec.Reader.i64 r) in
  let blob = Wire.Codec.Reader.lbytes r in
  Wire.Codec.Reader.expect_end r;
  (idx, count, version, blob)

let install_versioned t ~idx ~count ~version ~blob =
  if count <> Kdb.shard_count t.slave_db then
    Printf.sprintf "ERR shard count mismatch (peer %d, local %d)" count
      (Kdb.shard_count t.slave_db)
  else if idx < 0 || idx >= count then
    Printf.sprintf "ERR shard index %d out of range" idx
  else
    match Kdb.replace_shard_from_bytes ~version t.slave_db idx blob with
    | () ->
        t.reconciled <- t.reconciled + 1;
        note_reconciled t.metrics idx;
        "OK"
    | exception Wire.Codec.Decode_error e -> "ERR " ^ e

let handle_pull t data =
  match
    let r = Wire.Codec.Reader.of_bytes data in
    let idx = Wire.Codec.Reader.u32 r in
    Wire.Codec.Reader.expect_end r;
    idx
  with
  | exception Wire.Codec.Decode_error e -> Bytes.of_string ("ERR " ^ e)
  | idx ->
      if idx < 0 || idx >= Kdb.shard_count t.slave_db then
        Bytes.of_string (Printf.sprintf "ERR shard index %d out of range" idx)
      else
        Bytes.cat (Bytes.of_string "SHD ")
          (versioned_shard_msg ~db:t.slave_db ~shard:idx
             ~version:(Kdb.version_vector t.slave_db).(idx))

let handle t ~client data =
  let reply m = Some (Bytes.of_string m) in
  let has_prefix p =
    let n = String.length p in
    Bytes.length data > n && Bytes.to_string (Bytes.sub data 0 n) = p
  in
  let body n = Bytes.sub data n (Bytes.length data - n) in
  if not (Principal.equal client t.master) then begin
    t.refused <- t.refused + 1;
    reply "ERR only the master propagates"
  end
  else if has_prefix "PROP " then begin
    match Kdb.of_bytes (body 5) with
    | db ->
        Kdb.replace_from t.slave_db db;
        t.received <- t.received + 1;
        reply "OK"
    | exception Wire.Codec.Decode_error e -> reply ("ERR " ^ e)
  end
  else if has_prefix "SHRD " then reply (handle_shard t (body 5))
  else if Bytes.to_string data = "DIGQ" then Some (digests_msg t.slave_db)
  else if has_prefix "PULL " then Some (handle_pull t (body 5))
  else if has_prefix "SHDV " then begin
    match parse_versioned_shard (body 5) with
    | exception Wire.Codec.Decode_error e -> reply ("ERR " ^ e)
    | idx, count, version, blob ->
        reply (install_versioned t ~idx ~count ~version ~blob)
  end
  else reply "ERR bad command"

let install_slave ?config net host ~profile ~principal ~key ~port ~master ~slave_db =
  let t =
    { master; slave_db;
      metrics = Telemetry.Collector.metrics (Sim.Net.telemetry net);
      received = 0; refused = 0; shards_received = 0; reconciled = 0 }
  in
  let (_ : Apserver.t) =
    Apserver.install ?config net host ~profile ~principal ~key ~port
      ~handler:(Svc_telemetry.instrument net ~component:"kprop" (handle t)) ()
  in
  t

let expect_ok ~k r =
  match r with
  | Error e -> k (Error e)
  | Ok data ->
      if Bytes.to_string data = "OK" then k (Ok ())
      else k (Error (Bytes.to_string data))

let propagate ?deadline client chan ~db ~k =
  let msg = Bytes.cat (Bytes.of_string "PROP ") (Kdb.to_bytes db) in
  Client.call_priv client chan ?deadline msg ~k:(expect_ok ~k)

let propagate_shard ?deadline client chan ~db ~shard ~k =
  Client.call_priv client chan ?deadline (shard_msg ~db ~shard) ~k:(expect_ok ~k)

(* Incremental propagation pushes the shards one at a time, so a realm of
   "a fairly large user community" never ships its whole database in one
   message — and a push interrupted mid-sequence leaves the slave with
   whole shards from the old and new dumps, never a torn shard. *)
let propagate_shards ?deadline client chan ~db ~k =
  let n = Kdb.shard_count db in
  let rec go i =
    if i >= n then k (Ok ())
    else
      propagate_shard ?deadline client chan ~db ~shard:i ~k:(function
        | Ok () -> go (i + 1)
        | Error e -> k (Error (Printf.sprintf "shard %d: %s" i e)))
  in
  go 0

(* A slave cut off by a partition misses pushes; the master's kprop job
   just runs again. Each attempt is bounded by [deadline] so a dump
   swallowed by the dead link fails over to the next try instead of
   parking the master forever; [pause] spaces the attempts out so a heal
   mid-schedule gets a chance to matter. *)
let propagate_with_retry ?(attempts = 3) ?(deadline = 2.0) ?(pause = 1.0) client
    chan ~db ~k =
  let eng = Sim.Net.engine (Client.net client) in
  let rec go n =
    propagate ~deadline client chan ~db ~k:(fun r ->
        match r with
        | Ok () -> k (Ok ())
        | Error e ->
            if n + 1 < attempts then Sim.Engine.schedule_after eng pause (fun () -> go (n + 1))
            else k (Error e))
  in
  if attempts <= 0 then k (Error "kprop: no attempts configured") else go 0

(* --- Reconcile (client side) ---------------------------------------- *)

type reconcile_report = { examined : int; pulled : int; pushed : int }

(* The deterministic last-writer-wins rule: the higher per-shard version
   wins; a version tie with differing contents (two replicas each took
   exactly one mutation while partitioned) breaks to the smaller digest.
   Both replicas evaluate the same rule on the same two (version, digest)
   pairs, so they always agree on the winner without coordination. *)
let peer_wins ~peer:(pv, pd) ~local:(lv, ld) =
  pv > lv || (pv = lv && pd < ld)

let strip_reply ~prefix data =
  let n = String.length prefix in
  if Bytes.length data >= n && Bytes.to_string (Bytes.sub data 0 n) = prefix
  then Ok (Bytes.sub data n (Bytes.length data - n))
  else if Bytes.length data >= 3 && Bytes.to_string (Bytes.sub data 0 3) = "ERR"
  then Error (Bytes.to_string data)
  else Error ("kprop: unexpected reply to " ^ String.trim prefix)

let reconcile ?deadline client chan ~db ~k =
  let metrics =
    Telemetry.Collector.metrics (Sim.Net.telemetry (Client.net client))
  in
  Client.call_priv client chan ?deadline (Bytes.of_string "DIGQ") ~k:(fun r ->
      match Result.bind r (strip_reply ~prefix:"DIG ") with
      | Error e -> k (Error e)
      | Ok payload -> (
          match parse_digests payload with
          | exception Wire.Codec.Decode_error e -> k (Error e)
          | peer ->
              let n = Kdb.shard_count db in
              if Array.length peer <> n then
                k
                  (Error
                     (Printf.sprintf
                        "kprop: shard count mismatch (peer %d, local %d)"
                        (Array.length peer) n))
              else begin
                let pulled = ref 0 and pushed = ref 0 in
                let pull i ~version:_ ~next =
                  let w = Wire.Codec.Writer.create () in
                  Wire.Codec.Writer.u32 w i;
                  Client.call_priv client chan ?deadline
                    (Bytes.cat (Bytes.of_string "PULL ")
                       (Wire.Codec.Writer.contents w))
                    ~k:(fun r ->
                      match Result.bind r (strip_reply ~prefix:"SHD ") with
                      | Error e -> k (Error e)
                      | Ok payload -> (
                          match parse_versioned_shard payload with
                          | exception Wire.Codec.Decode_error e -> k (Error e)
                          | idx, count, version, blob ->
                              if idx <> i || count <> n then
                                k (Error "kprop: mismatched pull reply")
                              else (
                                match
                                  Kdb.replace_shard_from_bytes ~version db i blob
                                with
                                | () ->
                                    incr pulled;
                                    note_reconciled metrics i;
                                    next ()
                                | exception Wire.Codec.Decode_error e ->
                                    k (Error e))))
                in
                let push i ~version ~next =
                  let msg =
                    Bytes.cat (Bytes.of_string "SHDV ")
                      (versioned_shard_msg ~db ~shard:i ~version)
                  in
                  Client.call_priv client chan ?deadline msg
                    ~k:
                      (expect_ok ~k:(function
                        | Ok () ->
                            incr pushed;
                            next ()
                        | Error e -> k (Error e)))
                in
                let rec go i =
                  if i >= n then
                    k (Ok { examined = n; pulled = !pulled; pushed = !pushed })
                  else
                    let lv = (Kdb.version_vector db).(i) in
                    let ld = Kdb.shard_digest db i in
                    let pv, pd = peer.(i) in
                    if pd = ld then go (i + 1)
                    else if peer_wins ~peer:(pv, pd) ~local:(lv, ld) then
                      pull i ~version:pv ~next:(fun () -> go (i + 1))
                    else push i ~version:lv ~next:(fun () -> go (i + 1))
                in
                go 0
              end))
