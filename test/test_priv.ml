(* Unit and property tests for the session layer: KRB_PRIV in all three
   wire formats, KRB_SAFE, sequence numbers vs timestamps, and message
   serialization. *)

open Kerberos

let mk_pair (profile : Profile.t) =
  let rng = Util.Rng.create 0x5AFEL in
  let key = Crypto.Des.random_key rng in
  let a_addr = Sim.Addr.of_quad 10 0 0 1 and b_addr = Sim.Addr.of_quad 10 0 0 2 in
  let seq_a = 100 and seq_b = 500 in
  let client =
    Session.make ~profile ~role:Session.Client_side ~key
      ~own_addr:a_addr ~peer_addr:b_addr ~send_seq:seq_a ~recv_seq:seq_b
  in
  let server =
    Session.make ~profile ~role:Session.Server_side ~key
      ~own_addr:b_addr ~peer_addr:a_addr ~send_seq:seq_b ~recv_seq:seq_a
  in
  (client, server)

let profiles = [ Profile.v4; Profile.v5_draft3; Profile.hardened ]

let priv_roundtrip () =
  List.iter
    (fun profile ->
      let client, server = mk_pair profile in
      List.iter
        (fun msg ->
          let ct = Krb_priv.seal client ~now:1000.0 (Bytes.of_string msg) in
          match Krb_priv.open_ server ~now:1000.5 ct with
          | Ok data ->
              Alcotest.(check string) (profile.Profile.name ^ " roundtrip") msg
                (Bytes.to_string data)
          | Error e ->
              Alcotest.failf "%s: %s" profile.Profile.name (Krb_priv.error_to_string e))
        [ "a"; "hello world"; String.make 200 'x'; "" ])
    profiles

let priv_bidirectional () =
  List.iter
    (fun profile ->
      let client, server = mk_pair profile in
      let c1 = Krb_priv.seal client ~now:1.0 (Bytes.of_string "req") in
      (match Krb_priv.open_ server ~now:1.0 c1 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "server open: %s" (Krb_priv.error_to_string e));
      let s1 = Krb_priv.seal server ~now:1.1 (Bytes.of_string "resp") in
      match Krb_priv.open_ client ~now:1.1 s1 with
      | Ok data -> Alcotest.(check string) "resp" "resp" (Bytes.to_string data)
      | Error e -> Alcotest.failf "client open: %s" (Krb_priv.error_to_string e))
    profiles

let priv_direction_enforced () =
  List.iter
    (fun profile ->
      let client, _server = mk_pair profile in
      let ct = Krb_priv.seal client ~now:1.0 (Bytes.of_string "to server") in
      (* The sender itself must not accept its own message (wrong direction):
         "timestamp + direction" exists exactly for this. *)
      match Krb_priv.open_ client ~now:1.0 ct with
      | Ok _ -> Alcotest.failf "%s: reflected message accepted" profile.Profile.name
      | Error _ -> ())
    profiles

let priv_replay_within_session () =
  (* Timestamp profiles: the per-session cache rejects an exact replay. *)
  let client, server = mk_pair Profile.v5_draft3 in
  let ct = Krb_priv.seal client ~now:1.0 (Bytes.of_string "once") in
  (match Krb_priv.open_ server ~now:1.0 ct with Ok _ -> () | Error _ -> Alcotest.fail "first");
  (match Krb_priv.open_ server ~now:1.5 ct with
  | Error Krb_priv.Replay -> ()
  | Ok _ -> Alcotest.fail "replay accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Krb_priv.error_to_string e))

let priv_stale_timestamp () =
  let client, server = mk_pair Profile.v4 in
  let ct = Krb_priv.seal client ~now:1000.0 (Bytes.of_string "old") in
  match Krb_priv.open_ server ~now:(1000.0 +. Krb_priv.skew +. 60.0) ct with
  | Error (Krb_priv.Stale _) -> ()
  | Ok _ -> Alcotest.fail "stale accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Krb_priv.error_to_string e)

let priv_sequence_detects_deletion () =
  (* "This mechanism also provides the ability to detect deleted messages,
     by watching for gaps in sequence number utilization." *)
  let client, server = mk_pair Profile.hardened in
  let m1 = Krb_priv.seal client ~now:1.0 (Bytes.of_string "one") in
  let m2 = Krb_priv.seal client ~now:1.1 (Bytes.of_string "two") in
  let m3 = Krb_priv.seal client ~now:1.2 (Bytes.of_string "three") in
  ignore m2;
  (* m1 delivered; m2 deleted by the adversary; m3 arrives. *)
  (match Krb_priv.open_ server ~now:1.0 m1 with Ok _ -> () | Error _ -> Alcotest.fail "m1");
  match Krb_priv.open_ server ~now:1.2 m3 with
  | Error Krb_priv.Garbled ->
      () (* IV chaining: the gap breaks the chain, detected as garbling *)
  | Error (Krb_priv.Out_of_sequence _) -> ()
  | Ok _ -> Alcotest.fail "deletion not detected"
  | Error e -> Alcotest.failf "unexpected: %s" (Krb_priv.error_to_string e)

let priv_sequence_detects_reorder () =
  let profile =
    { Profile.v5_draft3 with
      Profile.name = "v5+seq"; priv_replay = Profile.Priv_sequence }
  in
  let client, server = mk_pair profile in
  let m1 = Krb_priv.seal client ~now:1.0 (Bytes.of_string "one") in
  let m2 = Krb_priv.seal client ~now:1.1 (Bytes.of_string "two") in
  (match Krb_priv.open_ server ~now:1.1 m2 with
  | Error (Krb_priv.Out_of_sequence { expected = 100; got = 101 }) -> ()
  | Ok _ -> Alcotest.fail "reorder accepted"
  | Error e -> Alcotest.failf "unexpected: %s" (Krb_priv.error_to_string e));
  match Krb_priv.open_ server ~now:1.1 m1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "m1 after reorder: %s" (Krb_priv.error_to_string e)

let priv_tamper_detected_hardened () =
  let client, server = mk_pair Profile.hardened in
  let ct = Krb_priv.seal client ~now:1.0 (Bytes.of_string "do not touch this data") in
  Bytes.set ct 3 (Char.chr (Char.code (Bytes.get ct 3) lxor 0x40));
  match Krb_priv.open_ server ~now:1.0 ct with
  | Error Krb_priv.Garbled -> ()
  | Ok _ -> Alcotest.fail "tampering accepted"
  | Error e -> Alcotest.failf "unexpected: %s" (Krb_priv.error_to_string e)

let priv_prop_roundtrip =
  QCheck.Test.make ~name:"priv roundtrip (all profiles, random payloads)" ~count:150
    QCheck.(pair (int_bound 2) (string_of_size (QCheck.Gen.int_range 0 300)))
    (fun (pidx, payload) ->
      let profile = List.nth profiles pidx in
      let client, server = mk_pair profile in
      let ct = Krb_priv.seal client ~now:10.0 (Bytes.of_string payload) in
      match Krb_priv.open_ server ~now:10.0 ct with
      | Ok data -> Bytes.to_string data = payload
      | Error _ -> false)

let suite_priv =
  [ Alcotest.test_case "roundtrip" `Quick priv_roundtrip;
    Alcotest.test_case "bidirectional" `Quick priv_bidirectional;
    Alcotest.test_case "direction enforced" `Quick priv_direction_enforced;
    Alcotest.test_case "in-session replay rejected" `Quick priv_replay_within_session;
    Alcotest.test_case "stale timestamp rejected" `Quick priv_stale_timestamp;
    Alcotest.test_case "sequence numbers detect deletion" `Quick priv_sequence_detects_deletion;
    Alcotest.test_case "sequence numbers detect reorder" `Quick priv_sequence_detects_reorder;
    Alcotest.test_case "hardened tamper detection" `Quick priv_tamper_detected_hardened;
    QCheck_alcotest.to_alcotest priv_prop_roundtrip ]

(* ------------------------------------------------------------------ *)
(* KRB_SAFE                                                            *)
(* ------------------------------------------------------------------ *)

let safe_roundtrip () =
  List.iter
    (fun profile ->
      let client, server = mk_pair profile in
      let msg = Krb_safe.seal client ~now:5.0 (Bytes.of_string "public but protected") in
      match Krb_safe.open_ server ~now:5.0 msg with
      | Ok data ->
          Alcotest.(check string) (profile.Profile.name) "public but protected"
            (Bytes.to_string data)
      | Error e -> Alcotest.failf "%s: %s" profile.Profile.name (Krb_safe.error_to_string e))
    profiles

let safe_naive_tamper_detected () =
  (* Bit-flipping without fixing the CRC is caught even by CRC-32. *)
  let client, server = mk_pair Profile.v4 in
  let msg = Krb_safe.seal client ~now:5.0 (Bytes.of_string "genuine message body") in
  Bytes.set msg 6 'X';
  match Krb_safe.open_ server ~now:5.0 msg with
  | Error Krb_safe.Bad_checksum -> ()
  | Ok _ -> Alcotest.fail "naive tamper accepted"
  | Error e -> Alcotest.failf "unexpected: %s" (Krb_safe.error_to_string e)

let safe_replay_rejected () =
  let client, server = mk_pair Profile.v5_draft3 in
  let msg = Krb_safe.seal client ~now:5.0 (Bytes.of_string "once only") in
  (match Krb_safe.open_ server ~now:5.0 msg with Ok _ -> () | Error _ -> Alcotest.fail "first");
  match Krb_safe.open_ server ~now:5.1 msg with
  | Error Krb_safe.Replay -> ()
  | Ok _ -> Alcotest.fail "replay accepted"
  | Error e -> Alcotest.failf "unexpected: %s" (Krb_safe.error_to_string e)

let safe_sequence_mode () =
  (* Sequence-numbered KRB_SAFE rejects reorder and replay without any
     timestamp cache. *)
  let client, server = mk_pair Profile.hardened in
  let m1 = Krb_safe.seal client ~now:1.0 (Bytes.of_string "one") in
  let m2 = Krb_safe.seal client ~now:1.1 (Bytes.of_string "two") in
  (match Krb_safe.open_ server ~now:1.1 m2 with
  | Error Krb_safe.Out_of_sequence -> ()
  | Ok _ -> Alcotest.fail "reorder accepted"
  | Error e -> Alcotest.failf "unexpected: %s" (Krb_safe.error_to_string e));
  (match Krb_safe.open_ server ~now:1.1 m1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "m1: %s" (Krb_safe.error_to_string e));
  match Krb_safe.open_ server ~now:1.2 m1 with
  | Error Krb_safe.Out_of_sequence -> () (* replay = stale sequence number *)
  | Ok _ -> Alcotest.fail "replay accepted"
  | Error e -> Alcotest.failf "unexpected: %s" (Krb_safe.error_to_string e)

let safe_prop_roundtrip =
  QCheck.Test.make ~name:"safe roundtrip (random payloads)" ~count:150
    QCheck.(pair (int_bound 2) (string_of_size (QCheck.Gen.int_range 0 200)))
    (fun (pidx, payload) ->
      let profile = List.nth profiles pidx in
      let client, server = mk_pair profile in
      let msg = Krb_safe.seal client ~now:3.0 (Bytes.of_string payload) in
      match Krb_safe.open_ server ~now:3.0 msg with
      | Ok data -> Bytes.to_string data = payload
      | Error _ -> false)

let suite_safe =
  [ Alcotest.test_case "roundtrip" `Quick safe_roundtrip;
    Alcotest.test_case "naive tamper detected" `Quick safe_naive_tamper_detected;
    Alcotest.test_case "replay rejected" `Quick safe_replay_rejected;
    Alcotest.test_case "sequence mode" `Quick safe_sequence_mode;
    QCheck_alcotest.to_alcotest safe_prop_roundtrip ]

(* ------------------------------------------------------------------ *)
(* Message serialization properties                                    *)
(* ------------------------------------------------------------------ *)

let gen_principal =
  QCheck.Gen.(
    oneof
      [ map (fun a -> Principal.user ~realm:"R" (Printf.sprintf "u%d" a)) (int_bound 999);
        map
          (fun a -> Principal.service ~realm:"R" (Printf.sprintf "s%d" a) ~host:"h")
          (int_bound 999) ])

let gen_ticket =
  QCheck.Gen.(
    map2
      (fun (srv, cl) (addr, fwd) ->
        { Messages.server = srv; client = cl;
          addr = (if addr then Some (Sim.Addr.of_quad 10 0 0 9) else None);
          issued_at = 1234.5; lifetime = 3600.0; session_key = Bytes.make 8 'k';
          forwarded = fwd; dup_skey = false; transited = [ "A"; "B" ] })
      (pair gen_principal gen_principal)
      (pair bool bool))

let ticket_roundtrip_prop kind =
  QCheck.Test.make
    ~name:("ticket roundtrip " ^ Wire.Encoding.show_kind kind)
    ~count:200 (QCheck.make gen_ticket) (fun t ->
      let b = Wire.Encoding.encode kind (Messages.ticket_to_value t) in
      Messages.ticket_of_value (Wire.Encoding.decode kind b) = t)

let gen_auth =
  QCheck.Gen.(
    map3
      (fun cl (c1, c2) (seq, sub) ->
        { Messages.a_client = cl; a_addr = Sim.Addr.of_quad 1 2 3 4; a_timestamp = 99.0;
          a_req_cksum = (if c1 then Some (Bytes.make 4 'c') else None);
          a_ticket_cksum = (if c2 then Some (Bytes.make 16 'd') else None);
          a_service = None;
          a_seq_init = (if seq then Some 42 else None);
          a_subkey_part = (if sub then Some (Bytes.make 8 's') else None) })
      gen_principal (pair bool bool) (pair bool bool))

let auth_roundtrip_prop kind =
  QCheck.Test.make
    ~name:("authenticator roundtrip " ^ Wire.Encoding.show_kind kind)
    ~count:200 (QCheck.make gen_auth) (fun a ->
      let b = Wire.Encoding.encode kind (Messages.authenticator_to_value a) in
      Messages.authenticator_of_value (Wire.Encoding.decode kind b) = a)

let seal_msg_roundtrip_prop =
  QCheck.Test.make ~name:"seal_msg/open_msg roundtrip" ~count:150
    QCheck.(pair (int_bound 2) (make gen_ticket))
    (fun (pidx, t) ->
      let profile = List.nth profiles pidx in
      let rng = Util.Rng.create 9L in
      let key = Crypto.Des.random_key rng in
      let sealed =
        Messages.seal_msg profile rng ~key ~tag:Messages.tag_ticket
          (Messages.ticket_to_value t)
      in
      match Messages.open_msg profile ~key ~tag:Messages.tag_ticket sealed with
      | Ok v -> Messages.ticket_of_value v = t
      | Error _ -> false)

let wrong_key_rejected_prop =
  QCheck.Test.make ~name:"open_msg under the wrong key fails" ~count:100
    QCheck.(pair (int_bound 2) (make gen_ticket))
    (fun (pidx, t) ->
      let profile = List.nth profiles pidx in
      let rng = Util.Rng.create 10L in
      let key = Crypto.Des.random_key rng in
      let wrong = Crypto.Des.random_key rng in
      let sealed =
        Messages.seal_msg profile rng ~key ~tag:Messages.tag_ticket
          (Messages.ticket_to_value t)
      in
      match Messages.open_msg profile ~key:wrong ~tag:Messages.tag_ticket sealed with
      | Error _ -> true
      | Ok v -> ( match Messages.ticket_of_value v with _ -> false | exception _ -> true))

let suite_messages =
  [ QCheck_alcotest.to_alcotest (ticket_roundtrip_prop Wire.Encoding.V4_adhoc);
    QCheck_alcotest.to_alcotest (ticket_roundtrip_prop Wire.Encoding.Der_typed);
    QCheck_alcotest.to_alcotest (auth_roundtrip_prop Wire.Encoding.V4_adhoc);
    QCheck_alcotest.to_alcotest (auth_roundtrip_prop Wire.Encoding.Der_typed);
    QCheck_alcotest.to_alcotest seal_msg_roundtrip_prop;
    QCheck_alcotest.to_alcotest wrong_key_rejected_prop ]

(* ------------------------------------------------------------------ *)
(* Replay cache                                                        *)
(* ------------------------------------------------------------------ *)

let cache_basics () =
  let c = Replay_cache.create ~horizon:10.0 () in
  let b1 = Bytes.of_string "auth-1" and b2 = Bytes.of_string "auth-2" in
  Alcotest.(check bool) "fresh" true (Replay_cache.check_and_insert c ~now:0.0 b1 = Replay_cache.Fresh);
  Alcotest.(check bool) "replayed" true
    (Replay_cache.check_and_insert c ~now:1.0 b1 = Replay_cache.Replayed);
  Alcotest.(check bool) "other fresh" true
    (Replay_cache.check_and_insert c ~now:1.0 b2 = Replay_cache.Fresh);
  Alcotest.(check int) "two live" 2 (Replay_cache.size c);
  (* After the horizon the entry expires: the timestamp check takes over. *)
  Alcotest.(check bool) "expired -> fresh again" true
    (Replay_cache.check_and_insert c ~now:30.0 b1 = Replay_cache.Fresh);
  Replay_cache.purge c ~now:100.0;
  Alcotest.(check int) "purged" 0 (Replay_cache.size c)

let cache_prop =
  QCheck.Test.make ~name:"cache never accepts a live duplicate" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (int_bound 10))
    (fun ids ->
      let c = Replay_cache.create ~horizon:1000.0 () in
      let seen = Hashtbl.create 8 in
      List.for_all
        (fun id ->
          let b = Bytes.of_string (string_of_int id) in
          let verdict = Replay_cache.check_and_insert c ~now:1.0 b in
          let expected =
            if Hashtbl.mem seen id then Replay_cache.Replayed else Replay_cache.Fresh
          in
          Hashtbl.replace seen id ();
          verdict = expected)
        ids)

let cache_no_conflation_prop =
  (* The cache must key on the raw authenticator bytes, never on a digest of
     them: two distinct blobs — however similar — must each be Fresh on
     first sight and must not evict or shadow one another. (The old digest
     keying meant a checksum collision silently conflated two distinct
     authenticators.) *)
  QCheck.Test.make ~name:"distinct blobs are never conflated" ~count:300
    QCheck.(pair (bytes_of_size (Gen.int_range 0 64)) (bytes_of_size (Gen.int_range 0 64)))
    (fun (b1, b2) ->
      QCheck.assume (not (Bytes.equal b1 b2));
      let c = Replay_cache.create ~horizon:100.0 () in
      Replay_cache.check_and_insert c ~now:0.0 b1 = Replay_cache.Fresh
      && Replay_cache.check_and_insert c ~now:1.0 b2 = Replay_cache.Fresh
      && Replay_cache.check_and_insert c ~now:2.0 b1 = Replay_cache.Replayed
      && Replay_cache.check_and_insert c ~now:3.0 b2 = Replay_cache.Replayed
      && Replay_cache.size c = 2)

let cache_mutation_safe () =
  (* The caller may reuse its buffer after the call; the cache must have
     captured the contents, not the reference. *)
  let c = Replay_cache.create ~horizon:100.0 () in
  let b = Bytes.of_string "authenticator-A" in
  Alcotest.(check bool) "first" true
    (Replay_cache.check_and_insert c ~now:0.0 b = Replay_cache.Fresh);
  Bytes.set b 14 'B';
  Alcotest.(check bool) "mutated buffer is a different authenticator" true
    (Replay_cache.check_and_insert c ~now:1.0 b = Replay_cache.Fresh);
  Alcotest.(check bool) "original contents still remembered" true
    (Replay_cache.check_and_insert c ~now:2.0 (Bytes.of_string "authenticator-A")
     = Replay_cache.Replayed)

(* Against the table-and-heap oracle ([Replay_oracle], the cache before it
   became one heap of parallel arrays): the same operations on both, and
   after every one the same verdict, size, counters, eviction-hook calls
   and snapshot bytes. The key pool is small enough for replays and wide
   enough to grow and shrink the heap; the clock steps include zero (a
   burst at one instant, so equal expiries tie and the cap picks among
   them) and backwards steps; reloads go through [to_bytes] and [of_bytes]
   with and without [~now]. *)
type cache_op = Insert of int | Step of float | Purge | Reload of bool

let show_cache_op = function
  | Insert k -> Printf.sprintf "insert %d" k
  | Step d -> Printf.sprintf "step %+g" d
  | Purge -> "purge"
  | Reload pruned -> if pruned then "reload ~now" else "reload"

(* Keys of several lengths, so some collide in the index's low bits. *)
let oracle_key k = Bytes.of_string (String.make (k mod 5 * 8) 'k' ^ string_of_int k)

let oracle_case =
  let open QCheck.Gen in
  let op =
    frequency
      [ (6, map (fun k -> Insert k) (frequency [ (3, int_bound 5); (1, int_bound 40) ]));
        (2, map (fun d -> Step d) (oneofl [ 0.0; 0.0; 0.25; 0.5; 1.0; 3.0; -0.5; -2.0 ]));
        (1, return Purge);
        (1, map (fun pruned -> Reload pruned) bool) ]
  in
  QCheck.make
    ~print:(fun (cap, horizon, ops) ->
      Printf.sprintf "cap %s, horizon %g: %s"
        (match cap with None -> "none" | Some c -> string_of_int c)
        horizon
        (String.concat "; " (List.map show_cache_op ops)))
    (triple
       (oneofl [ None; Some 1; Some 2; Some 3; Some 8 ])
       (oneofl [ 0.5; 1.0; 2.5 ])
       (list_size (int_range 1 80) op))

let cache_matches_oracle =
  QCheck.Test.make ~name:"matches the table-and-heap oracle" ~count:600 oracle_case
    (fun (cap, horizon, ops) ->
      let evicted = ref 0 and oracle_evicted = ref 0 in
      let c = ref (Replay_cache.create ?cap ~on_evict:(fun () -> incr evicted) ~horizon ())
      and o =
        ref (Replay_oracle.create ?cap ~on_evict:(fun () -> incr oracle_evicted) ~horizon ())
      in
      let now = ref 10.0 in
      let same () =
        Replay_cache.size !c = Replay_oracle.size !o
        && Replay_cache.hits !c = Replay_oracle.hits !o
        && Replay_cache.inserts !c = Replay_oracle.inserts !o
        && Replay_cache.evicted !c = Replay_oracle.evicted !o
        && !evicted = !oracle_evicted
        && Bytes.equal (Replay_cache.to_bytes !c) (Replay_oracle.to_bytes !o)
      in
      List.for_all
        (fun op ->
          let verdicts_agree =
            match op with
            | Insert k ->
                let fresh = Replay_cache.check_and_insert !c ~now:!now (oracle_key k) in
                let oracle = Replay_oracle.check_and_insert !o ~now:!now (oracle_key k) in
                (fresh = Replay_cache.Fresh) = (oracle = Replay_oracle.Fresh)
            | Step d ->
                now := !now +. d;
                true
            | Purge ->
                Replay_cache.purge !c ~now:!now;
                Replay_oracle.purge !o ~now:!now;
                true
            | Reload pruned ->
                let now = if pruned then Some !now else None in
                c := Replay_cache.of_bytes ?now ~on_evict:(fun () -> incr evicted)
                       (Replay_cache.to_bytes !c);
                o := Replay_oracle.of_bytes ?now ~on_evict:(fun () -> incr oracle_evicted)
                       (Replay_oracle.to_bytes !o);
                true
          in
          verdicts_agree && same ())
        ops)

(* A snapshot [to_bytes] could not have written is malformed: more live
   entries than its own cap, or one key twice. Loading either used to
   succeed, and the over-cap cache then stayed over its bound (three
   entries under cap 1 were still three after an insert that evicted
   one). *)
let snapshot ~cap entries =
  let w = Wire.Codec.Writer.create () in
  Wire.Codec.Writer.i64 w (Int64.bits_of_float 600.0);
  Wire.Codec.Writer.u32 w cap;
  Wire.Codec.Writer.u32 w (List.length entries);
  List.iter
    (fun (k, expiry) ->
      Wire.Codec.Writer.lstring w k;
      Wire.Codec.Writer.i64 w (Int64.bits_of_float expiry))
    entries;
  Wire.Codec.Writer.contents w

let cache_rejects_crafted_snapshots () =
  let three = [ ("auth-a", 700.0); ("auth-b", 800.0); ("auth-c", 900.0) ] in
  let refused label ?now b =
    match Replay_cache.of_bytes ?now b with
    | exception Wire.Codec.Decode_error _ -> ()
    | c -> Alcotest.failf "%s: loaded with %d entries" label (Replay_cache.size c)
  in
  Alcotest.(check int) "three entries under cap 3 load" 3
    (Replay_cache.size (Replay_cache.of_bytes (snapshot ~cap:3 three)));
  refused "three live entries under cap 1" (snapshot ~cap:1 three);
  refused "two of three entries live at load under cap 1" ~now:750.0
    (snapshot ~cap:1 three);
  Alcotest.(check int) "one live entry under cap 1 after pruning" 1
    (Replay_cache.size (Replay_cache.of_bytes ~now:850.0 (snapshot ~cap:1 three)));
  refused "one key twice" (snapshot ~cap:0 [ ("auth-a", 700.0); ("auth-a", 800.0) ]);
  refused "one key twice, the first expired at load" ~now:750.0
    (snapshot ~cap:0 [ ("auth-a", 700.0); ("auth-a", 800.0) ]);
  refused "keys out of order" (snapshot ~cap:0 [ ("auth-b", 700.0); ("auth-a", 800.0) ])

let suite_cache =
  [ Alcotest.test_case "basics" `Quick cache_basics;
    QCheck_alcotest.to_alcotest cache_prop;
    QCheck_alcotest.to_alcotest cache_no_conflation_prop;
    Alcotest.test_case "buffer mutation safety" `Quick cache_mutation_safe;
    Alcotest.test_case "crafted snapshots refused" `Quick cache_rejects_crafted_snapshots;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED |])
      cache_matches_oracle ]

let () =
  Alcotest.run "priv-safe"
    [ ("krb_priv", suite_priv); ("krb_safe", suite_safe);
      ("messages", suite_messages); ("replay_cache", suite_cache) ]
