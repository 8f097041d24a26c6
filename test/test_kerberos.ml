(* End-to-end tests of the Kerberos core: AS, TGS, AP, KRB_PRIV/SAFE under
   each profile; replay caches; cross-realm paths. *)

open Kerberos

let realm = "ATHENA"

type bed = {
  eng : Sim.Engine.t;
  net : Sim.Net.t;
  kdc : Kdc.t;
  kdc_host : Sim.Host.t;
  ws : Sim.Host.t;  (* user workstation *)
  server_host : Sim.Host.t;
  file_port : int;
  file_principal : Principal.t;
  file_key : bytes;
  apserver : Apserver.t;
  client : Client.t;
}

let echo_handler _session ~client:_ data = Some (Bytes.cat (Bytes.of_string "echo:") data)

let make_bed ?(profile = Profile.v4) ?(handler = echo_handler) ?config () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let kdc_host = Sim.Host.create ~name:"kerberos" ~ips:[ Sim.Addr.of_quad 10 0 0 1 ] () in
  let ws = Sim.Host.create ~name:"ws1" ~ips:[ Sim.Addr.of_quad 10 0 0 10 ] () in
  let server_host =
    Sim.Host.create ~name:"fileserver" ~ips:[ Sim.Addr.of_quad 10 0 0 20 ] ()
  in
  List.iter (Sim.Net.attach net) [ kdc_host; ws; server_host ];
  let db = Kdb.create () in
  let rng = Util.Rng.create 99L in
  let tgs_key = Crypto.Des.random_key rng in
  Kdb.add_service db (Principal.tgs ~realm) ~key:tgs_key;
  Kdb.add_user db (Principal.user ~realm "pat") ~password:"correct.horse";
  Kdb.add_user db (Principal.user ~realm "robin") ~password:"tr0ub4dor";
  let file_principal = Principal.service ~realm "fileserv" ~host:"fileserver" in
  let file_key = Crypto.Des.random_key rng in
  Kdb.add_service db file_principal ~key:file_key;
  let kdc = Kdc.create ~realm ~profile ~lifetime:(8.0 *. 3600.0) db in
  Kdc.install net kdc_host kdc ();
  let file_port = 600 in
  let apserver =
    Apserver.install ?config net server_host ~profile ~principal:file_principal
      ~key:file_key ~port:file_port ~handler ()
  in
  let client =
    Client.create net ws ~profile
      ~kdcs:[ (realm, Sim.Host.primary_ip kdc_host) ]
      (Principal.user ~realm "pat")
  in
  { eng; net; kdc; kdc_host; ws; server_host; file_port; file_principal; file_key;
    apserver; client }

let run bed = Sim.Engine.run bed.eng

let expect_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what e

(* Full happy path: login, service ticket, AP exchange, priv roundtrip. *)
let happy_path profile () =
  let bed = make_bed ~profile () in
  let result = ref None in
  Client.login bed.client ~password:"correct.horse" (fun r ->
      let _creds = expect_ok "login" r in
      Client.get_ticket bed.client ~service:bed.file_principal (fun r ->
          let creds = expect_ok "get_ticket" r in
          Client.ap_exchange bed.client creds ~dst:(Sim.Host.primary_ip bed.server_host)
            ~dport:bed.file_port (fun r ->
              let chan = expect_ok "ap_exchange" r in
              Client.call_priv bed.client chan (Bytes.of_string "read /etc/motd")
                ~k:(fun r -> result := Some r))));
  run bed;
  match !result with
  | Some (Ok data) ->
      Alcotest.(check string) "priv echo" "echo:read /etc/motd" (Bytes.to_string data)
  | Some (Error e) -> Alcotest.failf "priv failed: %s" e
  | None -> Alcotest.fail "no result (simulation stalled)"

let wrong_password profile () =
  let bed = make_bed ~profile () in
  let result = ref None in
  Client.login bed.client ~password:"wrong" (fun r -> result := Some r);
  run bed;
  match !result with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "login with wrong password succeeded"
  | None -> Alcotest.fail "no result"

let multiple_priv_messages profile () =
  let bed = make_bed ~profile () in
  let replies = ref [] in
  Client.login bed.client ~password:"correct.horse" (fun r ->
      ignore (expect_ok "login" r);
      Client.get_ticket bed.client ~service:bed.file_principal (fun r ->
          let creds = expect_ok "get_ticket" r in
          Client.ap_exchange bed.client creds ~dst:(Sim.Host.primary_ip bed.server_host)
            ~dport:bed.file_port (fun r ->
              let chan = expect_ok "ap" r in
              let rec go i =
                if i <= 3 then
                  Client.call_priv bed.client chan
                    (Bytes.of_string (Printf.sprintf "req%d" i)) ~k:(fun r ->
                      replies := Bytes.to_string (expect_ok "priv" r) :: !replies;
                      go (i + 1))
              in
              go 1)));
  run bed;
  Alcotest.(check (list string)) "all replies"
    [ "echo:req1"; "echo:req2"; "echo:req3" ]
    (List.rev !replies)

let expired_ticket profile () =
  let bed = make_bed ~profile () in
  let outcome = ref None in
  Client.login bed.client ~password:"correct.horse" (fun r ->
      ignore (expect_ok "login" r);
      Client.get_ticket bed.client ~service:bed.file_principal (fun r ->
          let creds = expect_ok "get_ticket" r in
          (* Sit on the ticket for 9 hours, then try to use it. *)
          Sim.Engine.schedule_after bed.eng (9.0 *. 3600.0) (fun () ->
              Client.ap_exchange bed.client creds
                ~dst:(Sim.Host.primary_ip bed.server_host) ~dport:bed.file_port
                (fun r -> outcome := Some r))));
  run bed;
  match !outcome with
  | Some (Error e) ->
      Alcotest.(check bool) ("mentions expiry: " ^ e) true
        (Astring.String.is_infix ~affix:"expired" e
         || Astring.String.is_infix ~affix:"integrity" e)
  | Some (Ok _) -> Alcotest.fail "expired ticket accepted"
  | None -> Alcotest.fail "no outcome"

let tickets_cached profile () =
  let bed = make_bed ~profile () in
  Client.login bed.client ~password:"correct.horse" (fun r ->
      ignore (expect_ok "login" r);
      Client.get_ticket bed.client ~service:bed.file_principal (fun r ->
          ignore (expect_ok "get_ticket" r)));
  run bed;
  Alcotest.(check bool) "tgt cached" true (Sim.Host.cache_get bed.ws "tgt" <> None);
  let svc = "svc:" ^ Principal.to_string bed.file_principal in
  Alcotest.(check bool) "service ticket cached" true (Sim.Host.cache_get bed.ws svc <> None);
  Client.logout bed.client;
  Alcotest.(check bool) "wiped at logout" true (Sim.Host.cache_get bed.ws "tgt" = None)

let profile_cases name profile =
  [ Alcotest.test_case (name ^ ": happy path") `Quick (happy_path profile);
    Alcotest.test_case (name ^ ": wrong password") `Quick (wrong_password profile);
    Alcotest.test_case (name ^ ": several priv messages") `Quick
      (multiple_priv_messages profile);
    Alcotest.test_case (name ^ ": expired ticket") `Quick (expired_ticket profile);
    Alcotest.test_case (name ^ ": ticket caching") `Quick (tickets_cached profile) ]

(* ------------------------------------------------------------------ *)
(* Replay cache behaviour at the AP server                             *)
(* ------------------------------------------------------------------ *)

let replayed_ap profile ~expect_accepted () =
  let bed = make_bed ~profile () in
  let adv = Sim.Adversary.attach bed.net in
  Sim.Adversary.start_tap adv;
  Client.login bed.client ~password:"correct.horse" (fun r ->
      ignore (expect_ok "login" r);
      Client.get_ticket bed.client ~service:bed.file_principal (fun r ->
          let creds = expect_ok "get_ticket" r in
          Client.ap_exchange bed.client creds ~dst:(Sim.Host.primary_ip bed.server_host)
            ~dport:bed.file_port (fun r -> ignore (expect_ok "ap" r))));
  run bed;
  let before = Apserver.sessions_established bed.apserver in
  Alcotest.(check int) "one honest session" 1 before;
  (* Replay the captured AP_REQ verbatim from a different port. *)
  let ap_reqs =
    Sim.Adversary.capture_matching adv (fun p ->
        p.Sim.Packet.dport = bed.file_port
        &&
        match Frames.unwrap p.Sim.Packet.payload with
        | Some (k, _) -> k = Frames.ap_req
        | None -> None <> None)
  in
  (match ap_reqs with
  | pkt :: _ ->
      Sim.Net.inject bed.net { pkt with Sim.Packet.sport = 40999 }
  | [] -> Alcotest.fail "no AP_REQ captured");
  run bed;
  let after = Apserver.sessions_established bed.apserver in
  if expect_accepted then Alcotest.(check int) "replay accepted (v4 behaviour)" 2 after
  else Alcotest.(check int) "replay rejected" 1 after

let v4_with_cache =
  { Profile.v4 with
    Profile.name = "v4+cache";
    ap_auth = Profile.Timestamp { skew = 300.0; replay_cache = true } }

let suite_replay =
  [ Alcotest.test_case "v4 (no cache): replayed AP_REQ accepted" `Quick
      (replayed_ap Profile.v4 ~expect_accepted:true);
    Alcotest.test_case "v4 + replay cache: replayed AP_REQ rejected" `Quick
      (replayed_ap v4_with_cache ~expect_accepted:false);
    Alcotest.test_case "hardened (challenge/response): replayed AP_REQ useless" `Quick
      (fun () ->
        (* With challenge/response, replaying the AP_REQ gets the attacker a
           fresh challenge it cannot answer; no session is established. *)
        replayed_ap Profile.hardened ~expect_accepted:false ()) ]

(* ------------------------------------------------------------------ *)
(* Cross-realm                                                         *)
(* ------------------------------------------------------------------ *)

let cross_realm_path () =
  (* Two realms, ATHENA and ENG, sharing a cross-realm key. A user of
     ATHENA reaches a service in ENG through both TGSs. *)
  let profile = Profile.v5_draft3 in
  let eng_ = Sim.Engine.create () in
  let net = Sim.Net.create eng_ in
  let kdc_a_host = Sim.Host.create ~name:"kdcA" ~ips:[ Sim.Addr.of_quad 10 0 0 1 ] () in
  let kdc_b_host = Sim.Host.create ~name:"kdcB" ~ips:[ Sim.Addr.of_quad 10 0 1 1 ] () in
  let ws = Sim.Host.create ~name:"ws" ~ips:[ Sim.Addr.of_quad 10 0 0 10 ] () in
  let srv = Sim.Host.create ~name:"srvB" ~ips:[ Sim.Addr.of_quad 10 0 1 20 ] () in
  List.iter (Sim.Net.attach net) [ kdc_a_host; kdc_b_host; ws; srv ];
  let rng = Util.Rng.create 7L in
  let db_a = Kdb.create () and db_b = Kdb.create () in
  Kdb.add_service db_a (Principal.tgs ~realm:"ATHENA") ~key:(Crypto.Des.random_key rng);
  Kdb.add_service db_b (Principal.tgs ~realm:"ENG") ~key:(Crypto.Des.random_key rng);
  Kdb.add_user db_a (Principal.user ~realm:"ATHENA" "pat") ~password:"pw";
  (* Shared cross-realm key: ATHENA's TGS signs tickets for ENG's TGS. *)
  let xkey = Crypto.Des.random_key rng in
  Kdb.add_cross_realm db_a (Principal.cross_realm_tgs ~local:"ATHENA" ~remote:"ENG") ~key:xkey;
  Kdb.add_cross_realm db_b (Principal.cross_realm_tgs ~local:"ATHENA" ~remote:"ENG") ~key:xkey;
  let svc = Principal.service ~realm:"ENG" "db" ~host:"srvB" in
  let svc_key = Crypto.Des.random_key rng in
  Kdb.add_service db_b svc ~key:svc_key;
  let kdc_a = Kdc.create ~realm:"ATHENA" ~profile ~lifetime:3600.0 db_a in
  let kdc_b = Kdc.create ~realm:"ENG" ~profile ~lifetime:3600.0 db_b in
  Kdc.add_realm_route kdc_a ~remote:"ENG" ~next_hop:"ENG";
  Kdc.install net kdc_a_host kdc_a ();
  Kdc.install net kdc_b_host kdc_b ();
  let _ap =
    Apserver.install net srv ~profile
      ~config:{ Apserver.default_config with trusted_transit = [ "ATHENA" ] }
      ~principal:svc ~key:svc_key ~port:700 ~handler:echo_handler ()
  in
  let client =
    Client.create net ws ~profile
      ~kdcs:
        [ ("ATHENA", Sim.Host.primary_ip kdc_a_host);
          ("ENG", Sim.Host.primary_ip kdc_b_host) ]
      (Principal.user ~realm:"ATHENA" "pat")
  in
  let result = ref None in
  Client.login client ~password:"pw" (fun r ->
      ignore (expect_ok "login" r);
      Client.get_ticket client ~service:svc (fun r ->
          let creds = expect_ok "cross-realm ticket" r in
          Client.ap_exchange client creds ~dst:(Sim.Host.primary_ip srv) ~dport:700
            (fun r ->
              let chan = expect_ok "ap" r in
              Client.call_priv client chan (Bytes.of_string "query") ~k:(fun r ->
                  result := Some r))));
  Sim.Engine.run eng_;
  (match !result with
  | Some (Ok data) -> Alcotest.(check string) "reply" "echo:query" (Bytes.to_string data)
  | Some (Error e) -> Alcotest.failf "cross-realm failed: %s" e
  | None -> Alcotest.fail "stalled");
  (* An identical server that does NOT trust ATHENA must refuse. *)
  let srv2 = Sim.Host.create ~name:"srvB2" ~ips:[ Sim.Addr.of_quad 10 0 1 21 ] () in
  Sim.Net.attach net srv2;
  let svc2 = Principal.service ~realm:"ENG" "db2" ~host:"srvB2" in
  let svc2_key = Crypto.Des.random_key rng in
  Kdb.add_service db_b svc2 ~key:svc2_key;
  let ap2 =
    Apserver.install net srv2 ~profile
      ~config:{ Apserver.default_config with trusted_transit = [] }
      ~principal:svc2 ~key:svc2_key ~port:700 ~handler:echo_handler ()
  in
  let refused = ref None in
  Client.get_ticket client ~service:svc2 (fun r ->
      let creds = expect_ok "ticket for svc2" r in
      Client.ap_exchange client creds ~dst:(Sim.Host.primary_ip srv2) ~dport:700
        (fun r -> refused := Some r));
  Sim.Engine.run eng_;
  (match !refused with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "untrusted transit accepted"
  | None -> Alcotest.fail "stalled");
  Alcotest.(check int) "no session on distrusting server" 0
    (Apserver.sessions_established ap2)

let suite_cross_realm = [ Alcotest.test_case "two-realm path and transit policy" `Quick cross_realm_path ]

(* ------------------------------------------------------------------ *)
(* Encoding/seal units                                                 *)
(* ------------------------------------------------------------------ *)

let seal_roundtrip () =
  let rng = Util.Rng.create 3L in
  let key = Crypto.Des.random_key rng in
  List.iter
    (fun scheme ->
      let data = Bytes.of_string "some protocol plaintext" in
      let ct = Seal.seal scheme rng ~key data in
      match Seal.open_ scheme ~key ct with
      | Ok back -> Alcotest.(check string) "roundtrip" "some protocol plaintext" (Bytes.to_string back)
      | Error e -> Alcotest.fail e)
    [ Seal.Pcbc_raw; Seal.Cbc_confounder Crypto.Checksum.Crc32;
      Seal.Cbc_confounder Crypto.Checksum.Md4 ]

let seal_tamper_detected () =
  let rng = Util.Rng.create 4L in
  let key = Crypto.Des.random_key rng in
  let data = Bytes.of_string "tamper with me please!" in
  let ct = Seal.seal (Seal.Cbc_confounder Crypto.Checksum.Md4) rng ~key data in
  Bytes.set ct 9 (Char.chr (Char.code (Bytes.get ct 9) lxor 1));
  (match Seal.open_ (Seal.Cbc_confounder Crypto.Checksum.Md4) ~key ct with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampering not detected")

let ticket_roundtrip () =
  let t =
    { Messages.server = Principal.service ~realm "rlogin" ~host:"myhost";
      client = Principal.user ~realm "pat"; addr = Some (Sim.Addr.of_quad 10 0 0 10);
      issued_at = 1000.0; lifetime = 3600.0; session_key = Bytes.make 8 'k';
      forwarded = false; dup_skey = false; transited = [ "A"; "B" ] }
  in
  List.iter
    (fun kind ->
      let b = Wire.Encoding.encode kind (Messages.ticket_to_value t) in
      let t' = Messages.ticket_of_value (Wire.Encoding.decode kind b) in
      Alcotest.(check bool) "roundtrip" true (t = t'))
    [ Wire.Encoding.V4_adhoc; Wire.Encoding.Der_typed ]

let suite_units =
  [ Alcotest.test_case "seal roundtrip" `Quick seal_roundtrip;
    Alcotest.test_case "seal tamper detection" `Quick seal_tamper_detected;
    Alcotest.test_case "ticket roundtrip" `Quick ticket_roundtrip ]

(* Ablation profiles: every optional mechanism exercised on the full happy
   path, not just in its targeted experiment. *)
let v5_md4des =
  { Profile.v5_draft3 with Profile.name = "v5+md4des"; checksum = Crypto.Checksum.Md4_des }

let v5_seq =
  { Profile.v5_draft3 with Profile.name = "v5+seq"; priv_replay = Profile.Priv_sequence }

let v4_handheld =
  { Profile.v4 with Profile.name = "v4+handheld"; login = Profile.Handheld_challenge }

let v4_dh61 =
  { Profile.v4 with Profile.name = "v4+dh61"; login = Profile.Dh_protected; dh_group_bits = 61 }

let challenge_state_bounded () =
  (* Half-open challenge flood: an attacker with a valid ticket opens
     challenges it never answers. The server's state stays bounded. *)
  let profile = Profile.hardened in
  let bed =
    make_bed ~profile ~config:{ Apserver.default_config with max_peers = 10 } ()
  in
  let creds = ref None in
  Client.login bed.client ~password:"correct.horse" (fun r ->
      ignore (expect_ok "login" r);
      Client.get_ticket bed.client ~service:bed.file_principal (fun r ->
          creds := Some (expect_ok "ticket" r)));
  run bed;
  let creds = Option.get !creds in
  (* Fire 50 AP_REQs from distinct ports; answer none of the challenges. *)
  let ap_bytes =
    Messages.encode_msg profile ~tag:Messages.tag_ap_req
      (Messages.ap_req_to_value
         { Messages.r_ticket = creds.Client.ticket; r_authenticator = Bytes.empty;
           r_mutual = false })
  in
  for i = 0 to 49 do
    Sim.Net.send bed.net ~sport:(50000 + i) ~dst:(Sim.Host.primary_ip bed.server_host)
      ~dport:bed.file_port bed.ws (Frames.wrap Frames.ap_req ap_bytes)
  done;
  run bed;
  Alcotest.(check bool) "state bounded" true
    (Apserver.peer_state_size bed.apserver <= 10);
  (* And the server still works for an honest client afterwards. *)
  let ok = ref false in
  Client.ap_exchange bed.client creds ~dst:(Sim.Host.primary_ip bed.server_host)
    ~dport:bed.file_port (fun r -> ok := Result.is_ok r);
  run bed;
  Alcotest.(check bool) "honest client still served" true !ok

let kdc_timeout () =
  (* A client with no KDC on the network reports a timeout, not a hang. *)
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let ws = Sim.Host.create ~name:"ws" ~ips:[ Sim.Addr.of_quad 10 0 0 10 ] () in
  Sim.Net.attach net ws;
  let c =
    Client.create net ws ~profile:Profile.v4
      ~kdcs:[ (realm, Sim.Addr.of_quad 10 0 0 250) ]
      (Principal.user ~realm "pat")
  in
  let r = ref None in
  Client.login c ~password:"pw" (fun x -> r := Some x);
  Sim.Engine.run eng;
  match !r with
  | Some (Error e) -> Alcotest.(check string) "timeout" "KDC timeout" e
  | Some (Ok _) -> Alcotest.fail "login succeeded with no KDC"
  | None -> Alcotest.fail "no answer"

(* ------------------------------------------------------------------ *)
(* Channel lifetime                                                    *)
(* ------------------------------------------------------------------ *)

let counter bed name =
  Telemetry.Metrics.value
    (Telemetry.Metrics.counter
       (Telemetry.Collector.metrics (Sim.Net.telemetry bed.net))
       name)

let with_channel ?transport bed f =
  Client.login bed.client ~password:"correct.horse" (fun r ->
      ignore (expect_ok "login" r);
      Client.get_ticket bed.client ~service:bed.file_principal (fun r ->
          let creds = expect_ok "get_ticket" r in
          Client.ap_exchange bed.client creds ?transport
            ~dst:(Sim.Host.primary_ip bed.server_host) ~dport:bed.file_port
            (fun r -> f (expect_ok "ap_exchange" r))))

(* Closing under a waiting call settles it once with an error (its
   deadline timer fires later into nothing), the server's reply dies at
   the closed port, a second close changes nothing, and a later call
   fails at once. *)
let close_settles_waiting_call () =
  let bed = make_bed () in
  let settled = ref [] and later = ref None in
  let listeners = ref 0 and dropped = ref 0 in
  with_channel bed (fun chan ->
      listeners := Sim.Net.listener_count bed.net;
      dropped := counter bed "net.dropped.no-listener";
      Client.call_priv bed.client chan ~deadline:5.0 (Bytes.of_string "read")
        ~k:(fun r -> settled := r :: !settled);
      Client.close chan;
      Client.close chan;
      Client.call_priv bed.client chan (Bytes.of_string "again") ~k:(fun r ->
          later := Some r));
  run bed;
  (match !settled with
  | [ Error "channel closed" ] -> ()
  | l -> Alcotest.failf "waiting call settled %d times" (List.length l));
  (match !later with
  | Some (Error "channel closed") -> ()
  | _ -> Alcotest.fail "a call on a closed channel must fail at once");
  Alcotest.(check int) "late reply dropped at the closed port" (!dropped + 1)
    (counter bed "net.dropped.no-listener");
  Alcotest.(check int) "one listener fewer" (!listeners - 1)
    (Sim.Net.listener_count bed.net)

(* A stream channel's close is one FIN, acknowledged, never resent. *)
let close_tcp_sends_one_fin () =
  let bed = make_bed () in
  let stream_port = Sim.Transport.tcp_port bed.file_port in
  let fins = ref 0 and reply = ref None in
  Sim.Net.add_tap bed.net (fun pkt ->
      let p = pkt.Sim.Packet.payload in
      if
        pkt.Sim.Packet.dport = stream_port
        && Bytes.length p > 0
        && Char.code (Bytes.get p 0) land 4 <> 0
      then incr fins);
  with_channel ~transport:`Tcp bed (fun chan ->
      Client.call_priv bed.client chan (Bytes.of_string "read") ~k:(fun r ->
          reply := Some r;
          Client.close chan;
          Client.close chan));
  run bed;
  (match !reply with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "the call before the close must succeed");
  Alcotest.(check int) "FINs from the client" 1 !fins

let () =
  Alcotest.run "kerberos"
    [ ("v4", profile_cases "v4" Profile.v4);
      ("v5-draft3", profile_cases "v5" Profile.v5_draft3);
      ("hardened", profile_cases "hardened" Profile.hardened);
      ("v5+md4des", profile_cases "v5+md4des" v5_md4des);
      ("v5+seq", profile_cases "v5+seq" v5_seq);
      ("v4+handheld", profile_cases "v4+handheld" v4_handheld);
      ("v4+dh61", profile_cases "v4+dh61" v4_dh61);
      ("timeout", [ Alcotest.test_case "kdc unreachable" `Quick kdc_timeout ]);
      ( "channel",
        [ Alcotest.test_case "close settles a waiting call" `Quick
            close_settles_waiting_call;
          Alcotest.test_case "close sends one FIN over TCP" `Quick
            close_tcp_sends_one_fin ] );
      ( "server-state",
        [ Alcotest.test_case "challenge flood bounded" `Quick challenge_state_bounded ] );
      ("replay", suite_replay);
      ("cross-realm", suite_cross_realm);
      ("units", suite_units) ]
