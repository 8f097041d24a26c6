(* Negative-path unit tests for the KDC, plus whole-protocol liveness
   properties under random user populations. *)

open Kerberos

let realm = "ATHENA"

type bed = {
  eng : Sim.Engine.t;
  net : Sim.Net.t;
  db : Kdb.t;
  kdc : Kdc.t;
  kdc_host : Sim.Host.t;
  ws : Sim.Host.t;
  file_principal : Principal.t;
  file_key : bytes;
}

let mk ?(profile = Profile.v4) ?(lifetime = 3600.0) () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let kdc_host = Sim.Host.create ~name:"kdc" ~ips:[ Sim.Addr.of_quad 10 0 0 1 ] () in
  let ws = Sim.Host.create ~name:"ws" ~ips:[ Sim.Addr.of_quad 10 0 0 10 ] () in
  Sim.Net.attach net kdc_host;
  Sim.Net.attach net ws;
  let db = Kdb.create () in
  let rng = Util.Rng.create 9L in
  Kdb.add_service db (Principal.tgs ~realm) ~key:(Crypto.Des.random_key rng);
  Kdb.add_user db (Principal.user ~realm "pat") ~password:"pw";
  let file_principal = Principal.service ~realm "fs" ~host:"h" in
  let file_key = Crypto.Des.random_key rng in
  Kdb.add_service db file_principal ~key:file_key;
  let kdc = Kdc.create ~realm ~profile ~lifetime db in
  Kdc.install net kdc_host kdc ();
  { eng; net; db; kdc; kdc_host; ws; file_principal; file_key }

let client ?(name = "pat") ?(seed = 1L) b profile =
  Client.create ~seed b.net b.ws ~profile
    ~kdcs:[ (realm, Sim.Host.primary_ip b.kdc_host) ]
    (Principal.user ~realm name)

let run b = Sim.Engine.run b.eng

let expect_error_containing what fragment = function
  | Some (Error e) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" what e fragment)
        true
        (Astring.String.is_infix ~affix:fragment e)
  | Some (Ok _) -> Alcotest.failf "%s: unexpectedly succeeded" what
  | None -> Alcotest.failf "%s: stalled" what

let unknown_client () =
  let b = mk () in
  let c = client ~name:"mallory" b Profile.v4 in
  let r = ref None in
  Client.login c ~password:"whatever" (fun x -> r := Some x);
  run b;
  expect_error_containing "unknown client" "mallory" !r

let unknown_service () =
  let b = mk () in
  let c = client b Profile.v4 in
  let r = ref None in
  Client.login c ~password:"pw" (fun x ->
      ignore (Result.get_ok x);
      Client.get_ticket c ~service:(Principal.service ~realm "nosuch" ~host:"h")
        (fun x -> r := Some x));
  run b;
  expect_error_containing "unknown service" "unknown" !r

let wrong_password_rejected_with_preauth () =
  (* With preauth the KDC can tell a bad password apart up front. *)
  let profile = { Profile.v4 with Profile.name = "v4p"; preauth = true } in
  let b = mk ~profile () in
  let c = client b profile in
  let r = ref None in
  Client.login c ~password:"not-pw" (fun x -> r := Some x);
  run b;
  expect_error_containing "bad preauth" "preauth" !r;
  Alcotest.(check int) "counted" 1 (Kdc.preauth_rejections b.kdc)

let expired_tgt_at_tgs () =
  let b = mk ~lifetime:60.0 () in
  let c = client b Profile.v4 in
  let r = ref None in
  Client.login c ~password:"pw" (fun x ->
      ignore (Result.get_ok x);
      (* Wait out the TGT's lifetime before asking for a service ticket. *)
      Sim.Engine.schedule_after b.eng 120.0 (fun () ->
          Client.get_ticket c ~service:b.file_principal (fun x -> r := Some x)));
  run b;
  expect_error_containing "expired tgt" "expired" !r

let skewed_client_at_tgs () =
  let b = mk () in
  b.ws.Sim.Host.clock_offset <- 1000.0;
  let c = client b Profile.v4 in
  let r = ref None in
  Client.login c ~password:"pw" (fun x ->
      ignore (Result.get_ok x);
      Client.get_ticket c ~service:b.file_principal (fun x -> r := Some x));
  run b;
  expect_error_containing "skewed authenticator" "skew" !r

let forbidden_options () =
  (* V4 exposes no Draft 3 options; requesting one is refused. *)
  let b = mk () in
  let c = client b Profile.v4 in
  let results = ref [] in
  Client.login c ~password:"pw" (fun x ->
      let tgt = Result.get_ok x in
      List.iter
        (fun opts ->
          Client.get_ticket c ~options:opts ~additional_ticket:tgt.Client.ticket
            ~service:b.file_principal (fun x -> results := x :: !results))
        [ { Messages.no_options with enc_tkt_in_skey = true };
          { Messages.no_options with reuse_skey = true };
          { Messages.no_options with forward = true } ]);
  run b;
  Alcotest.(check int) "three answers" 3 (List.length !results);
  List.iter
    (fun r ->
      match r with
      | Error e ->
          Alcotest.(check bool) ("refused: " ^ e) true
            (Astring.String.is_infix ~affix:"not allowed" e)
      | Ok _ -> Alcotest.fail "forbidden option honoured")
    !results

let tgs_replay_cache () =
  (* With the cache on, a verbatim replay of a TGS request is refused. *)
  let profile =
    { Profile.v4 with
      Profile.name = "v4c";
      ap_auth = Profile.Timestamp { skew = 300.0; replay_cache = true } }
  in
  let b = mk ~profile () in
  let adv = Sim.Adversary.attach b.net in
  Sim.Adversary.start_tap adv;
  let c = client b profile in
  Client.login c ~password:"pw" (fun x ->
      ignore (Result.get_ok x);
      Client.get_ticket c ~service:b.file_principal (fun x -> ignore (Result.get_ok x)));
  run b;
  (* Find the TGS request (the bigger of the two KDC-bound packets). *)
  let tgs_req =
    Sim.Adversary.capture_matching adv (fun p ->
        p.Sim.Packet.dport = Kdc.default_port && Bytes.length p.Sim.Packet.payload > 200)
    |> (fun l -> List.nth l (List.length l - 1))
  in
  let got = ref None in
  Sim.Net.listen b.net b.ws ~port:45999 (fun pkt -> got := Some pkt.Sim.Packet.payload);
  Sim.Net.inject b.net { tgs_req with Sim.Packet.sport = 45999 };
  run b;
  match !got with
  | None -> Alcotest.fail "no answer to the replay"
  | Some payload -> (
      match
        Messages.err_of_value (Wire.Encoding.decode profile.Profile.encoding payload)
      with
      | { e_text; _ } ->
          Alcotest.(check bool) ("replay refused: " ^ e_text) true
            (Astring.String.is_infix ~affix:"replay" e_text)
      | exception Wire.Codec.Decode_error _ -> Alcotest.fail "replayed TGS request honoured")

(* The cache is keyed by authenticator ciphertext from the wire, so it is
   capped: 32,768 fresh authenticators fill it, and each one after that
   evicts the entry closest to expiry. One TGS request every millisecond
   keeps every authenticator inside the skew window and distinct. *)
let tgs_replay_cache_capped () =
  let profile =
    { Profile.v4 with
      Profile.name = "v4c";
      ap_auth = Profile.Timestamp { skew = 300.0; replay_cache = true } }
  in
  let b = mk ~profile () in
  let c = client b profile in
  let cap = 32_768 and extra = 10 in
  let served = ref 0 in
  Client.login c ~password:"pw" (fun x ->
      ignore (Result.get_ok x);
      for i = 1 to cap + extra do
        Sim.Engine.schedule_after b.eng (0.001 *. float_of_int i) (fun () ->
            Client.get_ticket c ~service:b.file_principal (fun r ->
                if Result.is_ok r then incr served))
      done);
  run b;
  Alcotest.(check int) "every request served" (cap + extra) !served;
  Alcotest.(check int) "evictions past the cap" extra (Kdc.replay_evictions b.kdc)

let stats_counters () =
  let b = mk () in
  let c = client b Profile.v4 in
  Client.login c ~password:"pw" (fun _ -> ());
  run b;
  Alcotest.(check int) "one AS request served" 1 (Kdc.as_requests_served b.kdc)

let suite_negative =
  [ Alcotest.test_case "unknown client" `Quick unknown_client;
    Alcotest.test_case "unknown service" `Quick unknown_service;
    Alcotest.test_case "preauth rejects bad password" `Quick wrong_password_rejected_with_preauth;
    Alcotest.test_case "expired TGT at TGS" `Quick expired_tgt_at_tgs;
    Alcotest.test_case "skewed client at TGS" `Quick skewed_client_at_tgs;
    Alcotest.test_case "forbidden options" `Quick forbidden_options;
    Alcotest.test_case "TGS replay cache" `Quick tgs_replay_cache;
    Alcotest.test_case "TGS replay cache capped" `Quick tgs_replay_cache_capped;
    Alcotest.test_case "stats counters" `Quick stats_counters ]

(* ------------------------------------------------------------------ *)
(* Liveness: random populations succeed end to end                     *)
(* ------------------------------------------------------------------ *)

let liveness_prop =
  QCheck.Test.make ~name:"honest runs succeed for random populations" ~count:20
    QCheck.(triple (int_bound 2) (int_range 1 5) (int_bound 1000))
    (fun (pidx, n_users, seed) ->
      let profile = List.nth [ Profile.v4; Profile.v5_draft3; Profile.hardened ] pidx in
      let b = mk ~profile () in
      let rng = Util.Rng.create (Int64.of_int (seed + 77)) in
      let users = Workloads.Passwords.population rng ~n:n_users ~weak_fraction:0.5 in
      List.iter
        (fun u ->
          Kdb.add_user b.db (Principal.user ~realm u.Workloads.Passwords.name)
            ~password:u.Workloads.Passwords.password)
        users;
      let successes = ref 0 in
      List.iteri
        (fun i u ->
          let c =
            client ~name:u.Workloads.Passwords.name ~seed:(Int64.of_int (i + 5)) b
              profile
          in
          Client.login c ~password:u.Workloads.Passwords.password (fun r ->
              ignore (Result.get_ok r);
              Client.get_ticket c ~service:b.file_principal (fun r ->
                  if Result.is_ok r then incr successes)))
        users;
      run b;
      !successes = n_users)

let suite_liveness = [ QCheck_alcotest.to_alcotest liveness_prop ]

let () =
  Alcotest.run "kdc"
    [ ("negative-paths", suite_negative); ("liveness", suite_liveness) ]
