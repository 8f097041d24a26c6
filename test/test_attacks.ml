(* The heart of the reproduction: every attack from the paper, run against
   the profile it targets (expected to succeed) and against the profiles
   carrying the paper's fixes (expected to fail). *)

open Kerberos
open Attacks

let v4 = Profile.v4
let v5 = Profile.v5_draft3
let hardened = Profile.hardened

let check_broken name o = Alcotest.(check bool) (name ^ ": " ^ Outcome.detail o) true (Outcome.is_broken o)
let check_defended name o =
  Alcotest.(check bool) (name ^ ": " ^ Outcome.detail o) false (Outcome.is_broken o)

(* E1: authenticator replay *)

let e1 () =
  check_broken "v4 replay inside window" (Replay_auth.outcome (Replay_auth.run ~profile:v4 ()));
  check_broken "v5 replay inside window" (Replay_auth.outcome (Replay_auth.run ~profile:v5 ()));
  let v4_cache =
    { v4 with Profile.name = "v4+cache";
      ap_auth = Profile.Timestamp { skew = 300.0; replay_cache = true } }
  in
  check_defended "v4+cache" (Replay_auth.outcome (Replay_auth.run ~profile:v4_cache ()));
  check_defended "hardened (challenge/response)"
    (Replay_auth.outcome (Replay_auth.run ~profile:hardened ()));
  (* Outside the window the replay dies even on stock V4. *)
  check_defended "v4 replay after window"
    (Replay_auth.outcome (Replay_auth.run ~delay:400.0 ~profile:v4 ()))

(* E2: time-service spoofing *)

let e2 () =
  check_broken "v4, unauthenticated time"
    (Clock_spoof.outcome (Clock_spoof.run ~profile:v4 ()));
  check_defended "v4, MAC-authenticated time"
    (Clock_spoof.outcome (Clock_spoof.run ~authenticated_time:true ~profile:v4 ()));
  check_defended "hardened (challenge/response, no clock dependence)"
    (Clock_spoof.outcome (Clock_spoof.run ~profile:hardened ()))

(* E3: passive password guessing *)

let e3 () =
  let r4 = Password_guess.run ~n_users:10 ~dictionary_head:250 ~profile:v4 () in
  check_broken "v4 eavesdrop" (Password_guess.outcome r4);
  Alcotest.(check bool) "only weak users crackable" true
    (List.length r4.cracked <= r4.weak_users);
  let r5 = Password_guess.run ~n_users:10 ~dictionary_head:250 ~profile:v5 () in
  check_broken "v5 eavesdrop (preauth does not help here)" (Password_guess.outcome r5);
  let rh = Password_guess.run ~n_users:6 ~dictionary_head:60 ~profile:hardened () in
  check_defended "hardened (DH layer)" (Password_guess.outcome rh);
  Alcotest.(check int) "zero cracked" 0 (List.length rh.cracked);
  Alcotest.(check bool) "recordings existed" true (rh.replies_recorded > 0)

(* E4: active harvesting *)

let e4 () =
  let r4 = Ticket_harvest.run ~n_users:10 ~dictionary_head:250 ~profile:v4 () in
  check_broken "v4 harvest" (Ticket_harvest.outcome r4);
  Alcotest.(check int) "all replies handed out" 10 r4.replies_obtained;
  (* DH alone does NOT stop an active harvester. *)
  let dh_only =
    { v4 with Profile.name = "v4+dh"; login = Profile.Dh_protected; dh_group_bits = 61 }
  in
  let rdh = Ticket_harvest.run ~n_users:8 ~dictionary_head:250 ~profile:dh_only () in
  check_broken "dh without preauth still harvestable" (Ticket_harvest.outcome rdh);
  let rh = Ticket_harvest.run ~n_users:12 ~dictionary_head:40 ~profile:hardened () in
  check_defended "hardened (preauth)" (Ticket_harvest.outcome rh);
  Alcotest.(check int) "no replies" 0 rh.replies_obtained

(* E5: login trojan *)

let e5 () =
  check_broken "v4 trojan records password"
    (Login_trojan.outcome (Login_trojan.run ~profile:v4 ()));
  check_defended "hardened (handheld): loot useless"
    (Login_trojan.outcome (Login_trojan.run ~profile:hardened ()));
  let handheld_only =
    { v4 with Profile.name = "v4+handheld"; login = Profile.Handheld_challenge }
  in
  check_defended "v4+handheld: loot useless"
    (Login_trojan.outcome (Login_trojan.run ~profile:handheld_only ()))

(* E6: chosen-plaintext prefix *)

let e6 () =
  let r5 = Cpa_prefix.run ~profile:v5 () in
  check_broken "v5 CBC prefix" (Cpa_prefix.outcome r5);
  Alcotest.(check bool) "oracle produced ciphertext" true r5.prefix_cut;
  check_defended "v4 length field disrupts it" (Cpa_prefix.outcome (Cpa_prefix.run ~profile:v4 ()));
  check_defended "hardened IV chain resists" (Cpa_prefix.outcome (Cpa_prefix.run ~profile:hardened ()))

(* E6b: PCBC block-swap message-stream modification *)

let e6b () =
  let r = Pcbc_swap.run ~profile:v4 () in
  check_broken "v4 pcbc swap undetected" (Pcbc_swap.outcome r);
  Alcotest.(check bool) "server executed something else" true
    (r.server_saw <> None && r.server_saw <> Some r.sent_command);
  check_defended "v5 inner checksum catches garbling"
    (Pcbc_swap.outcome (Pcbc_swap.run ~profile:v5 ()));
  check_defended "hardened md4+iv-chain catches garbling"
    (Pcbc_swap.outcome (Pcbc_swap.run ~profile:hardened ()))

(* E12b: KRB_SAFE substitution under a weak checksum *)

let e12b () =
  let r = Safe_forge.run ~profile:v4 () in
  check_broken "v4 crc32 KRB_SAFE forgery" (Safe_forge.outcome r);
  Alcotest.(check bool) ".rhosts planted" true r.file_planted;
  check_broken "v5 crc32 KRB_SAFE forgery" (Safe_forge.outcome (Safe_forge.run ~profile:v5 ()));
  check_defended "hardened md4" (Safe_forge.outcome (Safe_forge.run ~profile:hardened ()))

(* E7: cross-session replay *)

let e7 () =
  let r4 = Cross_session.run ~profile:v4 () in
  check_broken "v4 multi-session key" (Cross_session.outcome r4);
  Alcotest.(check int) "executed twice" 2 r4.executions;
  check_broken "v5 multi-session key" (Cross_session.outcome (Cross_session.run ~profile:v5 ()));
  let rh = Cross_session.run ~profile:hardened () in
  check_defended "hardened negotiated keys" (Cross_session.outcome rh);
  Alcotest.(check int) "executed once" 1 rh.executions

(* E8: hijack and Morris *)

let e8 () =
  check_broken "hijack after auth (v4)" (Hijack.outcome (Hijack.run ~profile:v4 ()));
  check_broken "hijack after auth (hardened AP, cleartext session)"
    (Hijack.outcome (Hijack.run ~profile:hardened ()));
  check_broken "morris predictable isn + stolen authenticator (v4)"
    (Morris_isn.outcome (Morris_isn.run ~isn:Sim.Tcpish.Predictable ~profile:v4 ()));
  check_defended "random isn stops the blind handshake"
    (Morris_isn.outcome (Morris_isn.run ~isn:Sim.Tcpish.Random_isn ~profile:v4 ()));
  check_defended "challenge/response stops it even with predictable isn"
    (Morris_isn.outcome (Morris_isn.run ~isn:Sim.Tcpish.Predictable ~profile:hardened ()))

(* E9: realms *)

let e9 () =
  let r = Realm_spoof.run ~profile:v5 () in
  check_broken "v5 transit forgery" (Realm_spoof.outcome r);
  Alcotest.(check (option bool)) "forwarded tickets indistinguishable" (Some true)
    r.forwarded_indistinguishable;
  Alcotest.(check bool) "key-based verification stops the forgery" false
    r.transit_forgery_with_verification

(* E10: cut and paste *)

let e10 () =
  let r = Cut_paste.run ~profile:v5 () in
  check_broken "v5-draft3 crc32 + enc-tkt-in-skey" (Cut_paste.outcome r);
  Alcotest.(check bool) "crc forged" true r.checksum_forged;
  Alcotest.(check bool) "mutual auth spoofed" true r.mutual_auth_spoofed;
  Alcotest.(check bool) "victim's secret read" true (r.stolen_plaintext <> None);
  let v5_md4 = { v5 with Profile.name = "v5+md4"; checksum = Crypto.Checksum.Md4 } in
  check_defended "md4 checksum" (Cut_paste.outcome (Cut_paste.run ~profile:v5_md4 ()));
  check_defended "cname check"
    (Cut_paste.outcome (Cut_paste.run ~enc_tkt_cname_check:true ~profile:v5 ()));
  (match Cut_paste.run ~profile:v4 () with
  | { applicable = false; _ } -> ()
  | _ -> Alcotest.fail "v4 should not expose the option")

(* E10b: ticket substitution in KDC replies *)

let e10b () =
  let r4 = Ticket_sub.run ~profile:v4 () in
  check_broken "v4 substitution undetected until use" (Ticket_sub.outcome r4);
  Alcotest.(check string) "failure surfaced late" "service use" r4.failure_surfaced_at;
  check_broken "v5 same" (Ticket_sub.outcome (Ticket_sub.run ~profile:v5 ()));
  let rh = Ticket_sub.run ~profile:hardened () in
  check_defended "hardened: nothing to substitute" (Ticket_sub.outcome rh);
  Alcotest.(check bool) "no cleartext ticket existed" false rh.substitution_possible

(* E11: reuse-skey redirect *)

let e11 () =
  let r = Reuse_skey.run ~profile:v5 () in
  check_broken "v5-draft3 redirect" (Reuse_skey.outcome r);
  Alcotest.(check (option string)) "server believed the victim asked"
    (Some "pat@ATHENA") r.believed_principal;
  (* Negotiated true session keys break the redirect even with REUSE-SKEY on. *)
  let v5_neg =
    { v5 with Profile.name = "v5+negotiated"; negotiate_session_key = true }
  in
  check_defended "negotiated session keys" (Reuse_skey.outcome (Reuse_skey.run ~profile:v5_neg ()));
  (* "Servers that obey this restriction are not vulnerable": the backup
     server refuses DUPLICATE-SKEY tickets outright. *)
  check_defended "server obeys the DUPLICATE-SKEY warning"
    (Reuse_skey.outcome
       (Reuse_skey.run
          ~server_config:{ Apserver.default_config with refuse_dup_skey = true }
          ~profile:v5 ()));
  (match Reuse_skey.run ~profile:hardened () with
  | { applicable = false; _ } -> ()
  | _ -> Alcotest.fail "hardened should not expose the option")

(* E16: cache theft *)

let e16 () =
  let rm = Cache_theft.run ~multi_user:true ~profile:v4 () in
  check_broken "multi-user host" (Cache_theft.outcome rm);
  Alcotest.(check bool) "thesis read" true
    (List.mem "draft chapter 3" rm.files_read);
  check_defended "workstation"
    (Cache_theft.outcome (Cache_theft.run ~multi_user:false ~profile:v4 ()));
  (* The theft works against the hardened profile too: this is an
     environment problem, not a protocol one — the paper's point. *)
  check_broken "multi-user host, hardened profile"
    (Cache_theft.outcome (Cache_theft.run ~multi_user:true ~profile:hardened ()))

(* E17: host key theft *)

let e17 () =
  let r = Host_key_theft.run ~profile:v4 () in
  check_broken "srvtab on disk" (Host_key_theft.outcome r);
  Alcotest.(check bool) "grades read via forged mount" true
    (List.mem "all the grades" r.victims_files_read);
  let rb = Host_key_theft.run ~use_encbox:true ~profile:v4 () in
  check_defended "encbox keeps the key off disk" (Host_key_theft.outcome rb);
  Alcotest.(check bool) "nothing stolen" false rb.key_stolen

(* E18: paging leak *)

let e18 () =
  let r4 = Paging_leak.run ~profile:v4 () in
  check_broken "v4: paged TGT cashed via spoofed source" (Paging_leak.outcome r4);
  Alcotest.(check bool) "pages captured" true (r4.pages_captured > 0);
  check_broken "v5: paged TGT used directly (no address binding)"
    (Paging_leak.outcome (Paging_leak.run ~profile:v5 ()));
  let rp = Paging_leak.run ~pinned_memory:true ~profile:v4 () in
  check_defended "pinned memory pages nothing" (Paging_leak.outcome rp);
  Alcotest.(check int) "zero pages" 0 rp.pages_captured

(* Address binding probe *)

let e_addr () =
  let r4 = Addr_binding.run ~profile:v4 () in
  Alcotest.(check bool) "v4 breaks multi-homed hosts" false r4.legit_multihomed_works;
  Alcotest.(check bool) "v4 spoofed source accepted anyway" true r4.spoofed_source_accepted;
  let r5 = Addr_binding.run ~profile:v5 () in
  Alcotest.(check bool) "v5 multi-homed works" true r5.legit_multihomed_works;
  let rh = Addr_binding.run ~profile:hardened () in
  Alcotest.(check bool) "hardened multi-homed works" true rh.legit_multihomed_works;
  Alcotest.(check bool) "hardened replay dies at the challenge" false
    rh.spoofed_source_accepted

(* Key material from the wire: a session key or negotiation part of the
   wrong length, or a missing part, is refused by the file server. Each
   of these used to escape [Testbed.run] as an [Invalid_argument]. *)

let file_server_refused (bed : Testbed.t) =
  let ap = Services.Fileserver.apserver bed.file in
  Alcotest.(check int) "no session established" 0 (Apserver.sessions_established ap);
  Alcotest.(check bool) "refused as bad integrity" true
    (List.exists
       (fun (code, _) -> code = Messages.err_bad_integrity)
       (Apserver.rejections ap))

let send_to_file_server (bed : Testbed.t) ~sport kind body =
  Sim.Adversary.spoof bed.adv ~src:(Testbed.attacker_addr bed) ~sport
    ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:bed.file_port
    (Frames.wrap kind body)

(* Any holder of a service key can mint a ticket; this one carries a
   7-byte session key. *)
let short_ticket_key () =
  let bed = Testbed.make ~profile:v4 () in
  let ticket =
    { Messages.server = bed.file_principal; client = Principal.user ~realm:"ATHENA" "robin";
      addr = Some (Testbed.attacker_addr bed); issued_at = Sim.Net.now bed.net;
      lifetime = 3600.0; session_key = Bytes.make 7 'k'; forwarded = false;
      dup_skey = false; transited = [] }
  in
  let ap =
    { Messages.r_ticket =
        Messages.seal_msg v4 bed.rng ~key:bed.file_key ~tag:Messages.tag_ticket
          (Messages.ticket_to_value ticket);
      r_authenticator = Bytes.make 16 'a'; r_mutual = false }
  in
  send_to_file_server bed ~sport:47000 Frames.ap_req
    (Messages.encode_msg v4 ~tag:Messages.tag_ap_req (Messages.ap_req_to_value ap));
  Testbed.run bed;
  file_server_refused bed

(* Robin, an insider holding a valid ticket, opens a hardened
   challenge/response exchange by hand, reads the challenge off the tap
   and answers it with [part] as the client's negotiation part. *)
let answer_challenge_with part () =
  let bed = Testbed.make ~profile:hardened () in
  let sport = 47001 in
  let answered = ref false in
  Client.login bed.attacker ~password:bed.attacker_password (fun r ->
      ignore (Testbed.expect "robin login" r);
      Client.get_ticket bed.attacker ~service:bed.file_principal (fun r ->
          let creds = Testbed.expect "robin ticket" r in
          let key = creds.Client.session_key in
          send_to_file_server bed ~sport Frames.ap_req
            (Messages.encode_msg hardened ~tag:Messages.tag_ap_req
               (Messages.ap_req_to_value
                  { Messages.r_ticket = creds.ticket; r_authenticator = Bytes.empty;
                    r_mutual = false }));
          Sim.Engine.schedule_after bed.eng 0.5 (fun () ->
              let challenge =
                List.find_map
                  (fun (p : Sim.Packet.t) ->
                    match Frames.unwrap p.payload with
                    | Some (kind, body)
                      when kind = Frames.challenge && p.dport = sport ->
                        Some body
                    | _ -> None)
                  (Sim.Adversary.captured bed.adv)
              in
              match challenge with
              | None -> Alcotest.fail "no challenge on the tap"
              | Some body ->
                  let c =
                    Messages.challenge_of_value
                      (Testbed.expect "challenge"
                         (Messages.open_msg hardened ~key ~tag:Messages.tag_challenge body))
                  in
                  answered := true;
                  send_to_file_server bed ~sport Frames.challenge_resp
                    (Messages.seal_msg hardened bed.rng ~key
                       ~tag:Messages.tag_challenge_resp
                       (Messages.challenge_resp_to_value
                          { Messages.cr_nonce_f = Int64.add c.c_nonce 1L;
                            cr_client_part = part; cr_seq_init = Some 1 })))));
  Testbed.run bed;
  Alcotest.(check bool) "challenge answered" true !answered;
  file_server_refused bed

let () =
  Alcotest.run "attacks"
    [ ("e1-replay", [ Alcotest.test_case "replay matrix" `Slow e1 ]);
      ("e2-clock", [ Alcotest.test_case "clock spoof" `Quick e2 ]);
      ("e3-guess", [ Alcotest.test_case "eavesdrop guessing" `Slow e3 ]);
      ("e4-harvest", [ Alcotest.test_case "active harvesting" `Slow e4 ]);
      ("e5-trojan", [ Alcotest.test_case "login trojan" `Quick e5 ]);
      ("e6-cpa", [ Alcotest.test_case "cbc prefix" `Quick e6 ]);
      ("e6b-pcbc-swap", [ Alcotest.test_case "block swap" `Quick e6b ]);
      ("e12b-safe-forge", [ Alcotest.test_case "KRB_SAFE substitution" `Quick e12b ]);
      ("e7-cross-session", [ Alcotest.test_case "cross-session replay" `Quick e7 ]);
      ("e8-hijack-morris", [ Alcotest.test_case "hijack and morris" `Quick e8 ]);
      ("e9-realms", [ Alcotest.test_case "transit forgery" `Quick e9 ]);
      ("e10-cut-paste", [ Alcotest.test_case "crc32 cut and paste" `Quick e10 ]);
      ("e10b-ticket-sub", [ Alcotest.test_case "reply substitution" `Quick e10b ]);
      ("e11-reuse-skey", [ Alcotest.test_case "redirect" `Quick e11 ]);
      ("e16-cache-theft", [ Alcotest.test_case "cache theft" `Quick e16 ]);
      ("e17-host-key", [ Alcotest.test_case "srvtab theft" `Quick e17 ]);
      ("e18-paging", [ Alcotest.test_case "paging leak" `Quick e18 ]);
      ("addr-binding", [ Alcotest.test_case "address binding probe" `Quick e_addr ]);
      ( "wire-key-material",
        [ Alcotest.test_case "v4: 7-byte ticket session key" `Quick short_ticket_key;
          Alcotest.test_case "hardened: 7-byte client part" `Quick
            (answer_challenge_with (Some (Bytes.make 7 'p')));
          Alcotest.test_case "hardened: no client part" `Quick
            (answer_challenge_with None) ] ) ]
