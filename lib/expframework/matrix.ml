open Attacks

type attack = {
  id : string;
  title : string;
  section : string;
  shape : bool list;
  run : Kerberos.Profile.t -> Outcome.t;
}

type row = {
  id : string;
  attack : string;
  section : string;
  outcomes : (string * Outcome.t) list;
}

let profiles = Kerberos.Profile.all
let hardened (p : Kerberos.Profile.t) = p.name = "hardened"

(* [shape]: true = expected Broken, in profile order v4, v5-draft3,
   hardened. *)
let attacks =
  [ { id = "E1"; title = "live authenticator replay (mail-check session)";
      section = "Replay Attacks"; shape = [ true; true; false ];
      run = (fun p -> Replay_auth.outcome (Replay_auth.run ~profile:p ())) };
    { id = "E2"; title = "time-service spoof + stale authenticator";
      section = "Secure Time Services"; shape = [ true; true; false ];
      run = (fun p -> Clock_spoof.outcome (Clock_spoof.run ~profile:p ())) };
    { id = "E2b"; title = "time/auth bootstrap circularity (skewed host wedged)";
      section = "Secure Time Services"; shape = [ true; true; false ];
      run = (fun p -> Time_bootstrap.outcome (Time_bootstrap.run ~profile:p ())) };
    { id = "E3"; title = "offline password guessing (eavesdropped logins)";
      section = "Password-Guessing Attacks"; shape = [ true; true; false ];
      run =
        (fun p ->
          Password_guess.outcome
            (Password_guess.run ~n_users:10 ~dictionary_head:250 ~profile:p ())) };
    { id = "E4"; title = "active AS_REP harvesting (no eavesdropping)";
      section = "Password-Guessing Attacks"; shape = [ true; true; false ];
      run =
        (fun p ->
          Ticket_harvest.outcome
            (Ticket_harvest.run ~n_users:10 ~dictionary_head:250 ~profile:p ())) };
    { id = "E5"; title = "trojaned login program"; section = "Spoofing Login";
      shape = [ true; true; false ];
      run = (fun p -> Login_trojan.outcome (Login_trojan.run ~profile:p ())) };
    { id = "E6"; title = "chosen-plaintext CBC prefix on KRB_PRIV";
      section = "Inter-Session Chosen Plaintext Attacks";
      shape = [ false; true; false ];
      run = (fun p -> Cpa_prefix.outcome (Cpa_prefix.run ~profile:p ())) };
    { id = "E6b"; title = "PCBC block-swap message-stream modification";
      section = "The Encryption Layer"; shape = [ true; false; false ];
      run = (fun p -> Pcbc_swap.outcome (Pcbc_swap.run ~profile:p ())) };
    { id = "E7"; title = "cross-session replay under the multi-session key";
      section = "Exposure of Session Keys"; shape = [ true; true; false ];
      run = (fun p -> Cross_session.outcome (Cross_session.run ~profile:p ())) };
    (* The fix is session encryption, not the AP exchange. *)
    { id = "E8a"; title = "connection hijack after authentication (rsh)";
      section = "The Scope of Tickets"; shape = [ true; true; true ];
      run = (fun p -> Hijack.outcome (Hijack.run ~profile:p ())) };
    { id = "E8b"; title = "Morris ISN spoof + stolen live authenticator";
      section = "Replay Attacks"; shape = [ true; true; false ];
      run =
        (fun p ->
          Morris_isn.outcome
            (Morris_isn.run ~isn:Sim.Tcpish.Predictable ~profile:p ())) };
    (* No protocol fix offered; the key-based transit check is shown
       separately. *)
    { id = "E9"; title = "transit-realm forgery / forwarding without origin";
      section = "The Scope of Tickets / Inter-Realm";
      shape = [ true; true; true ];
      run = (fun p -> Realm_spoof.outcome (Realm_spoof.run ~profile:p ())) };
    (* The option is absent in v4. *)
    { id = "E10"; title = "CRC-32 cut-and-paste via ENC-TKT-IN-SKEY";
      section = "Appendix: Weak Checksums"; shape = [ false; true; false ];
      run = (fun p -> Cut_paste.outcome (Cut_paste.run ~profile:p ())) };
    { id = "E10b"; title = "ticket substitution in KDC replies (DoS)";
      section = "Appendix: Weak Checksums"; shape = [ true; true; false ];
      run = (fun p -> Ticket_sub.outcome (Ticket_sub.run ~profile:p ())) };
    { id = "E11"; title = "REUSE-SKEY redirect (file -> backup server)";
      section = "Appendix: Weak Checksums"; shape = [ false; true; false ];
      run = (fun p -> Reuse_skey.outcome (Reuse_skey.run ~profile:p ())) };
    { id = "E12b"; title = "KRB_SAFE data swap under sealed CRC-32";
      section = "Appendix: Checksum Layer"; shape = [ true; true; false ];
      run = (fun p -> Safe_forge.outcome (Safe_forge.run ~profile:p ())) };
    (* An environment problem, not a protocol one. *)
    { id = "E16"; title = "credential-cache theft on a multi-user host";
      section = "The Kerberos Environment"; shape = [ true; true; true ];
      run =
        (fun p ->
          Cache_theft.outcome (Cache_theft.run ~multi_user:true ~profile:p ())) };
    (* The hardened deployment includes the encryption box, the paper's
       hardware answer to plaintext host keys. *)
    { id = "E17"; title = "host srvtab key theft -> impersonate every local user";
      section = "The Kerberos Environment / Hardware";
      shape = [ true; true; false ];
      run =
        (fun p ->
          Host_key_theft.outcome
            (Host_key_theft.run ~use_encbox:(hardened p) ~profile:p ())) };
    (* Pinned (in-box) key memory ships with the hardened deployment. *)
    { id = "E18"; title = "diskless workstation pages its keys over the wire";
      section = "The Kerberos Environment"; shape = [ true; true; false ];
      run =
        (fun p ->
          Paging_leak.outcome
            (Paging_leak.run ~pinned_memory:(hardened p) ~profile:p ())) } ]

let run_all () =
  List.map
    (fun (a : attack) ->
      { id = a.id; attack = a.title; section = a.section;
        outcomes = List.map (fun p -> (p.Kerberos.Profile.name, a.run p)) profiles })
    attacks

let run_row id rows = List.find_opt (fun (r : row) -> r.id = id) rows
let expected_shape = List.map (fun (a : attack) -> (a.id, a.shape)) attacks
let header = "id" :: "attack" :: List.map (fun p -> p.Kerberos.Profile.name) profiles

let to_cells rows =
  List.map
    (fun r -> r.id :: r.attack :: List.map (fun (_, o) -> Outcome.label o) r.outcomes)
    rows
