open Kerberos

type result = {
  applicable : bool;
  checksum_forged : bool;
  kdc_issued_misencrypted_ticket : bool;
  mutual_auth_spoofed : bool;
  stolen_plaintext : string option;
}

let no_result ~applicable =
  { applicable; checksum_forged = false; kdc_issued_misencrypted_ticket = false;
    mutual_auth_spoofed = false; stolen_plaintext = None }

let secret_request = "WRITE /u/pat/dossier the committee's confidential notes"

let run ?(seed = 0xE10L) ?(enc_tkt_cname_check = false) ~profile () =
  if not profile.Profile.allow_enc_tkt_in_skey then no_result ~applicable:false
  else begin
    let bed = Testbed.make ~seed ~enc_tkt_cname_check ~profile () in
    (* The insider attacker logs in first: its own TGT and session key are
       the tools of the trade. *)
    let robin_creds = ref None in
    Client.login bed.attacker ~password:bed.attacker_password (fun r ->
        robin_creds := Some (Testbed.expect "robin login" r));
    Testbed.run bed;
    let robin = Option.get !robin_creds in
    let forged = ref false in
    let misencrypted = ref false in
    let spoofed_mutual = ref false in
    let stolen = ref None in
    let stolen_key = ref None in
    (* In-flight rewriting: first the victim's TGS_REQ, later its AP_REQ. *)
    Sim.Adversary.intercept bed.adv (fun pkt ->
        if pkt.Sim.Packet.dport = Kdc.default_port then begin
          match
            Messages.tgs_req_of_value
              (Wire.Encoding.decode profile.Profile.encoding pkt.Sim.Packet.payload)
          with
          | exception Wire.Codec.Decode_error _ -> Sim.Net.Deliver
          | req when Principal.equal req.t_server bed.file_principal -> (
              (* Step 1: flip the option, enclose robin's TGT. *)
              let modified =
                { req with
                  t_options = { req.t_options with enc_tkt_in_skey = true };
                  t_additional_ticket = Some robin.Client.ticket }
              in
              (* Step 2: stuff authorization data until the CRC matches the
                 value sealed in the victim's authenticator. *)
              match
                Crypto.Checksum.forge_to_match profile.Profile.checksum
                  ~original:(Messages.tgs_req_cleartext_fields req)
                  ~tampered_prefix:(Messages.tgs_req_cleartext_fields modified)
              with
              | None -> Sim.Net.Deliver (* collision-proof checksum: no forgery *)
              | Some filler ->
                  forged := true;
                  let modified =
                    { modified with
                      t_authz_data = Bytes.cat modified.t_authz_data filler }
                  in
                  Sim.Net.Replace
                    [ { pkt with
                        Sim.Packet.payload =
                          Wire.Encoding.encode profile.Profile.encoding
                            (Messages.tgs_req_to_value modified) } ])
          | _ -> Sim.Net.Deliver
        end
        else if pkt.Sim.Packet.dport = bed.file_port then begin
          match Frames.unwrap pkt.Sim.Packet.payload with
          | Some (k, payload) when k = Frames.ap_req -> (
              match
                Messages.ap_req_of_value
                  (Wire.Encoding.decode profile.Profile.encoding payload)
              with
              | exception Wire.Codec.Decode_error _ -> Sim.Net.Deliver
              | ap -> (
                  (* Step 3: the ticket is encrypted in robin's session key,
                     not the file server's. Unseal it. *)
                  match
                    Messages.open_msg profile ~key:robin.Client.session_key
                      ~tag:Messages.tag_ticket ap.r_ticket
                  with
                  | Error _ -> Sim.Net.Deliver
                  | Ok tv -> (
                      let ticket = Messages.ticket_of_value tv in
                      misencrypted := true;
                      let skey = ticket.Messages.session_key in
                      stolen_key := Some skey;
                      (* Step 4: spoof the mutual-authentication reply. *)
                      match
                        Messages.open_msg profile ~key:skey
                          ~tag:Messages.tag_authenticator ap.r_authenticator
                      with
                      | Error _ -> Sim.Net.Drop
                      | Ok av ->
                          let auth = Messages.authenticator_of_value av in
                          let rep =
                            Messages.seal_msg profile bed.rng ~key:skey
                              ~tag:Messages.tag_ap_rep_body
                              (Messages.ap_rep_body_to_value
                                 { Messages.ar_timestamp =
                                     auth.a_timestamp +. 1.0;
                                   ar_subkey_part = None; ar_seq_init = None })
                          in
                          spoofed_mutual := true;
                          Sim.Net.Replace
                            [ { Sim.Packet.src = Sim.Host.primary_ip bed.file_host;
                                sport = bed.file_port; dst = pkt.Sim.Packet.src;
                                dport = pkt.Sim.Packet.sport;
                                payload = Frames.wrap Frames.ap_ok rep;
                                uid = 0 } ])))
          | Some (k, payload) when k = Frames.priv -> (
              (* Step 5: the victim, convinced it reached the file server,
                 sends its sealed request; the enemy reads it. *)
              match !stolen_key with
              | None -> Sim.Net.Drop
              | Some skey ->
                  (* A draw whose value is unused: it keeps the attacker's
                     random stream as recorded. *)
                  ignore (Util.Rng.next_int64 bed.rng);
                  let session =
                    Session.make ~profile ~role:Session.Server_side ~key:skey
                      ~own_addr:(Sim.Host.primary_ip bed.file_host)
                      ~peer_addr:pkt.Sim.Packet.src ~send_seq:0 ~recv_seq:0
                  in
                  (match Krb_priv.open_ session ~now:(Sim.Net.now bed.net) payload with
                  | Ok data -> stolen := Some (Bytes.to_string data)
                  | Error _ -> ());
                  Sim.Net.Drop)
          | _ -> Sim.Net.Deliver
        end
        else Sim.Net.Deliver);
    (* The oblivious victim: log in, get a file-server ticket, authenticate
       with mutual auth, send a confidential write. *)
    Client.login bed.victim ~password:bed.victim_password (fun r ->
        ignore (Testbed.expect "victim login" r);
        Client.get_ticket bed.victim ~service:bed.file_principal (fun r ->
            match r with
            | Error _ -> () (* the KDC balked at the tampered request *)
            | Ok creds ->
                Client.ap_exchange bed.victim creds ~mutual:true
                  ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:bed.file_port
                  (fun r ->
                    match r with
                    | Error _ -> ()
                    | Ok chan ->
                        Client.call_priv bed.victim chan
                          (Bytes.of_string secret_request) ~k:(fun _ -> ()))));
    Testbed.run bed;
    { applicable = true; checksum_forged = !forged;
      kdc_issued_misencrypted_ticket = !misencrypted;
      mutual_auth_spoofed = !spoofed_mutual; stolen_plaintext = !stolen }
  end

let outcome r =
  if not r.applicable then Outcome.not_applicable "ENC-TKT-IN-SKEY option disabled"
  else
    match r.stolen_plaintext with
    | Some text ->
        Outcome.broken
          "CRC forged, ticket re-keyed to the enemy, mutual auth spoofed; read: %S" text
    | None ->
        if not r.checksum_forged then
          Outcome.defended "collision-proof checksum: request could not be tampered"
        else if not r.kdc_issued_misencrypted_ticket then
          Outcome.defended "KDC refused the tampered request (cname check)"
        else Outcome.defended "attack fizzled after ticket issuance"
