open Kerberos

type stolen_tgt = {
  s_client : Principal.t;
  s_ticket : bytes;
  s_session_key : bytes;
}

(* Wait for a reply to surface on the tap, then hand it over. The reply was
   delivered (or dropped) at the spoofed host; we only ever see the copy in
   flight. *)
let await_tap (bed : Testbed.t) ~sport ~from_port ~k =
  let seen = List.length (Sim.Adversary.captured bed.adv) in
  let rec poll tries =
    Sim.Engine.schedule_after bed.eng 0.02 (fun () ->
        let fresh =
          Sim.Adversary.captured bed.adv
          |> List.filteri (fun i _ -> i >= seen)
          |> List.filter (fun p ->
                 p.Sim.Packet.dport = sport && p.Sim.Packet.sport = from_port)
        in
        match fresh with
        | pkt :: _ -> k (Some pkt)
        | [] -> if tries > 0 then poll (tries - 1) else k None)
  in
  poll 10

let mk_authenticator (bed : Testbed.t) ~spoof_addr ~client ?req_cksum () =
  { Messages.a_client = client; a_addr = spoof_addr;
    (* The attacker stamps the authenticator with true network time — it is
       impersonating a host whose clock it knows to be sane. *)
    a_timestamp = Sim.Net.now bed.net;
    a_req_cksum = req_cksum; a_ticket_cksum = None; a_service = None;
    a_seq_init = None; a_subkey_part = None }

let get_service_ticket (bed : Testbed.t) ~spoof_addr ~tgt ~service ~k =
  let profile = bed.profile in
  let nonce = Util.Rng.next_int64 bed.rng in
  let skeleton =
    { Messages.t_ap =
        { r_ticket = tgt.s_ticket; r_authenticator = Bytes.empty; r_mutual = false };
      t_server = service; t_nonce = nonce; t_options = Messages.no_options;
      t_additional_ticket = None; t_authz_data = Bytes.empty }
  in
  let req_cksum =
    match profile.Profile.encoding with
    | Wire.Encoding.V4_adhoc -> None
    | Wire.Encoding.Der_typed ->
        Some
          (Crypto.Checksum.compute profile.Profile.checksum ~key:tgt.s_session_key
             (Messages.tgs_req_cleartext_fields skeleton))
  in
  let auth = mk_authenticator bed ~spoof_addr ~client:tgt.s_client ?req_cksum () in
  let sealed_auth =
    Messages.seal_msg profile bed.rng ~key:tgt.s_session_key
      ~tag:Messages.tag_authenticator (Messages.authenticator_to_value auth)
  in
  let req =
    { skeleton with
      t_ap = { r_ticket = tgt.s_ticket; r_authenticator = sealed_auth; r_mutual = false } }
  in
  let sport = 48000 + Util.Rng.int bed.rng 1000 in
  Sim.Adversary.spoof bed.adv ~src:spoof_addr ~sport ~dst:(Testbed.kdc_addr bed)
    ~dport:Kdc.default_port
    (Wire.Encoding.encode profile.Profile.encoding (Messages.tgs_req_to_value req));
  await_tap bed ~sport ~from_port:Kdc.default_port ~k:(fun pkt ->
      match pkt with
      | None -> k (Error "no TGS reply observed on the tap")
      | Some pkt -> (
          match
            Messages.as_rep_of_value
              (Wire.Encoding.decode profile.Profile.encoding pkt.Sim.Packet.payload)
          with
          | exception Wire.Codec.Decode_error e -> k (Error ("TGS said: " ^ e))
          | rep -> (
              match
                Messages.open_msg profile ~key:tgt.s_session_key
                  ~tag:Messages.tag_rep_body rep.p_sealed
              with
              | Error e -> k (Error e)
              | Ok bv ->
                  let body =
                    Messages.rep_body_of_value ~tag:Messages.tag_rep_body
                      profile.Profile.encoding bv
                  in
                  let ticket =
                    if Bytes.length body.b_ticket > 0 then Some body.b_ticket
                    else rep.p_ticket
                  in
                  (match ticket with
                  | None -> k (Error "no ticket in reply")
                  | Some ticket ->
                      k
                        (Ok
                           { Client.service = body.b_server; ticket;
                             session_key = body.b_session_key;
                             issued_at = body.b_issued_at; lifetime = body.b_lifetime })))))

let call_priv_as (bed : Testbed.t) ~spoof_addr ~client ~(creds : Client.credentials)
    ~dst ~dport data ~k =
  let profile = bed.profile in
  match profile.Profile.ap_auth with
  | Profile.Challenge_response -> k (Error "spoofed client implements timestamp AP only")
  | Profile.Timestamp _ ->
      let auth = mk_authenticator bed ~spoof_addr ~client () in
      let sealed_auth =
        Messages.seal_msg profile bed.rng ~key:creds.session_key
          ~tag:Messages.tag_authenticator (Messages.authenticator_to_value auth)
      in
      let ap =
        { Messages.r_ticket = creds.ticket; r_authenticator = sealed_auth;
          r_mutual = false }
      in
      let sport = 49000 + Util.Rng.int bed.rng 1000 in
      Sim.Adversary.spoof bed.adv ~src:spoof_addr ~sport ~dst ~dport
        (Frames.wrap Frames.ap_req
           (Messages.encode_msg profile ~tag:Messages.tag_ap_req
              (Messages.ap_req_to_value ap)));
      (* The ap_ok goes to the spoofed host; we only need the session state
         we already know. Send the sealed request next. *)
      (* A draw whose value is unused: it keeps the attacker's random
         stream as recorded. *)
      ignore (Util.Rng.next_int64 bed.rng);
      let session =
        Session.make ~profile ~role:Session.Client_side
          ~key:creds.session_key ~own_addr:spoof_addr ~peer_addr:dst ~send_seq:0
          ~recv_seq:0
      in
      Sim.Engine.schedule_after bed.eng 0.05 (fun () ->
          Sim.Adversary.spoof bed.adv ~src:spoof_addr ~sport ~dst ~dport
            (Frames.wrap Frames.priv
               (Krb_priv.seal session ~now:(Sim.Net.now bed.net) data));
          await_tap bed ~sport ~from_port:dport ~k:(fun pkt ->
              match pkt with
              | None -> k (Error "no sealed reply observed")
              | Some pkt -> (
                  match Frames.unwrap pkt.Sim.Packet.payload with
                  | Some (kind, body) when kind = Frames.priv -> (
                      match Krb_priv.open_ session ~now:(Sim.Net.now bed.net) body with
                      | Ok plain -> k (Ok plain)
                      | Error e -> k (Error (Krb_priv.error_to_string e)))
                  | Some (kind, _) -> k (Error (Printf.sprintf "frame %d instead" kind))
                  | None -> k (Error "unframed reply"))))
