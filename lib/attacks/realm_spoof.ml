open Kerberos

type result = {
  forwarded_indistinguishable : bool option;
  transit_forgery_accepted : bool;
  transit_forgery_with_verification : bool;
}

(* --- Part 1: forwarded tickets carry no origin ---------------------- *)

let forwarding_demo ~seed ~profile =
  if not profile.Profile.allow_forwarding then None
  else begin
    let bed = Testbed.make ~seed ~server_config:{ Apserver.default_config with accept_forwarded = true } ~profile () in
    let trusted_host = Sim.Host.create ~name:"devbox" ~ips:[ Sim.Addr.of_quad 10 0 0 50 ] () in
    let rogue_host = Sim.Host.create ~name:"dorm-pc" ~ips:[ Sim.Addr.of_quad 10 0 0 51 ] () in
    Sim.Net.attach bed.net trusted_host;
    Sim.Net.attach bed.net rogue_host;
    let forwarded = ref None in
    Client.login bed.victim ~password:bed.victim_password (fun r ->
        ignore (Testbed.expect "login" r);
        (* Ask the TGS for a forwardable copy of the TGT (no address). *)
        Client.get_ticket bed.victim
          ~options:{ Messages.no_options with forward = true }
          ~service:(Principal.tgs ~realm:"ATHENA") (fun r ->
            forwarded := Some (Testbed.expect "forwarded tgt" r)));
    Testbed.run bed;
    let fwd = Option.get !forwarded in
    (* Use the forwarded credentials from both hosts; count acceptances. *)
    let use_from host seed' =
      let c =
        Client.create ~seed:seed' bed.net host ~profile
          ~kdcs:[ ("ATHENA", Testbed.kdc_addr bed) ]
          (Principal.user ~realm:"ATHENA" "pat")
      in
      Client.adopt_tgt c fwd;
      let ok = ref false in
      Client.get_ticket c ~service:bed.file_principal (fun r ->
          match r with
          | Error _ -> ()
          | Ok svc ->
              Client.ap_exchange c svc ~dst:(Sim.Host.primary_ip bed.file_host)
                ~dport:bed.file_port (fun r -> ok := Result.is_ok r));
      Testbed.run bed;
      !ok
    in
    let from_trusted = use_from trusted_host 31L in
    let from_rogue = use_from rogue_host 32L in
    (* Indistinguishable: the server accepted both (or refused both); it
       had no origin information to do otherwise. *)
    Some (from_trusted = from_rogue && from_trusted)
  end

(* --- Part 2: a compromised transit realm erases itself --------------- *)

let transit_demo ~seed ~profile ~verify_transit =
  let eng_ = Sim.Engine.create () in
  let net = Sim.Net.create eng_ in
  let quad = Sim.Addr.of_quad in
  let kdc_leaf_host = Sim.Host.create ~name:"kdc-leaf" ~ips:[ quad 10 2 0 1 ] () in
  let srv_host = Sim.Host.create ~name:"leafdb" ~ips:[ quad 10 2 0 20 ] () in
  let dark = Sim.Host.create ~name:"darkstar" ~ips:[ quad 10 0 0 66 ] () in
  List.iter (Sim.Net.attach net) [ kdc_leaf_host; srv_host; dark ];
  let rng = Util.Rng.create seed in
  let db_leaf = Kdb.create () in
  Kdb.add_service db_leaf (Principal.tgs ~realm:"LEAF") ~key:(Crypto.Des.random_key rng);
  (* The ENG<->LEAF cross-realm key. ENG is compromised: the attacker has it. *)
  let cross = Crypto.Des.random_key rng in
  Kdb.add_cross_realm db_leaf (Principal.cross_realm_tgs ~local:"ENG" ~remote:"LEAF")
    ~key:cross;
  let svc = Principal.service ~realm:"LEAF" "db" ~host:"leafdb" in
  let svc_key = Crypto.Des.random_key rng in
  Kdb.add_service db_leaf svc ~key:svc_key;
  let kdc_leaf = Kdc.create ~verify_transit ~realm:"LEAF" ~profile ~lifetime:3600.0 db_leaf in
  Kdc.install net kdc_leaf_host kdc_leaf ();
  (* The LEAF server's policy: transit through ATHENA only — it does not
     trust ENG. *)
  let ap =
    Apserver.install net srv_host ~profile
      ~config:{ Apserver.default_config with trusted_transit = [ "ATHENA" ] }
      ~principal:svc ~key:svc_key ~port:700
      ~handler:(fun ~client:_ _ -> Some (Bytes.of_string "classified row")) ()
  in
  (* Forge, as ENG, a cross-realm TGT for pat@ATHENA whose transited list
     pretends the request never passed through ENG. *)
  let forged_session_key = Crypto.Des.random_key rng in
  let forged_ticket =
    { Messages.server = Principal.tgs ~realm:"LEAF";
      client = Principal.user ~realm:"ATHENA" "pat"; addr = None; issued_at = 0.0;
      lifetime = 3600.0; session_key = forged_session_key; forwarded = false;
      dup_skey = false; transited = [ "ATHENA" ] }
  in
  let forged_blob =
    Messages.seal_msg profile rng ~key:cross ~tag:Messages.tag_ticket
      (Messages.ticket_to_value forged_ticket)
  in
  let masquerade =
    Client.create ~seed:41L net dark ~profile
      ~kdcs:[ ("LEAF", Sim.Host.primary_ip kdc_leaf_host) ]
      (Principal.user ~realm:"ATHENA" "pat")
  in
  Client.adopt_tgt masquerade
    { Client.service = Principal.tgs ~realm:"LEAF"; ticket = forged_blob;
      session_key = forged_session_key; issued_at = 0.0; lifetime = 3600.0 };
  let accepted = ref false in
  Client.get_ticket masquerade ~service:svc (fun r ->
      match r with
      | Error _ -> ()
      | Ok creds ->
          Client.ap_exchange masquerade creds ~dst:(Sim.Host.primary_ip srv_host)
            ~dport:700 (fun r -> accepted := Result.is_ok r));
  Sim.Engine.run eng_;
  ignore ap;
  !accepted

let run ?(seed = 0xE9L) ~profile () =
  let forwarded_indistinguishable = forwarding_demo ~seed ~profile in
  let transit_forgery_accepted = transit_demo ~seed ~profile ~verify_transit:false in
  let transit_forgery_with_verification =
    transit_demo ~seed:(Int64.add seed 1L) ~profile ~verify_transit:true
  in
  { forwarded_indistinguishable; transit_forgery_accepted;
    transit_forgery_with_verification }

let outcome r =
  if r.transit_forgery_accepted then
    Outcome.broken
      "compromised realm erased itself from the transit path%s%s"
      (if r.forwarded_indistinguishable = Some true then
         "; forwarded tickets from trusted and rogue hosts indistinguishable"
       else "")
      (if not r.transit_forgery_with_verification then
         " (key-based transit verification stops it)"
       else "")
  else Outcome.defended "transit forgery rejected"
