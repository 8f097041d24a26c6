(* Inter-realm authentication (and its fragility): a user of realm ATHENA
   reaches a database service in realm LEAF through the intermediate realm
   ENG, hierarchically. Then the compromised intermediate forges a path.

     dune exec examples/cross_realm.exe *)

open Kerberos

let () =
  let profile = Profile.v5_draft3 in
  let engine = Sim.Engine.create () in
  let net = Sim.Net.create engine in
  let quad = Sim.Addr.of_quad in
  let mk name ip = Sim.Host.create ~name ~ips:[ ip ] () in
  let kdc_a = mk "kdc-athena" (quad 10 0 0 1) in
  let kdc_e = mk "kdc-eng" (quad 10 1 0 1) in
  let kdc_l = mk "kdc-leaf" (quad 10 2 0 1) in
  let ws = mk "ws" (quad 10 0 0 10) in
  let srv = mk "leafdb" (quad 10 2 0 20) in
  List.iter (Sim.Net.attach net) [ kdc_a; kdc_e; kdc_l; ws; srv ];
  let rng = Util.Rng.create 99L in
  let db_a = Kdb.create () and db_e = Kdb.create () and db_l = Kdb.create () in
  List.iter
    (fun (db, realm) ->
      Kdb.add_service db (Principal.tgs ~realm) ~key:(Crypto.Des.random_key rng))
    [ (db_a, "ATHENA"); (db_e, "ENG"); (db_l, "LEAF") ];
  Kdb.add_user db_a (Principal.user ~realm:"ATHENA" "pat") ~password:"pw.of.pat";
  (* Cross-realm keys along the hierarchy: ATHENA<->ENG, ENG<->LEAF. *)
  let k_ae = Crypto.Des.random_key rng and k_el = Crypto.Des.random_key rng in
  Kdb.add_cross_realm db_a (Principal.cross_realm_tgs ~local:"ATHENA" ~remote:"ENG") ~key:k_ae;
  Kdb.add_cross_realm db_e (Principal.cross_realm_tgs ~local:"ATHENA" ~remote:"ENG") ~key:k_ae;
  Kdb.add_cross_realm db_e (Principal.cross_realm_tgs ~local:"ENG" ~remote:"LEAF") ~key:k_el;
  Kdb.add_cross_realm db_l (Principal.cross_realm_tgs ~local:"ENG" ~remote:"LEAF") ~key:k_el;
  let svc = Principal.service ~realm:"LEAF" "db" ~host:"leafdb" in
  let svc_key = Crypto.Des.random_key rng in
  Kdb.add_service db_l svc ~key:svc_key;
  let kdc_athena = Kdc.create ~realm:"ATHENA" ~profile ~lifetime:3600.0 db_a in
  let kdc_eng = Kdc.create ~realm:"ENG" ~profile ~lifetime:3600.0 db_e in
  let kdc_leaf = Kdc.create ~realm:"LEAF" ~profile ~lifetime:3600.0 db_l in
  (* Static routing tables — the paper asks where these come from and how
     they could be authenticated; here they are just config. *)
  Kdc.add_realm_route kdc_athena ~remote:"LEAF" ~next_hop:"ENG";
  Kdc.add_realm_route kdc_athena ~remote:"ENG" ~next_hop:"ENG";
  Kdc.add_realm_route kdc_eng ~remote:"LEAF" ~next_hop:"LEAF";
  Kdc.install net kdc_a kdc_athena ();
  Kdc.install net kdc_e kdc_eng ();
  Kdc.install net kdc_l kdc_leaf ();
  let _ap =
    Apserver.install net srv ~profile
      ~config:{ Apserver.default_config with trusted_transit = [ "ATHENA"; "ENG" ] }
      ~principal:svc ~key:svc_key ~port:700
      ~handler:(fun ~client data ->
        Some
          (Bytes.of_string
             (Printf.sprintf "row for %s: %s" (Principal.to_string client)
                (Bytes.to_string data))))
      ()
  in
  let pat =
    Client.create net ws ~profile
      ~kdcs:
        [ ("ATHENA", Sim.Host.primary_ip kdc_a); ("ENG", Sim.Host.primary_ip kdc_e);
          ("LEAF", Sim.Host.primary_ip kdc_l) ]
      (Principal.user ~realm:"ATHENA" "pat")
  in
  Client.login pat ~password:"pw.of.pat" (function
    | Error e -> failwith e
    | Ok _ ->
        print_endline "pat@ATHENA logged in; asking for db@LEAF (two TGS hops away)";
        Client.get_ticket pat ~service:svc (function
          | Error e -> failwith ("cross-realm ticket: " ^ e)
          | Ok creds ->
              print_endline "ticket obtained via ATHENA -> ENG -> LEAF referrals";
              Client.ap_exchange pat creds ~dst:(Sim.Host.primary_ip srv) ~dport:700
                (function
                | Error e -> failwith ("ap: " ^ e)
                | Ok chan ->
                    Client.call_priv pat chan (Bytes.of_string "SELECT 1") ~k:(function
                      | Error e -> failwith e
                      | Ok data -> Printf.printf "reply: %s\n" (Bytes.to_string data)))));
  Sim.Engine.run engine;
  print_endline "";
  print_endline "Now the dark side: ENG is compromised (E9).";
  let r = Attacks.Realm_spoof.run ~profile () in
  Printf.printf "transit forgery accepted by a server trusting only ATHENA: %b\n"
    r.transit_forgery_accepted;
  Printf.printf "same forgery with key-based transit verification at the KDC: %b\n"
    r.transit_forgery_with_verification
