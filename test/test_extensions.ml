(* Tests for the extension features: the credential forwarder (footnote 9 /
   "Scope of Tickets"), hierarchical realm routing, KDC rate limiting, and
   the time/authentication bootstrap circularity. *)

open Kerberos

(* ------------------------------------------------------------------ *)
(* Credential forwarder                                                *)
(* ------------------------------------------------------------------ *)

let forwarder_moves_addressless_tickets () =
  (* V5 (no addresses in tickets): the forwarder daemon plus KRB_PRIV is a
     complete forwarding mechanism; no flag bits involved. *)
  let profile = { Profile.v5_draft3 with Profile.allow_forwarding = false } in
  let bed = Attacks.Testbed.make ~profile () in
  let dest = Sim.Host.create ~name:"remote" ~ips:[ Sim.Addr.of_quad 10 0 0 70 ] () in
  Sim.Net.attach bed.net dest;
  let fwd_principal = Principal.service ~realm:"ATHENA" "fwd" ~host:"remote" in
  let fwd_key = Crypto.Des.random_key bed.rng in
  Kdb.add_service bed.db fwd_principal ~key:fwd_key;
  let daemon =
    Services.Forwarder.install bed.net dest ~profile ~principal:fwd_principal
      ~key:fwd_key ~port:754
  in
  (* pat logs in on the workstation and ships the TGT to the remote host. *)
  Client.login bed.victim ~password:bed.victim_password (fun r ->
      let tgt = Attacks.Testbed.expect "login" r in
      Client.get_ticket bed.victim ~service:fwd_principal (fun r ->
          let creds = Attacks.Testbed.expect "fwd ticket" r in
          Client.ap_exchange bed.victim creds ~dst:(Sim.Host.primary_ip dest)
            ~dport:754 (fun r ->
              let chan = Attacks.Testbed.expect "fwd ap" r in
              Services.Forwarder.forward_credentials bed.victim chan tgt
                ~k:(fun r -> ignore (Attacks.Testbed.expect "forward" r)))));
  Attacks.Testbed.run bed;
  Alcotest.(check int) "daemon received" 1 (Services.Forwarder.received_count daemon);
  (* A process on the remote host picks the credentials up and uses them. *)
  let pat_principal = Principal.user ~realm:"ATHENA" "pat" in
  let moved =
    match Services.Forwarder.pick_up dest ~principal:pat_principal with
    | Some c -> c
    | None -> Alcotest.fail "nothing in the destination cache"
  in
  let remote_client =
    Client.create ~seed:71L bed.net dest ~profile
      ~kdcs:[ ("ATHENA", Attacks.Testbed.kdc_addr bed) ]
      pat_principal
  in
  Client.adopt_tgt remote_client moved;
  Services.Fileserver.write_file bed.file ~owner:"pat@ATHENA" ~path:"/f"
    (Bytes.of_string "x");
  let worked = ref false in
  Client.get_ticket remote_client ~service:bed.file_principal (fun r ->
      let creds = Attacks.Testbed.expect "remote ticket" r in
      Client.ap_exchange remote_client creds ~dst:(Sim.Host.primary_ip bed.file_host)
        ~dport:bed.file_port (fun r ->
          let chan = Attacks.Testbed.expect "remote ap" r in
          Client.call_priv remote_client chan (Bytes.of_string "READ /f") ~k:(fun r ->
              worked := Result.is_ok r)));
  Attacks.Testbed.run bed;
  Alcotest.(check bool) "forwarded creds work from the new host" true !worked

let forwarder_useless_for_v4_tickets () =
  (* V4's address-bound TGT dies at the remote TGS: "hosts with more than
     one IP address ... cannot live with this limitation" — and neither can
     forwarding. *)
  let profile = Profile.v4 in
  let bed = Attacks.Testbed.make ~profile () in
  let dest = Sim.Host.create ~name:"remote" ~ips:[ Sim.Addr.of_quad 10 0 0 70 ] () in
  Sim.Net.attach bed.net dest;
  Attacks.Testbed.login_victim bed;
  let tgt = Option.get (Client.tgt bed.victim) in
  (* Skip the transfer (it would work; the failure is at use time). *)
  let remote_client =
    Client.create ~seed:72L bed.net dest ~profile
      ~kdcs:[ ("ATHENA", Attacks.Testbed.kdc_addr bed) ]
      (Principal.user ~realm:"ATHENA" "pat")
  in
  Client.adopt_tgt remote_client tgt;
  let refused = ref None in
  Client.get_ticket remote_client ~service:bed.file_principal (fun r -> refused := Some r);
  Attacks.Testbed.run bed;
  match !refused with
  | Some (Error e) ->
      Alcotest.(check bool) ("address bound: " ^ e) true
        (Astring.String.is_infix ~affix:"address" e)
  | Some (Ok _) -> Alcotest.fail "v4 ticket worked from the wrong address"
  | None -> Alcotest.fail "stalled"

let suite_forwarder =
  [ Alcotest.test_case "moves address-free tickets" `Quick forwarder_moves_addressless_tickets;
    Alcotest.test_case "v4 tickets bound to the old host" `Quick forwarder_useless_for_v4_tickets ]

(* ------------------------------------------------------------------ *)
(* Realm routing                                                       *)
(* ------------------------------------------------------------------ *)

let routing_basics () =
  let known = [ "MIT"; "CS.MIT"; "EE.MIT"; "THEORY.CS.MIT" ] in
  Alcotest.(check (option string)) "parent" (Some "CS.MIT")
    (Realm_routing.parent "THEORY.CS.MIT");
  Alcotest.(check (list string)) "ancestors" [ "CS.MIT"; "MIT" ]
    (Realm_routing.ancestors "THEORY.CS.MIT");
  Alcotest.(check bool) "descendant" true
    (Realm_routing.is_descendant "THEORY.CS.MIT" ~of_:"MIT");
  (* Leaf to leaf: up first. *)
  Alcotest.(check (option string)) "up" (Some "MIT")
    (Realm_routing.next_hop ~local:"EE.MIT" ~target:"THEORY.CS.MIT" ~known);
  (* Root down: needs to know the child on the path. *)
  Alcotest.(check (option string)) "down" (Some "CS.MIT")
    (Realm_routing.next_hop ~local:"MIT" ~target:"THEORY.CS.MIT" ~known);
  (* The paper's point: a parent ignorant of a grandchild cannot route. *)
  Alcotest.(check (option string)) "unknown grandchild unroutable" None
    (Realm_routing.next_hop ~local:"MIT" ~target:"THEORY.CS.MIT" ~known:[ "MIT"; "EE.MIT" ])

let routing_prop =
  (* In a random full hierarchy, following next_hop always terminates at
     the target. *)
  QCheck.Test.make ~name:"next_hop chains reach the target" ~count:200
    QCheck.(pair (int_bound 25) (int_bound 25))
    (fun (a, b) ->
      (* A fixed two-level tree: ROOT, C0..C4, G<i>.C<j>. *)
      let children = List.init 5 (fun i -> Printf.sprintf "C%d.ROOT" i) in
      let grands =
        List.concat_map
          (fun c -> List.init 5 (fun i -> Printf.sprintf "G%d.%s" i c))
          children
      in
      let known = ("ROOT" :: children) @ grands in
      let all = Array.of_list known in
      let src = all.(a mod Array.length all) and dst = all.(b mod Array.length all) in
      let rec walk cur fuel =
        if cur = dst then true
        else if fuel = 0 then false
        else
          match Realm_routing.next_hop ~local:cur ~target:dst ~known with
          | None -> false
          | Some hop -> walk hop (fuel - 1)
      in
      walk src 8)

let hierarchical_end_to_end () =
  (* Three live realms in a tree: ROOT with children CS.ROOT and EE.ROOT.
     A CS user reaches an EE service: up to ROOT, down to EE — the routes
     computed by Realm_routing, the keys pairwise parent/child. *)
  let profile = Kerberos.Profile.v5_draft3 in
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let quad = Sim.Addr.of_quad in
  let realms = [ "ROOT"; "CS.ROOT"; "EE.ROOT" ] in
  let rng = Util.Rng.create 0x7EE3L in
  let hosts =
    List.mapi
      (fun i r ->
        let h = Sim.Host.create ~name:("kdc-" ^ r) ~ips:[ quad 10 (3 + i) 0 1 ] () in
        Sim.Net.attach net h;
        (r, h))
      realms
  in
  let dbs = List.map (fun r -> (r, Kdb.create ())) realms in
  let db r = List.assoc r dbs in
  List.iter
    (fun r -> Kdb.add_service (db r) (Principal.tgs ~realm:r) ~key:(Crypto.Des.random_key rng))
    realms;
  (* Parent/child cross keys, installed on both sides. *)
  List.iter
    (fun child ->
      match Realm_routing.parent child with
      | None -> ()
      | Some parent ->
          let k_down = Crypto.Des.random_key rng in
          let k_up = Crypto.Des.random_key rng in
          (* parent -> child and child -> parent referral keys *)
          Kdb.add_cross_realm (db parent)
            (Principal.cross_realm_tgs ~local:parent ~remote:child)
            ~key:k_down;
          Kdb.add_cross_realm (db child)
            (Principal.cross_realm_tgs ~local:parent ~remote:child)
            ~key:k_down;
          Kdb.add_cross_realm (db child)
            (Principal.cross_realm_tgs ~local:child ~remote:parent)
            ~key:k_up;
          Kdb.add_cross_realm (db parent)
            (Principal.cross_realm_tgs ~local:child ~remote:parent)
            ~key:k_up)
    realms;
  Kdb.add_user (db "CS.ROOT") (Principal.user ~realm:"CS.ROOT" "pat") ~password:"pw";
  let svc = Principal.service ~realm:"EE.ROOT" "scope" ~host:"lab" in
  let svc_key = Crypto.Des.random_key rng in
  Kdb.add_service (db "EE.ROOT") svc ~key:svc_key;
  let kdcs =
    List.map
      (fun r ->
        let kdc = Kdc.create ~realm:r ~profile ~lifetime:3600.0 (db r) in
        Realm_routing.configure kdc ~known:realms ~targets:realms;
        Kdc.install net (List.assoc r hosts) kdc ();
        (r, Sim.Host.primary_ip (List.assoc r hosts)))
      realms
  in
  let lab = Sim.Host.create ~name:"lab" ~ips:[ quad 10 9 0 20 ] () in
  let ws = Sim.Host.create ~name:"ws-cs" ~ips:[ quad 10 9 0 10 ] () in
  Sim.Net.attach net lab;
  Sim.Net.attach net ws;
  let _ap =
    Apserver.install net lab ~profile
      ~config:
        { Apserver.default_config with trusted_transit = [ "CS.ROOT"; "ROOT" ] }
      ~principal:svc ~key:svc_key ~port:700
      ~handler:(fun ~client:_ _ -> Some (Bytes.of_string "trace data")) ()
  in
  let client =
    Client.create net ws ~profile ~kdcs (Principal.user ~realm:"CS.ROOT" "pat")
  in
  let got = ref None in
  Client.login client ~password:"pw" (fun r ->
      ignore (Result.get_ok r);
      Client.get_ticket client ~service:svc (fun r ->
          match r with
          | Error e -> got := Some (Error e)
          | Ok creds ->
              Client.ap_exchange client creds ~dst:(Sim.Host.primary_ip lab) ~dport:700
                (fun r ->
                  match r with
                  | Error e -> got := Some (Error e)
                  | Ok chan ->
                      Client.call_priv client chan (Bytes.of_string "PULL") ~k:(fun r ->
                          got := Some r))));
  Sim.Engine.run eng;
  match !got with
  | Some (Ok data) ->
      Alcotest.(check string) "three-realm path served" "trace data" (Bytes.to_string data)
  | Some (Error e) -> Alcotest.failf "hierarchical path failed: %s" e
  | None -> Alcotest.fail "stalled"

let suite_routing =
  [ Alcotest.test_case "basics" `Quick routing_basics;
    QCheck_alcotest.to_alcotest routing_prop;
    Alcotest.test_case "three-realm hierarchy end to end" `Quick hierarchical_end_to_end ]

(* ------------------------------------------------------------------ *)
(* KDC rate limiting                                                   *)
(* ------------------------------------------------------------------ *)

let rate_limit_caps_harvest () =
  let r =
    Attacks.Ticket_harvest.run ~n_users:20 ~dictionary_head:40 ~rate_limit:5
      ~profile:Profile.v4 ()
  in
  Alcotest.(check int) "only the cap's worth of replies" 5 r.replies_obtained;
  (* Partial mitigation only: what leaks is still crackable. *)
  Alcotest.(check bool) "still a breach in slow motion" true (r.replies_obtained > 0)

let rate_limit_spares_honest_users () =
  (* Distinct hosts are not collateral damage of one attacker's burst. *)
  let profile = Profile.v4 in
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let kdc_host = Sim.Host.create ~name:"kdc" ~ips:[ Sim.Addr.of_quad 10 0 0 1 ] () in
  let ws = Sim.Host.create ~name:"ws" ~ips:[ Sim.Addr.of_quad 10 0 0 10 ] () in
  Sim.Net.attach net kdc_host;
  Sim.Net.attach net ws;
  let db = Kdb.create () in
  let rng = Util.Rng.create 3L in
  Kdb.add_service db (Principal.tgs ~realm:"ATHENA") ~key:(Crypto.Des.random_key rng);
  Kdb.add_user db (Principal.user ~realm:"ATHENA" "pat") ~password:"pw";
  let kdc = Kdc.create ~rate_limit:3 ~realm:"ATHENA" ~profile ~lifetime:3600.0 db in
  Kdc.install net kdc_host kdc ();
  let ok = ref 0 in
  (* pat logs in twice from the workstation, under the limit. *)
  for i = 0 to 1 do
    let c =
      Client.create ~seed:(Int64.of_int i) net ws ~profile
        ~kdcs:[ ("ATHENA", Sim.Host.primary_ip kdc_host) ]
        (Principal.user ~realm:"ATHENA" "pat")
    in
    Client.login c ~password:"pw" (fun r -> if Result.is_ok r then incr ok)
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "both logins fine" 2 !ok;
  Alcotest.(check int) "nothing rate limited" 0 (Kdc.rate_limited_requests kdc)

let suite_rate =
  [ Alcotest.test_case "caps harvesting" `Quick rate_limit_caps_harvest;
    Alcotest.test_case "spares honest users" `Quick rate_limit_spares_honest_users ]

(* ------------------------------------------------------------------ *)
(* Time bootstrap circularity                                          *)
(* ------------------------------------------------------------------ *)

let bootstrap_matrix () =
  let r4 = Attacks.Time_bootstrap.run ~profile:Profile.v4 () in
  Alcotest.(check bool) "v4 wedged" false r4.clock_recovered;
  Alcotest.(check bool) "v4 honest clients locked out" true r4.honest_clients_locked_out;
  Alcotest.(check bool) "v4 never reached the time service" false
    r4.could_reach_time_service;
  let rh = Attacks.Time_bootstrap.run ~profile:Profile.hardened () in
  Alcotest.(check bool) "hardened recovered" true rh.clock_recovered;
  Alcotest.(check bool) "hardened reached the service clock-free" true
    rh.could_reach_time_service

let suite_bootstrap = [ Alcotest.test_case "wedged vs clock-free recovery" `Quick bootstrap_matrix ]

(* ------------------------------------------------------------------ *)
(* AS-issued service tickets                                           *)
(* ------------------------------------------------------------------ *)

let direct_service_ticket () =
  let profile = Profile.v4 in
  let bed = Attacks.Testbed.make ~profile () in
  Services.Fileserver.write_file bed.file ~owner:"pat@ATHENA" ~path:"/x"
    (Bytes.of_string "direct");
  let got = ref None in
  Client.login bed.victim ~service:bed.file_principal ~password:bed.victim_password
    (fun r ->
      let creds = Attacks.Testbed.expect "direct ticket" r in
      Client.ap_exchange bed.victim creds ~dst:(Sim.Host.primary_ip bed.file_host)
        ~dport:bed.file_port (fun r ->
          let chan = Attacks.Testbed.expect "ap" r in
          Client.call_priv bed.victim chan (Bytes.of_string "READ /x") ~k:(fun r ->
              got := Some r)));
  Attacks.Testbed.run bed;
  (match !got with
  | Some (Ok data) -> Alcotest.(check string) "read" "direct" (Bytes.to_string data)
  | _ -> Alcotest.fail "direct service ticket flow failed");
  Alcotest.(check bool) "no TGT installed" true (Client.tgt bed.victim = None)

let suite_direct = [ Alcotest.test_case "AS issues service tickets" `Quick direct_service_ticket ]

let () =
  Alcotest.run "extensions"
    [ ("forwarder", suite_forwarder); ("realm-routing", suite_routing);
      ("rate-limit", suite_rate); ("time-bootstrap", suite_bootstrap);
      ("direct-tickets", suite_direct) ]
