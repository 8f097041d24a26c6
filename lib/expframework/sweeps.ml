open Kerberos

let replay_window_sweep () =
  let skews = [ 60.0; 300.0; 900.0 ] in
  let delays = [ 30.0; 240.0; 600.0 ] in
  List.concat_map
    (fun skew ->
      List.map
        (fun delay ->
          let r = Attacks.Replay_auth.run ~skew ~delay ~profile:Profile.v4 () in
          (skew, delay, r.Attacks.Replay_auth.accepted))
        delays)
    skews

let crack_sweep () =
  let pop_sizes = [ 10; 20; 40 ] in
  let v4_rows =
    List.map
      (fun n ->
        let r =
          Attacks.Password_guess.run ~seed:(Int64.of_int (7000 + n)) ~n_users:n
            ~dictionary_head:250 ~profile:Profile.v4 ()
        in
        ( "v4", n, r.Attacks.Password_guess.weak_users, r.replies_recorded,
          List.length r.cracked ))
      pop_sizes
  in
  let hardened_row =
    let r =
      Attacks.Password_guess.run ~n_users:10 ~dictionary_head:250
        ~profile:Profile.hardened ()
    in
    [ ( "hardened (DH)", 10, r.Attacks.Password_guess.weak_users, r.replies_recorded,
        List.length r.cracked ) ]
  in
  v4_rows @ hardened_row

let timed f =
  let t0 = Sys.time () in
  let v = f () in
  (v, Sys.time () -. t0)

let dlog_sweep ?(bits = [ 16; 20; 24; 28 ]) () =
  let rng = Util.Rng.create 0xD106L in
  List.concat_map
    (fun b ->
      let grp = Crypto.Dh.toy_group ~bits:b in
      let kp = Crypto.Dh.generate rng grp in
      let check = function
        | Some x ->
            Crypto.Bignum.equal
              (Crypto.Bignum.mod_pow ~base:grp.g ~exp:x ~modulus:grp.p)
              kp.public
        | None -> false
      in
      let bsgs, t_bsgs =
        timed (fun () -> Crypto.Dlog.baby_step_giant_step grp ~target:kp.public)
      in
      let rho, t_rho =
        timed (fun () ->
            let rec attempt n =
              if n = 0 then None
              else
                match Crypto.Dlog.pollard_rho rng grp ~target:kp.public with
                | Some x -> Some x
                | None -> attempt (n - 1)
            in
            attempt 5)
      in
      [ (b, "baby-step/giant-step", t_bsgs, check bsgs);
        (b, "pollard-rho", t_rho, check rho) ])
    bits

let modexp_cost () =
  let cases = [ (31, 100); (61, 100); (127, 50); (521, 5); (607, 3) ] in
  let rng = Util.Rng.create 0xD107L in
  List.map
    (fun (b, iters) ->
      let grp = Crypto.Dh.group ~bits:b in
      let exps = List.init iters (fun _ -> Crypto.Bignum.random_below rng grp.Crypto.Dh.p) in
      let (), t =
        timed (fun () ->
            List.iter
              (fun e ->
                ignore (Crypto.Bignum.mod_pow ~base:grp.Crypto.Dh.g ~exp:e ~modulus:grp.Crypto.Dh.p))
              exps)
      in
      (b, t /. float_of_int iters))
    cases

(* E14: message and state costs per profile. *)

let overhead () =
  let v4_cache =
    { Profile.v4 with
      Profile.name = "v4+cache";
      ap_auth = Profile.Timestamp { skew = 300.0; replay_cache = true } }
  in
  let profiles = [ Profile.v4; v4_cache; Profile.v5_draft3; Profile.hardened ] in
  List.map
    (fun profile ->
      let bed = Attacks.Testbed.make ~profile () in
      let start_events = Sim.Net.event_count bed.net in
      (* One canonical session: login, ticket, AP, three priv calls. *)
      let ap_start = ref 0 and ap_end = ref 0 in
      Client.login bed.victim ~password:bed.victim_password (fun r ->
          ignore (Attacks.Testbed.expect "login" r);
          Client.get_ticket bed.victim ~service:bed.file_principal (fun r ->
              let creds = Attacks.Testbed.expect "ticket" r in
              ap_start := Sim.Net.event_count bed.net;
              Client.ap_exchange bed.victim creds
                ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:bed.file_port
                (fun r ->
                  let chan = Attacks.Testbed.expect "ap" r in
                  ap_end := Sim.Net.event_count bed.net;
                  let rec go i =
                    if i < 3 then
                      Client.call_priv bed.victim chan
                        (Bytes.of_string (Printf.sprintf "READ /f%d" i))
                        ~k:(fun _ -> go (i + 1))
                  in
                  go 0)));
      Attacks.Testbed.run bed;
      (* What the file server keeps for the session it now holds. *)
      let server_words =
        let ap = Services.Fileserver.apserver bed.file in
        Apserver.peer_state_words ap / max 1 (Apserver.peer_state_size ap)
      in
      let sent_between a b =
        Sim.Net.events bed.net
        |> List.filteri (fun i _ -> i >= a && i < b)
        |> List.filter (function Sim.Net.Sent _ -> true | _ -> false)
        |> List.length
      in
      let total_msgs =
        Sim.Net.events bed.net
        |> List.filteri (fun i _ -> i >= start_events)
        |> List.filter (function Sim.Net.Sent _ -> true | _ -> false)
        |> List.length
      in
      let ap_msgs = sent_between !ap_start !ap_end in
      (* Cache growth: 25 distinct authentications against one server. *)
      let cache_entries =
        let bed2 = Attacks.Testbed.make ~seed:0xCAFEL ~profile () in
        for i = 0 to 24 do
          let c =
            Client.create ~seed:(Int64.of_int (900 + i)) bed2.net bed2.victim_ws
              ~profile
              ~kdcs:[ ("ATHENA", Attacks.Testbed.kdc_addr bed2) ]
              (Principal.user ~realm:"ATHENA" "pat")
          in
          Client.login c ~password:bed2.victim_password (fun r ->
              ignore (Attacks.Testbed.expect "login" r);
              Client.get_ticket c ~service:bed2.file_principal (fun r ->
                  let creds = Attacks.Testbed.expect "ticket" r in
                  Client.ap_exchange c creds ~dst:(Sim.Host.primary_ip bed2.file_host)
                    ~dport:bed2.file_port (fun r ->
                      ignore (Attacks.Testbed.expect "ap" r))));
          Attacks.Testbed.run bed2
        done;
        Apserver.replay_cache_size (Services.Fileserver.apserver bed2.file)
      in
      let datagram_ok =
        match profile.Profile.ap_auth with
        | Profile.Timestamp _ -> true
        | Profile.Challenge_response -> false
      in
      ( profile.Profile.name, total_msgs, ap_msgs, server_words, cache_entries,
        datagram_ok ))
    profiles
