open Kerberos

type result = {
  population : int;
  weak_users : int;
  replies_recorded : int;
  cracked : (string * string) list;
  guesses_tried : int;
}

let candidates ~head =
  let words =
    Array.to_list (Array.sub Workloads.Passwords.dictionary 0
                     (min head (Array.length Workloads.Passwords.dictionary)))
  in
  List.concat_map
    (fun w ->
      (w :: String.capitalize_ascii w :: List.init 10 (fun d -> w ^ string_of_int d)))
    words

let try_crack ~profile ~candidates ?challenge ?dh_key ~sealed () =
  (* A guess is confirmed when the derived key opens the recorded reply:
     valid padding, valid checksum (Der), parseable body. *)
  List.find_opt
    (fun pw ->
      let base = Crypto.Str2key.derive pw in
      let respond r =
        Crypto.Des.fix_parity (Crypto.Des.encrypt_block (Crypto.Des.schedule base) r)
      in
      let key =
        match (challenge, dh_key) with
        | Some r, None -> respond r
        | Some r, Some kdh ->
            (* Active attacker against the composed scheme: it computed the
               challenge response from the guess and knows its own DH
               contribution. *)
            Crypto.Prf.tag_key ~tag:"dh-login" (Util.Bytesutil.xor (respond r) kdh)
        | None, Some kdh ->
            (* Active attacker who supplied its own exponential: it knows
               the DH contribution and can still test password guesses. *)
            Crypto.Prf.tag_key ~tag:"dh-login" (Util.Bytesutil.xor base kdh)
        | None, None -> base
      in
      match Messages.open_msg profile ~key ~tag:Messages.tag_as_rep_body sealed with
      | Ok v -> (
          match
            Messages.rep_body_of_value ~tag:Messages.tag_as_rep_body
              profile.Profile.encoding v
          with
          | _ -> true
          | exception Wire.Codec.Decode_error _ -> false)
      | Error _ -> false)
    candidates

let run ?(seed = 0xE3L) ?(n_users = 25) ?(weak_fraction = 0.5) ?(dictionary_head = 80)
    ~profile () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let kdc_host = Sim.Host.create ~name:"kerberos" ~ips:[ Sim.Addr.of_quad 10 0 0 1 ] () in
  let ws = Sim.Host.create ~name:"lab-ws" ~ips:[ Sim.Addr.of_quad 10 0 0 30 ] () in
  Sim.Net.attach net kdc_host;
  Sim.Net.attach net ws;
  let db = Kdb.create () in
  let rng = Util.Rng.create seed in
  Kdb.add_service db (Principal.tgs ~realm:"ATHENA") ~key:(Crypto.Des.random_key rng);
  let users = Workloads.Passwords.population rng ~n:n_users ~weak_fraction in
  List.iter
    (fun u ->
      Kdb.add_user db (Principal.user ~realm:"ATHENA" u.Workloads.Passwords.name)
        ~password:u.Workloads.Passwords.password)
    users;
  let kdc = Kdc.create ~realm:"ATHENA" ~profile ~lifetime:28800.0 db in
  Kdc.install net kdc_host kdc ();
  let adv = Sim.Adversary.attach net in
  Sim.Adversary.start_tap adv;
  (* The whole population logs in over two weeks ("half of all logins at
     MIT are used within a two-week period"); the wiretapper records. *)
  List.iteri
    (fun i u ->
      Sim.Engine.schedule eng ~at:(float_of_int i *. 37.0) (fun () ->
          let client =
            Client.create ~seed:(Int64.of_int (i + 100)) net ws ~profile
              ~kdcs:[ ("ATHENA", Sim.Host.primary_ip kdc_host) ]
              (Principal.user ~realm:"ATHENA" u.Workloads.Passwords.name)
          in
          Client.login client ~password:u.Workloads.Passwords.password (fun r ->
              ignore (Testbed.expect "population login" r))))
    users;
  Sim.Engine.run eng;
  (* Offline phase: pair each AS_REQ (cleartext, names the user) with the
     reply that came back to the same port, then run the dictionary. *)
  let packets = Sim.Adversary.captured adv in
  let requests =
    List.filter_map
      (fun p ->
        if p.Sim.Packet.dport = Kdc.default_port then
          match
            Messages.as_req_of_value
              (Wire.Encoding.decode profile.Profile.encoding p.Sim.Packet.payload)
          with
          | q -> Some (p.Sim.Packet.sport, q.Messages.q_client.Principal.name)
          | exception Wire.Codec.Decode_error _ -> None
        else None)
      packets
  in
  let replies =
    List.filter_map
      (fun p ->
        if p.Sim.Packet.sport = Kdc.default_port then
          match
            Messages.as_rep_of_value
              (Wire.Encoding.decode profile.Profile.encoding p.Sim.Packet.payload)
          with
          | rep -> Some (p.Sim.Packet.dport, (rep.Messages.p_sealed, rep.p_challenge))
          | exception Wire.Codec.Decode_error _ -> None
        else None)
      packets
  in
  let cands = candidates ~head:dictionary_head in
  let tried = ref 0 in
  let cracked =
    List.filter_map
      (fun (port, (sealed, challenge)) ->
        match List.assoc_opt port requests with
        | None -> None
        | Some user ->
            tried := !tried + List.length cands;
            Option.map
              (fun pw -> (user, pw))
              (try_crack ~profile ~candidates:cands ?challenge ~sealed ()))
      replies
  in
  { population = n_users;
    weak_users = List.length (List.filter (fun u -> u.Workloads.Passwords.is_weak) users);
    replies_recorded = List.length replies;
    cracked;
    guesses_tried = !tried }

let outcome r =
  if r.cracked <> [] then
    Outcome.broken "%d/%d passwords recovered from %d recorded logins"
      (List.length r.cracked) r.population r.replies_recorded
  else if r.replies_recorded = 0 then
    Outcome.defended "no useful login traffic recorded"
  else
    Outcome.defended
      "%d recorded logins, 0 cracked (reply not testable without the DH secret)"
      r.replies_recorded
