(* Decoder hardening: a corpus of real protocol packets is recorded off a
   live quickstart exchange, then 10,000 seeded byte-mutants of it (bit
   flips, truncations, extensions, splices) are pushed through every
   wire-facing decoder. The invariant is absolute: hostile bytes yield
   [Error] (or [None]), never an exception — the paper's adversary owns
   the network, so every raise reachable from a payload is a remote crash
   of the KDC or a server. *)

open Kerberos

let quad = Sim.Addr.of_quad

(* ------------------------------------------------------------------ *)
(* Corpus: every packet of a full login/ticket/AP/priv exchange, for    *)
(* both wire encodings.                                                 *)
(* ------------------------------------------------------------------ *)

let record_quickstart profile =
  let realm = "FUZZ" in
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let kdc_host = Sim.Host.create ~name:"kdc" ~ips:[ quad 10 9 0 1 ] () in
  let fs_host = Sim.Host.create ~name:"fs" ~ips:[ quad 10 9 0 2 ] () in
  let ws = Sim.Host.create ~name:"ws" ~ips:[ quad 10 9 0 10 ] () in
  List.iter (Sim.Net.attach net) [ kdc_host; fs_host; ws ];
  let corpus = ref [] in
  Sim.Net.add_tap net (fun pkt ->
      corpus := Bytes.copy pkt.Sim.Packet.payload :: !corpus);
  let rng = Util.Rng.create 0xF0CC5EEDL in
  let db = Kdb.create () in
  Kdb.add_service db (Principal.tgs ~realm) ~key:(Crypto.Des.random_key rng);
  let fileserv = Principal.service ~realm "fileserv" ~host:"fs" in
  let fs_key = Crypto.Des.random_key rng in
  Kdb.add_service db fileserv ~key:fs_key;
  Kdb.add_user db (Principal.user ~realm "pat") ~password:"fuzz.pw";
  Kdc.install net kdc_host (Kdc.create ~realm ~profile ~lifetime:28800.0 db) ();
  let fsrv =
    Services.Fileserver.install net fs_host ~profile ~principal:fileserv
      ~key:fs_key ~port:600
  in
  Services.Fileserver.write_file fsrv ~owner:"seed" ~path:"/readme"
    (Bytes.of_string "fuzz seed file");
  let c =
    Client.create ~seed:0xF1L net ws ~profile
      ~kdcs:[ (realm, Sim.Host.primary_ip kdc_host) ]
      (Principal.user ~realm "pat")
  in
  let done_ = ref false in
  Client.login c ~password:"fuzz.pw" (fun r ->
      ignore (Result.get_ok r);
      Client.get_ticket c ~service:fileserv (fun r ->
          let creds = Result.get_ok r in
          Client.ap_exchange c creds ~dst:(Sim.Host.primary_ip fs_host)
            ~dport:600 (fun r ->
              let chan = Result.get_ok r in
              Client.call_priv c chan (Bytes.of_string "READ /readme")
                ~k:(fun r ->
                  ignore (Result.get_ok r);
                  done_ := true))));
  Sim.Engine.run eng;
  assert !done_;
  !corpus

let corpus =
  lazy
    (Array.of_list
       (record_quickstart Profile.v4 @ record_quickstart Profile.v5_draft3))

(* ------------------------------------------------------------------ *)
(* Mutation engine (seeded, deterministic)                              *)
(* ------------------------------------------------------------------ *)

let mutate rng b =
  let b = Bytes.copy b in
  let n = Bytes.length b in
  match Util.Rng.int rng 5 with
  | 0 when n > 0 ->
      (* flip one bit *)
      let i = Util.Rng.int rng n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Util.Rng.int rng 8)));
      b
  | 1 when n > 0 ->
      (* truncate *)
      Bytes.sub b 0 (Util.Rng.int rng n)
  | 2 ->
      (* extend with junk *)
      Bytes.cat b (Util.Rng.bytes rng (1 + Util.Rng.int rng 16))
  | 3 when n > 0 ->
      (* splice a random run *)
      let i = Util.Rng.int rng n in
      let len = min (n - i) (1 + Util.Rng.int rng 8) in
      Bytes.blit (Util.Rng.bytes rng len) 0 b i len;
      b
  | _ when n > 1 ->
      (* double mutation: flip then truncate *)
      let i = Util.Rng.int rng n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
      Bytes.sub b 0 (1 + Util.Rng.int rng (n - 1))
  | _ -> b

(* A server-side session per priv mode, for the sealed-message openers. *)
let session_for profile =
  let rng = Util.Rng.create 0x5E55L in
  Session.make ~profile ~role:Session.Server_side
    ~key:(Crypto.Des.random_key rng) ~own_addr:(quad 10 9 0 2)
    ~peer_addr:(quad 10 9 0 10) ~send_seq:0 ~recv_seq:0

let sessions =
  lazy (List.map session_for [ Profile.v4; Profile.v5_draft3; Profile.hardened ])

(* ------------------------------------------------------------------ *)
(* The sweep                                                            *)
(* ------------------------------------------------------------------ *)

let mutants = 10_000

let fuzz_decoders_never_raise () =
  let corpus = Lazy.force corpus in
  let sessions = Lazy.force sessions in
  Alcotest.(check bool) "corpus recorded" true (Array.length corpus >= 10);
  let rng = Util.Rng.create 0xFADEDL in
  let oks = ref 0 and errors = ref 0 in
  let feed name f =
    match f () with
    | Ok _ -> incr oks
    | Error _ -> incr errors
    | exception e ->
        Alcotest.failf "%s raised %s — remote crash reachable from the wire"
          name (Printexc.to_string e)
  in
  for i = 1 to mutants do
    let m = mutate rng corpus.(Util.Rng.int rng (Array.length corpus)) in
    feed
      (Printf.sprintf "decode_result/v4-adhoc (mutant %d)" i)
      (fun () -> Wire.Encoding.decode_result Wire.Encoding.V4_adhoc m);
    feed
      (Printf.sprintf "decode_result/der-typed (mutant %d)" i)
      (fun () -> Wire.Encoding.decode_result Wire.Encoding.Der_typed m);
    feed
      (Printf.sprintf "frames/unwrap (mutant %d)" i)
      (fun () ->
        match Frames.unwrap m with Some _ -> Ok () | None -> Error ());
    List.iter
      (fun s ->
        feed
          (Printf.sprintf "krb_priv/%s (mutant %d)" s.Session.profile.Profile.name i)
          (fun () -> Krb_priv.open_ s ~now:0.0 m);
        feed
          (Printf.sprintf "krb_safe/%s (mutant %d)" s.Session.profile.Profile.name i)
          (fun () -> Krb_safe.open_ s ~now:0.0 m))
      sessions
  done;
  (* The sweep must actually have exercised both verdicts. *)
  Alcotest.(check bool) "some mutants decoded" true (!oks > 0);
  Alcotest.(check bool) "some mutants rejected" true (!errors > 0)

(* A recursion bomb must bounce off the nesting limit, not the native
   stack: 200 nested lists is far past the 64-level bound and far short
   of what would overflow, so getting [Error] back proves the limit (not
   luck) stopped it. *)
let depth_bomb_is_rejected () =
  let rec nest v n = if n = 0 then v else nest (Wire.Encoding.List [ v ]) (n - 1) in
  let bomb = nest (Wire.Encoding.Int 7L) 200 in
  List.iter
    (fun kind ->
      let b = Wire.Encoding.encode kind bomb in
      match Wire.Encoding.decode_result kind b with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.failf "%s accepted a 200-level nesting bomb"
            (Wire.Encoding.show_kind kind))
    [ Wire.Encoding.V4_adhoc; Wire.Encoding.Der_typed ];
  (* ...while legitimate nesting is untouched. *)
  let sane = nest (Wire.Encoding.Int 7L) 10 in
  List.iter
    (fun kind ->
      match Wire.Encoding.decode_result kind (Wire.Encoding.encode kind sane) with
      | Ok v -> Alcotest.(check bool) "roundtrip" true (v = sane)
      | Error e -> Alcotest.failf "10 levels rejected: %s" e)
    [ Wire.Encoding.V4_adhoc; Wire.Encoding.Der_typed ]

let oversized_is_rejected_up_front () =
  (* Just over the 1 MiB bound: rejected by length before any parsing. *)
  let huge = Bytes.make ((1 lsl 20) + 1) '\x03' in
  List.iter
    (fun kind ->
      match Wire.Encoding.decode_result kind huge with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "oversized message accepted")
    [ Wire.Encoding.V4_adhoc; Wire.Encoding.Der_typed ]

let ragged_ciphertext_is_garbled () =
  (* Lengths that are not a whole number of DES blocks — exactly what a
     fault-plane truncation produces — must come back [Garbled], not as
     an [Invalid_argument] escape from the block modes. *)
  let sessions = Lazy.force sessions in
  List.iter
    (fun s ->
      List.iter
        (fun len ->
          let ct = Bytes.make len '\x5a' in
          (match Krb_priv.open_ s ~now:0.0 ct with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "ragged ciphertext accepted");
          match Krb_safe.open_ s ~now:0.0 ct with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "ragged safe message accepted")
        [ 0; 1; 7; 9; 15; 63 ])
    sessions

(* Every session key and negotiation part a decoder reads, at each length
   from 0 to 16 but 8, in both encodings: the decoder must raise
   [Decode_error] and nothing else. An accepted short key would reach the
   key schedule or the negotiation XOR and abort the server there. *)
let key_material_is_length_checked () =
  let alice = Principal.user ~realm:"FUZZ" "alice" in
  let fs = Principal.service ~realm:"FUZZ" "fileserv" ~host:"fs" in
  let ticket session_key =
    Messages.ticket_to_value
      { Messages.server = fs; client = alice; addr = None; issued_at = 0.0;
        lifetime = 3600.0; session_key; forwarded = false; dup_skey = false;
        transited = [] }
  in
  let rep_body b_session_key =
    Messages.rep_body_to_value ~tag:Messages.tag_rep_body
      { Messages.b_session_key; b_nonce = 7L; b_server = fs; b_issued_at = 0.0;
        b_lifetime = 3600.0; b_ticket = Bytes.make 24 't' }
  in
  let authenticator part =
    Messages.authenticator_to_value
      { Messages.a_client = alice; a_addr = quad 10 9 0 10; a_timestamp = 0.0;
        a_req_cksum = None; a_ticket_cksum = None; a_service = None;
        a_seq_init = None; a_subkey_part = Some part }
  in
  let ap_rep_body part =
    Messages.ap_rep_body_to_value
      { Messages.ar_timestamp = 1.0; ar_subkey_part = Some part; ar_seq_init = None }
  in
  let challenge part =
    Messages.challenge_to_value
      { Messages.c_nonce = 7L; c_server_part = Some part; c_seq_init = None }
  in
  let challenge_resp part =
    Messages.challenge_resp_to_value
      { Messages.cr_nonce_f = 8L; cr_client_part = Some part; cr_seq_init = None }
  in
  (* Each decoder as [kind -> value -> unit]; only the reply body's reads
     the encoding. *)
  let any f _ v = ignore (f v) in
  let rep_body_of kind v =
    ignore (Messages.rep_body_of_value ~tag:Messages.tag_rep_body kind v)
  in
  let fields =
    [ ("ticket session_key", ticket, any Messages.ticket_of_value);
      ("rep_body b_session_key", rep_body, rep_body_of);
      ("authenticator a_subkey_part", authenticator, any Messages.authenticator_of_value);
      ("ap_rep_body ar_subkey_part", ap_rep_body, any Messages.ap_rep_body_of_value);
      ("challenge c_server_part", challenge, any Messages.challenge_of_value);
      ("challenge_resp cr_client_part", challenge_resp, any Messages.challenge_resp_of_value) ]
  in
  List.iter
    (fun kind ->
      List.iter
        (fun (name, to_value, of_value) ->
          for len = 0 to 16 do
            let what = Printf.sprintf "%s, %d bytes, %s" name len (Wire.Encoding.show_kind kind) in
            let wire = Wire.Encoding.encode kind (to_value (Bytes.make len 'k')) in
            match of_value kind (Wire.Encoding.decode kind wire) with
            | () -> if len <> 8 then Alcotest.failf "%s: accepted" what
            | exception Wire.Codec.Decode_error e ->
                if len = 8 then Alcotest.failf "%s: refused (%s)" what e
            | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
          done)
        fields)
    [ Wire.Encoding.V4_adhoc; Wire.Encoding.Der_typed ]

let () =
  Alcotest.run "wire-fuzz"
    [ ( "fuzz",
        [ Alcotest.test_case
            (Printf.sprintf "%d mutants, zero uncaught exceptions" mutants)
            `Quick fuzz_decoders_never_raise;
          Alcotest.test_case "depth bomb rejected" `Quick depth_bomb_is_rejected;
          Alcotest.test_case "oversized input rejected" `Quick
            oversized_is_rejected_up_front;
          Alcotest.test_case "ragged ciphertext garbled" `Quick
            ragged_ciphertext_is_garbled;
          Alcotest.test_case "key material length-checked" `Quick
            key_material_is_length_checked ] ) ]
