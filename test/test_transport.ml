(* The bytes-faithful transport plane: 4-byte length-prefixed framing
   reassembled across many MTU-sized segments under reordering and
   duplication, a length prefix torn across segment boundaries, honest
   datagram truncation at the MTU choke point (delivered short, rejected
   by the hardened decoders, counted), and the quickstart workload forced
   through the RESPONSE-TOO-BIG -> framed-TCP fallback end to end —
   byte-identically across two runs at one seed, and without resending a
   call whose deadline already fired. A stream that dies under a call
   fails the call, and a reply held past its connection is dropped:
   neither aborts the simulation. *)

open Kerberos

let quad = Sim.Addr.of_quad

let counter tel name =
  Telemetry.Metrics.value
    (Telemetry.Metrics.counter (Telemetry.Collector.metrics tel) name)

let mk_net ?(seed = 0xF4AEL) () =
  let tel = Telemetry.Collector.fresh_default () in
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create ~seed ~telemetry:tel eng in
  let a = Sim.Host.create ~name:"alpha" ~ips:[ quad 10 0 0 1 ] () in
  let b = Sim.Host.create ~name:"beta" ~ips:[ quad 10 0 0 2 ] () in
  Sim.Net.attach net a;
  Sim.Net.attach net b;
  (tel, eng, net, a, b)

(* ------------------------------------------------------------------ *)
(* Framing reassembly                                                  *)
(* ------------------------------------------------------------------ *)

(* One framed message chopped into a dozen segments by the MTU, with the
   fault plane reordering and duplicating segments underneath: the
   receiver's on_message must yield the message once, byte-identical,
   and a second message on the same stream must arrive intact after it
   (the frame boundary survives the churn). *)
let framed_across_segments () =
  let tel, eng, net, a, b = mk_net () in
  Sim.Net.set_mtu net (Some 100);
  let rng = Util.Rng.create 0x5E6E17L in
  let msg1 = Util.Rng.bytes rng 1000 in
  let msg2 = Util.Rng.bytes rng 333 in
  let got = ref [] in
  Sim.Tcpish.listen net b ~port:750
    ~on_accept:(fun conn ->
      Sim.Tcpish.on_message conn (fun m -> got := Bytes.copy m :: !got))
    ();
  let plane = Sim.Faults.create ~seed:0x0DDL () in
  ignore
  @@ Sim.Tcpish.connect net a ~dst:(Sim.Host.primary_ip b) ~dport:750
       ~on_connected:(fun conn ->
         (* Faults start after the handshake: from here every segment may
            be doubled and one in three is held back to arrive late. *)
         Sim.Faults.add_duplicate plane ~p:0.5 ();
         Sim.Faults.add_reorder plane ~hold:0.05 ~p:0.3 ();
         Sim.Net.attach_faults net plane;
         Sim.Tcpish.send_message conn msg1;
         Sim.Tcpish.send_message conn msg2)
       ();
  Sim.Engine.run eng;
  (match List.rev !got with
  | [ m1; m2 ] ->
      Alcotest.(check bool) "first message byte-identical" true
        (Bytes.equal m1 msg1);
      Alcotest.(check bool) "second message byte-identical" true
        (Bytes.equal m2 msg2)
  | l -> Alcotest.failf "expected 2 messages, got %d" (List.length l));
  Alcotest.(check bool) "the plane actually interfered" true
    (Sim.Faults.count plane Sim.Faults.Duplicate
     + Sim.Faults.count plane Sim.Faults.Reorder
     > 0);
  Alcotest.(check bool) "out-of-order segments were buffered" true
    (counter tel "tcpish.ooo_buffered" > 0)

(* MTU 16 leaves 3 stream bytes per segment (13 go to the segment
   header), so the 4-byte length prefix itself is torn across the first
   two segments. The framer must buffer the partial prefix and still
   deliver the message byte-identically. *)
let torn_length_prefix () =
  let _tel, eng, net, a, b = mk_net () in
  Sim.Net.set_mtu net (Some 16);
  let msg = Bytes.of_string "torn-prefix payload" in
  let got = ref [] in
  Sim.Tcpish.listen net b ~port:750
    ~on_accept:(fun conn ->
      Sim.Tcpish.on_message conn (fun m -> got := Bytes.copy m :: !got))
    ();
  ignore
  @@ Sim.Tcpish.connect net a ~dst:(Sim.Host.primary_ip b) ~dport:750
       ~on_connected:(fun conn -> Sim.Tcpish.send_message conn msg)
       ();
  Sim.Engine.run eng;
  match !got with
  | [ m ] ->
      Alcotest.(check bool) "reassembled through 3-byte segments" true
        (Bytes.equal m msg)
  | l -> Alcotest.failf "expected 1 message, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Honest truncation                                                   *)
(* ------------------------------------------------------------------ *)

(* A datagram above the path MTU is delivered short — exactly MTU bytes,
   a prefix of the original — and the loss is counted. The truncated
   prefix of a real encoded message must then fail to decode: short
   reads surface as a clean rejection, never as a different message. *)
let truncation_delivered_short_and_rejected () =
  let tel, eng, net, a, b = mk_net () in
  Sim.Net.set_mtu net (Some 64);
  let profile = Profile.v5_draft3 in
  let encoded =
    Messages.encode_msg profile ~tag:Messages.tag_err
      (Messages.err_to_value
         { Messages.e_code = Messages.err_generic;
           e_text = String.make 150 'x' })
  in
  Alcotest.(check bool) "test message exceeds the MTU" true
    (Bytes.length encoded > 64);
  let got = ref None in
  Sim.Net.listen net b ~port:99 (fun pkt ->
      got := Some (Bytes.copy pkt.Sim.Packet.payload));
  Sim.Net.send net ~sport:5000 ~dst:(Sim.Host.primary_ip b) ~dport:99 a encoded;
  Sim.Engine.run eng;
  (match !got with
  | None -> Alcotest.fail "truncated datagram was not delivered at all"
  | Some short ->
      Alcotest.(check int) "delivered exactly MTU bytes" 64 (Bytes.length short);
      Alcotest.(check bool) "delivered bytes are a prefix of the original" true
        (Bytes.equal short (Bytes.sub encoded 0 64));
      let rejected =
        match Messages.decode_msg profile ~tag:Messages.tag_err short with
        | _ -> false
        | exception _ -> true
      in
      Alcotest.(check bool) "hardened decoder rejects the stub" true rejected);
  Alcotest.(check int) "net.packets.truncated" 1
    (counter tel "net.packets.truncated");
  Alcotest.(check int) "net.dropped.truncated" 1
    (counter tel "net.dropped.truncated")

(* ------------------------------------------------------------------ *)
(* RESPONSE-TOO-BIG fallback, end to end                               *)
(* ------------------------------------------------------------------ *)

(* The quickstart realm with the path MTU pinned below the largest
   AS/TGS reply and a 1,200-byte /blob on the file server: login, then
   TGS and an AP exchange, then [on_chan] with the client and the open
   channel. *)
let mtu_realm ~on_chan =
  let tel = Telemetry.Collector.fresh_default () in
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create ~seed:0x7E57L ~telemetry:tel eng in
  Sim.Net.set_mtu net (Some 200);
  let kdc_host = Sim.Host.create ~name:"kdc" ~ips:[ quad 10 2 0 1 ] () in
  let fs_host = Sim.Host.create ~name:"fs" ~ips:[ quad 10 2 0 2 ] () in
  let ws = Sim.Host.create ~name:"ws" ~ips:[ quad 10 2 0 3 ] () in
  List.iter (Sim.Net.attach net) [ kdc_host; fs_host; ws ];
  let profile = Profile.v5_draft3 in
  let rng = Util.Rng.create 0xC4FEL in
  let db = Kdb.create () in
  Kdb.add_service db
    (Principal.tgs ~realm:"TPORT")
    ~key:(Crypto.Des.random_key rng);
  let user = Principal.user ~realm:"TPORT" "u" in
  Kdb.add_user db user ~password:"pw.u";
  let fileserv = Principal.service ~realm:"TPORT" "fileserv" ~host:"fs" in
  let fs_key = Crypto.Des.random_key rng in
  Kdb.add_service db fileserv ~key:fs_key;
  let kdc = Kdc.create ~realm:"TPORT" ~profile ~lifetime:28800.0 db in
  Kdc.install net kdc_host kdc ();
  let fsrv =
    Services.Fileserver.install net fs_host ~profile ~principal:fileserv
      ~key:fs_key ~port:600
  in
  Services.Fileserver.write_file fsrv ~owner:"seed" ~path:"/blob"
    (Bytes.make 1200 'b');
  let c =
    Client.create ~seed:0xB0BL ~password:"pw.u" net ws ~profile
      ~kdcs:[ ("TPORT", Sim.Host.primary_ip kdc_host) ]
      user
  in
  Client.login c ~password:"pw.u" (function
    | Error e -> Alcotest.failf "login under MTU: %s" e
    | Ok _ ->
        Client.get_ticket c ~service:fileserv (function
          | Error e -> Alcotest.failf "TGS under MTU: %s" e
          | Ok creds ->
              Client.ap_exchange c creds ~deadline:10.0
                ~dst:(Sim.Host.primary_ip fs_host) ~dport:600 (function
                | Error e -> Alcotest.failf "AP under MTU: %s" e
                | Ok chan -> on_chan c chan)));
  (tel, eng, fsrv)

(* A sealed read of the blob must complete — the KDC exchanges retried
   over the stream after the server's explicit refusal, the AP channel
   upgraded for the oversized sealed reply. Returns the full telemetry
   trace so the caller can compare two runs byte for byte. *)
let quickstart_under_mtu () =
  let read = ref None in
  let tel, eng, _ =
    mtu_realm ~on_chan:(fun c chan ->
        Client.call_priv c chan ~deadline:10.0 (Bytes.of_string "READ /blob")
          ~k:(fun r -> read := Some r))
  in
  Sim.Engine.run eng;
  (match !read with
  | Some (Ok data) ->
      Alcotest.(check int) "blob read whole over the fallback" 1200
        (Bytes.length data)
  | Some (Error e) -> Alcotest.failf "sealed read under MTU: %s" e
  | None -> Alcotest.fail "pipeline never completed");
  (tel, Telemetry.Collector.trace_jsonl tel)

let response_too_big_fallback () =
  let tel, _ = quickstart_under_mtu () in
  Alcotest.(check bool) "transport.fallback.response_too_big > 0" true
    (counter tel "transport.fallback.response_too_big" > 0);
  Alcotest.(check bool) "the stream leg actually carried calls" true
    (counter tel "transport.tcp.calls" > 0);
  Alcotest.(check int) "no datagram was honestly truncated" 0
    (counter tel "net.packets.truncated")

let fallback_deterministic () =
  let _, trace1 = quickstart_under_mtu () in
  let _, trace2 = quickstart_under_mtu () in
  Alcotest.(check bool) "two runs at one seed trace byte-identically" true
    (String.equal trace1 trace2)

(* A call whose deadline fires before the server's RESPONSE-TOO-BIG
   refusal lands is settled as timed out. The refusal still upgrades the
   channel to the stream, and the upgrade must not resend the timed-out
   request: the file server processes READ /blob once. *)
let timed_out_call_not_resent () =
  let result = ref None in
  let _, eng, fsrv =
    mtu_realm ~on_chan:(fun c chan ->
        Client.call_priv c chan ~deadline:0.006 (Bytes.of_string "READ /blob")
          ~k:(fun r -> result := Some r))
  in
  Sim.Engine.run eng;
  (match !result with
  | Some (Error "call timed out") -> ()
  | Some (Error e) -> Alcotest.failf "expected a timeout, got %s" e
  | Some (Ok _) -> Alcotest.fail "expected a timeout, got the blob"
  | None -> Alcotest.fail "call never settled");
  let reads =
    List.filter (fun (cmd, _) -> cmd = "READ /blob")
      (Services.Fileserver.request_log fsrv)
  in
  Alcotest.(check int) "READ /blob processed once" 1 (List.length reads)

(* ------------------------------------------------------------------ *)
(* Deadline across the fallback                                        *)
(* ------------------------------------------------------------------ *)

(* A server whose datagram endpoint answers RESPONSE-TOO-BIG instantly
   and whose stream endpoint accepts the connection but never replies:
   every call is forced into the fallback, where only the deadline can
   end it. *)
let refusal = Bytes.of_string "TOO-BIG"

let stalling_server net host ~port =
  Sim.Net.listen net host ~port (fun pkt ->
      Sim.Net.send net host ~sport:port ~dst:pkt.Sim.Packet.src
        ~dport:pkt.Sim.Packet.sport refusal);
  Sim.Tcpish.listen net host ~port:(Sim.Transport.tcp_port port)
    ~on_accept:(fun conn -> Sim.Tcpish.on_message conn (fun _ -> ()))
    ()

let classify b =
  if Bytes.equal b refusal then Sim.Transport.Response_too_big
  else Sim.Transport.Accept

(* The caller's deadline expires while the stream fallback is waiting:
   the fallback's timer must be clamped to what the datagram leg left of
   the budget, so on_timeout fires at the deadline — not a full
   tcp_timeout after the fallback began (the pre-clamp regression, which
   overshot to refusal-RTT + 2.0 s). *)
let deadline_expires_mid_fallback () =
  let tel, eng, net, a, b = mk_net () in
  stalling_server net b ~port:750;
  let fired = ref None in
  Sim.Transport.call net a ~timeout:1.0 ~retries:0 ~tcp_timeout:2.0
    ~deadline:0.5 ~classify ~dst:(Sim.Host.primary_ip b) ~dport:750
    (Bytes.of_string "req")
    ~on_reply:(fun _ -> Alcotest.fail "stalled server cannot reply")
    ~on_timeout:(fun () -> fired := Some (Sim.Engine.now eng));
  Sim.Engine.run eng;
  (match !fired with
  | None -> Alcotest.fail "call never timed out"
  | Some at ->
      Alcotest.(check bool)
        (Printf.sprintf "on_timeout at the deadline, not tcp_timeout (%.3fs)" at)
        true
        (at >= 0.5 && at < 0.6));
  Alcotest.(check bool) "the fallback was entered" true
    (counter tel "transport.fallback.response_too_big" > 0)

(* A fallback entered with the deadline already spent must fail
   immediately — counted, without opening a connection. *)
let deadline_spent_before_fallback () =
  let tel, eng, net, a, b = mk_net () in
  stalling_server net b ~port:750;
  let fired = ref false in
  Sim.Transport.call net a ~timeout:1.0 ~retries:0 ~tcp_timeout:2.0
    ~deadline:0.0 ~classify ~dst:(Sim.Host.primary_ip b) ~dport:750
    (Bytes.of_string "req")
    ~on_reply:(fun _ -> Alcotest.fail "stalled server cannot reply")
    ~on_timeout:(fun () -> fired := true);
  Sim.Engine.run eng;
  Alcotest.(check bool) "on_timeout fired" true !fired;
  Alcotest.(check bool) "exhaustion counted" true
    (counter tel "transport.deadline_exhausted" > 0);
  Alcotest.(check int) "no stream call was made" 0
    (counter tel "transport.tcp.calls")

(* ------------------------------------------------------------------ *)
(* A stream that dies under a channel                                  *)
(* ------------------------------------------------------------------ *)

(* The v5-draft3 testbed's victim with a channel to the file server
   pinned to the stream, opened and idle. *)
let victim_stream_channel () =
  let bed = Attacks.Testbed.make ~profile:Profile.v5_draft3 () in
  Attacks.Testbed.login_victim bed;
  let chan = ref None in
  Client.get_ticket bed.Attacks.Testbed.victim
    ~service:bed.Attacks.Testbed.file_principal (fun r ->
      Client.ap_exchange bed.Attacks.Testbed.victim
        (Attacks.Testbed.expect "file ticket" r)
        ~transport:`Tcp
        ~dst:(Sim.Host.primary_ip bed.Attacks.Testbed.file_host)
        ~dport:bed.Attacks.Testbed.file_port (fun r ->
          chan := Some (Attacks.Testbed.expect "AP over the stream" r)));
  Attacks.Testbed.run bed;
  match !chan with
  | Some chan -> (bed, chan)
  | None -> Alcotest.fail "the stream channel never opened"

(* One RST from the file server's stream port to the victim's, any
   sequence number: Tcpish checks none on a reset, so any host that can
   address the port can do this (and so can a bit flip). *)
let forge_reset bed =
  let victim = Attacks.Testbed.victim_addr bed in
  let fs = Sim.Host.primary_ip bed.Attacks.Testbed.file_host in
  let fs_stream = Sim.Transport.tcp_port bed.Attacks.Testbed.file_port in
  let victim_port =
    match
      Sim.Adversary.capture_matching bed.Attacks.Testbed.adv (fun p ->
          Sim.Addr.equal p.Sim.Packet.src victim && p.Sim.Packet.dport = fs_stream)
    with
    | p :: _ -> p.Sim.Packet.sport
    | [] -> Alcotest.fail "no stream from the victim on the wire"
  in
  Sim.Adversary.spoof bed.Attacks.Testbed.adv ~src:fs ~sport:fs_stream
    ~dst:victim ~dport:victim_port
    (Sim.Tcpish.encode_segment
       { Sim.Tcpish.syn = false; ack = false; fin = false; rst = true;
         seq = 0; ackno = 0; body = Bytes.empty })

let read_on bed chan got =
  Client.call_priv bed.Attacks.Testbed.victim chan (Bytes.of_string "READ /x")
    ~k:(fun r -> got := Some r)

let check_closed what got =
  match !got with
  | Some (Error "channel closed") -> ()
  | Some (Error e) -> Alcotest.failf "%s: expected channel closed, got %s" what e
  | Some (Ok _) -> Alcotest.failf "%s: a reply on a reset stream" what
  | None -> Alcotest.failf "%s: the call never settled" what

(* A reset lands on an idle channel: the next call gets an error at
   once instead of sending on the dead connection. *)
let reset_then_call () =
  let bed, chan = victim_stream_channel () in
  forge_reset bed;
  Attacks.Testbed.run bed;
  let got = ref None in
  read_on bed chan got;
  check_closed "call after the reset" got;
  let again = ref None in
  read_on bed chan again;
  check_closed "second call after the reset" again

(* The reset lands while a call with no deadline waits: the call fails
   instead of waiting forever. *)
let reset_under_waiting_call () =
  let bed, chan = victim_stream_channel () in
  let got = ref None in
  read_on bed chan got;
  forge_reset bed;
  Attacks.Testbed.run bed;
  check_closed "waiting call" got;
  Alcotest.(check int) "engine drained" 0
    (Sim.Engine.pending bed.Attacks.Testbed.eng)

(* A KDC that takes 3 s per request, on a path whose MTU pushes the AS
   request onto the stream: the client's 2 s stream budget aborts the
   connection, and the KDC's answer at 3 s finds it torn down. The reply
   is dropped and counted; the simulation runs on. *)
let held_kdc_reply_dropped () =
  let tel, eng, net, ws, kdc_host = mk_net () in
  Sim.Net.set_mtu net (Some 40);
  let profile = Profile.v5_draft3 in
  let rng = Util.Rng.create 0x4E1DL in
  let db = Kdb.create () in
  Kdb.add_service db (Principal.tgs ~realm:"HELD") ~key:(Crypto.Des.random_key rng);
  let user = Principal.user ~realm:"HELD" "u" in
  Kdb.add_user db user ~password:"pw.u";
  let kdc =
    Kdc.create
      ~admission:{ Kdc.default_admission with base_service_time = 3.0 }
      ~realm:"HELD" ~profile ~lifetime:28800.0 db
  in
  Kdc.install net kdc_host kdc ();
  let c =
    Client.create net ws ~profile
      ~kdcs:[ ("HELD", Sim.Host.primary_ip kdc_host) ]
      user
  in
  let got = ref None in
  Client.login c ~password:"pw.u" (fun r -> got := Some (Sim.Engine.now eng, r));
  Sim.Engine.run eng;
  (match !got with
  | Some (at, Error "KDC timeout") ->
      Alcotest.(check bool)
        (Printf.sprintf "settled by the stream budget (%.3fs)" at)
        true
        (at >= 2.0 && at < 2.1)
  | Some (_, Error e) -> Alcotest.failf "expected KDC timeout, got %s" e
  | Some (_, Ok _) -> Alcotest.fail "a 3 s KDC answered inside a 2 s budget"
  | None -> Alcotest.fail "login never settled");
  Alcotest.(check int) "the late reply was dropped and counted" 1
    (counter tel "transport.tcp.replies_dropped");
  Alcotest.(check int) "engine drained" 0 (Sim.Engine.pending eng)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "transport"
    [ ( "framing",
        [ Alcotest.test_case "reassembly across segments under churn" `Quick
            framed_across_segments;
          Alcotest.test_case "torn length prefix" `Quick torn_length_prefix ] );
      ( "truncation",
        [ Alcotest.test_case "delivered short, rejected, counted" `Quick
            truncation_delivered_short_and_rejected ] );
      ( "fallback",
        [ Alcotest.test_case "response-too-big forces the stream" `Quick
            response_too_big_fallback;
          Alcotest.test_case "deadline expires mid-fallback" `Quick
            deadline_expires_mid_fallback;
          Alcotest.test_case "deadline spent before fallback" `Quick
            deadline_spent_before_fallback;
          Alcotest.test_case "byte-identical at one seed" `Quick
            fallback_deterministic;
          Alcotest.test_case "timed-out call not resent on upgrade" `Quick
            timed_out_call_not_resent ] );
      ( "dead stream",
        [ Alcotest.test_case "forged reset fails the next call" `Quick
            reset_then_call;
          Alcotest.test_case "forged reset fails a waiting call" `Quick
            reset_under_waiting_call;
          Alcotest.test_case "held KDC reply dropped, not raised" `Quick
            held_kdc_reply_dropped ] ) ]
