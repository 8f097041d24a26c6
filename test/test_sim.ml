(* Tests for the wire encodings, the event engine, the network, the mini
   transport, and the time service. *)

open Sim

(* ------------------------------------------------------------------ *)
(* Wire encodings                                                      *)
(* ------------------------------------------------------------------ *)

let gen_value =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [ map (fun s -> Wire.Encoding.Str s) (string_size (int_range 0 20));
            map (fun s -> Wire.Encoding.Raw (Bytes.of_string s)) (string_size (int_range 0 20));
            map (fun i -> Wire.Encoding.Int (Int64.of_int i)) int ]
      in
      if n = 0 then leaf
      else
        frequency
          [ (3, leaf);
            (1, map (fun l -> Wire.Encoding.List l) (list_size (int_range 0 4) (self (n / 2))));
            (* Message-type tags ride in DER context tags, capped at 30. *)
            (1, map2 (fun t v -> Wire.Encoding.Tagged (abs t mod 31, v)) int (self (n / 2))) ])

let rec strip_tags = function
  | Wire.Encoding.Tagged (_, v) -> strip_tags v
  | Wire.Encoding.List l -> Wire.Encoding.List (List.map strip_tags l)
  | v -> v

let encoding_roundtrip kind normalize =
  QCheck.Test.make ~name:("roundtrip " ^ Wire.Encoding.show_kind kind) ~count:500
    (QCheck.make gen_value) (fun v ->
      let decoded = Wire.Encoding.decode kind (Wire.Encoding.encode kind v) in
      decoded = normalize v)

let tag_discipline () =
  let open Wire.Encoding in
  let v = Tagged (7, List [ Str "ticket"; Int 1L ]) in
  (* Der: checked. *)
  let der = decode Der_typed (encode Der_typed v) in
  Alcotest.(check bool) "der accepts right tag" true
    (expect_tag Der_typed 7 der = List [ Str "ticket"; Int 1L ]);
  Alcotest.(check bool) "der rejects wrong tag" true
    (match expect_tag Der_typed 8 der with
    | exception Wire.Codec.Decode_error _ -> true
    | _ -> false);
  (* V4: the tag has evaporated; anything passes — the paper's complaint. *)
  let v4 = decode V4_adhoc (encode V4_adhoc v) in
  Alcotest.(check bool) "v4 cannot check" true
    (expect_tag V4_adhoc 8 v4 = List [ Str "ticket"; Int 1L ])

let cross_context_confusion () =
  (* A "ticket" and an "authenticator" with coincident field shapes encode
     identically under V4 and distinctly under Der. *)
  let open Wire.Encoding in
  let ticket = Tagged (1, List [ Str "rlogin"; Str "pat"; Int 42L ]) in
  let authenticator = Tagged (2, List [ Str "rlogin"; Str "pat"; Int 42L ]) in
  Alcotest.(check bool) "v4 confusable" true
    (Bytes.equal (encode V4_adhoc ticket) (encode V4_adhoc authenticator));
  Alcotest.(check bool) "der distinguishes" false
    (Bytes.equal (encode Der_typed ticket) (encode Der_typed authenticator))

(* --- the DER codec itself --- *)

let der_known_vectors () =
  let check name expected v =
    Alcotest.(check string) name expected (Util.Bytesutil.to_hex (Wire.Der.encode v))
  in
  check "INTEGER 0" "020100" (Wire.Der.Integer 0L);
  check "INTEGER 127" "02017f" (Wire.Der.Integer 127L);
  check "INTEGER 128" "02020080" (Wire.Der.Integer 128L);
  check "INTEGER -1" "0201ff" (Wire.Der.Integer (-1L));
  check "INTEGER -129" "0202ff7f" (Wire.Der.Integer (-129L));
  check "BOOLEAN true" "0101ff" (Wire.Der.Boolean true);
  check "empty OCTET STRING" "0400" (Wire.Der.Octets Bytes.empty);
  check "UTF8 'hi'" "0c026869" (Wire.Der.Utf8 "hi");
  check "SEQUENCE of two" "3006020101020102"
    (Wire.Der.Sequence [ Wire.Der.Integer 1L; Wire.Der.Integer 2L ]);
  check "[5] INTEGER 1" "a503020101" (Wire.Der.Context (5, Wire.Der.Integer 1L));
  (* long-form length: 130-byte octet string *)
  let long = Wire.Der.encode (Wire.Der.Octets (Bytes.make 130 '\x00')) in
  Alcotest.(check string) "long form header" "048182"
    (Util.Bytesutil.to_hex (Bytes.sub long 0 3))

let der_rejects_malformed () =
  let reject name hex_input =
    match Wire.Der.decode (Util.Bytesutil.of_hex hex_input) with
    | exception Wire.Codec.Decode_error _ -> ()
    | _ -> Alcotest.failf "%s: malformed input accepted" name
  in
  reject "non-minimal integer" "02020001";
  reject "non-minimal length" "04810548656c6c6f" |> ignore;
  reject "boolean bad value" "010142";
  reject "truncated content" "0405abcd";
  reject "trailing garbage" "020101ff";
  reject "indefinite length" "30800000";
  reject "unknown tag" "1f03616263"

let der_truncation_detected =
  (* "it is no longer possible for an attacker to truncate a message" —
     any block-aligned truncation of a DER message fails to parse. *)
  QCheck.Test.make ~name:"der detects truncation" ~count:300
    (QCheck.make gen_value) (fun v ->
      let b = Wire.Encoding.encode Wire.Encoding.Der_typed v in
      let n = Bytes.length b in
      QCheck.assume (n > 1);
      let cut = 1 + ((n - 1) / 2) in
      match Wire.Encoding.decode Wire.Encoding.Der_typed (Bytes.sub b 0 cut) with
      | exception Wire.Codec.Decode_error _ -> true
      | _ -> false)

let der_roundtrip_prop =
  let gen_der =
    let open QCheck.Gen in
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [ map (fun b -> Wire.Der.Boolean b) bool;
              map (fun i -> Wire.Der.Integer (Int64.of_int i)) int;
              map (fun s -> Wire.Der.Octets (Bytes.of_string s)) (string_size (int_range 0 40));
              map (fun s -> Wire.Der.Utf8 s) (string_size ~gen:printable (int_range 0 40)) ]
        in
        if n = 0 then leaf
        else
          frequency
            [ (3, leaf);
              (1, map (fun l -> Wire.Der.Sequence l) (list_size (int_range 0 4) (self (n / 2))));
              (1, map2 (fun t v -> Wire.Der.Context (t, v)) (int_range 0 30) (self (n / 2))) ])
  in
  QCheck.Test.make ~name:"der roundtrip" ~count:500 (QCheck.make gen_der) (fun v ->
      Wire.Der.decode (Wire.Der.encode v) = v)

let suite_encoding =
  [ QCheck_alcotest.to_alcotest (encoding_roundtrip Wire.Encoding.Der_typed (fun v -> v));
    QCheck_alcotest.to_alcotest (encoding_roundtrip Wire.Encoding.V4_adhoc strip_tags);
    Alcotest.test_case "tag discipline" `Quick tag_discipline;
    Alcotest.test_case "cross-context confusion" `Quick cross_context_confusion;
    Alcotest.test_case "der known vectors" `Quick der_known_vectors;
    Alcotest.test_case "der rejects malformed" `Quick der_rejects_malformed;
    QCheck_alcotest.to_alcotest der_truncation_detected;
    QCheck_alcotest.to_alcotest der_roundtrip_prop ]

(* --- the low-level codec --- *)

let codec_roundtrip_prop =
  QCheck.Test.make ~name:"codec writer/reader roundtrip" ~count:300
    QCheck.(
      quad (int_bound 0xff)
        (pair (int_bound 0xffff) (int_bound 0xffffffff))
        (string_of_size (QCheck.Gen.int_range 0 60))
        int)
    (fun (a, (b, c), s, i) ->
      let w = Wire.Codec.Writer.create () in
      Wire.Codec.Writer.u8 w a;
      Wire.Codec.Writer.u16 w b;
      Wire.Codec.Writer.u32 w c;
      Wire.Codec.Writer.lstring w s;
      Wire.Codec.Writer.i64 w (Int64.of_int i);
      let r = Wire.Codec.Reader.of_bytes (Wire.Codec.Writer.contents w) in
      let a' = Wire.Codec.Reader.u8 r in
      let b' = Wire.Codec.Reader.u16 r in
      let c' = Wire.Codec.Reader.u32 r in
      let s' = Wire.Codec.Reader.lstring r in
      let i' = Wire.Codec.Reader.i64 r in
      Wire.Codec.Reader.expect_end r;
      a = a' && b = b' && c = c' && s = s' && Int64.of_int i = i')

let codec_rejects_overrun () =
  let w = Wire.Codec.Writer.create () in
  Wire.Codec.Writer.u32 w 1000;
  (* Length prefix claims 1000 bytes; only 3 follow. *)
  Wire.Codec.Writer.raw w (Bytes.of_string "abc");
  let r = Wire.Codec.Reader.of_bytes (Wire.Codec.Writer.contents w) in
  match Wire.Codec.Reader.lbytes r with
  | exception Wire.Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "overrun accepted"

(* Big-endian and cut to the field width, exactly as byte-at-a-time
   writes would lay them out; the reader sees the unsigned value. *)
let codec_word_layout () =
  let w = Wire.Codec.Writer.create () in
  Wire.Codec.Writer.u16 w 0x1234;
  Wire.Codec.Writer.u16 w 0x5abcd;
  Wire.Codec.Writer.u32 w 0xdeadbeef;
  Wire.Codec.Writer.u32 w 0x1_0000_0102;
  let b = Wire.Codec.Writer.contents w in
  Alcotest.(check string) "bytes" "1234abcddeadbeef00000102"
    (Util.Bytesutil.to_hex b);
  let r = Wire.Codec.Reader.of_bytes b in
  Alcotest.(check int) "u16" 0x1234 (Wire.Codec.Reader.u16 r);
  Alcotest.(check int) "u16 cut" 0xabcd (Wire.Codec.Reader.u16 r);
  Alcotest.(check int) "u32 unsigned" 0xdeadbeef (Wire.Codec.Reader.u32 r);
  Alcotest.(check int) "u32 cut" 0x102 (Wire.Codec.Reader.u32 r);
  let short = Wire.Codec.Reader.of_bytes (Bytes.of_string "\x01\x02\x03") in
  match Wire.Codec.Reader.u32 short with
  | exception Wire.Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "u32 read past the end"

let suite_codec =
  [ QCheck_alcotest.to_alcotest codec_roundtrip_prop;
    Alcotest.test_case "u16/u32 word layout" `Quick codec_word_layout;
    Alcotest.test_case "length overrun rejected" `Quick codec_rejects_overrun ]

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let engine_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~at:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule eng ~at:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule eng ~at:2.0 (fun () -> log := "c" :: !log);
  (* same-time events fire in scheduling order *)
  Engine.run eng;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 2.0 (Engine.now eng)

let engine_cascade () =
  let eng = Engine.create () in
  let count = ref 0 in
  let rec tick n = if n > 0 then Engine.schedule_after eng 1.0 (fun () -> incr count; tick (n - 1)) in
  tick 10;
  Engine.run eng;
  Alcotest.(check int) "all fired" 10 !count;
  Alcotest.(check (float 1e-9)) "time advanced" 10.0 (Engine.now eng)

let engine_run_until () =
  let eng = Engine.create () in
  let fired = ref 0 in
  List.iter (fun t -> Engine.schedule eng ~at:t (fun () -> incr fired)) [ 1.0; 2.0; 3.0 ];
  Engine.run_until eng 2.5;
  Alcotest.(check int) "two fired" 2 !fired;
  Alcotest.(check int) "one pending" 1 (Engine.pending eng);
  Alcotest.(check (float 1e-9)) "clock at limit" 2.5 (Engine.now eng)

let engine_random_order =
  QCheck.Test.make ~name:"events fire in time order under random schedules" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (int_bound 1000))
    (fun times ->
      let eng = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun t ->
          let at = float_of_int t /. 10.0 in
          Engine.schedule eng ~at (fun () -> fired := at :: !fired))
        times;
      Engine.run eng;
      let got = List.rev !fired in
      got = List.sort compare got && List.length got = List.length times)

(* A NaN time compares false against everything: queued, it would fire
   first and set the clock to NaN. *)
let engine_rejects_nan () =
  let eng = Engine.create () in
  Alcotest.check_raises "schedule" (Invalid_argument "Engine.schedule: NaN time")
    (fun () -> Engine.schedule eng ~at:Float.nan ignore);
  Alcotest.check_raises "schedule_batch"
    (Invalid_argument "Engine.schedule_batch: NaN time") (fun () ->
      Engine.schedule_batch eng [ (1.0, ignore); (Float.nan, ignore) ]);
  Alcotest.(check int) "nothing queued" 0 (Engine.pending eng);
  let log = ref [] in
  Engine.schedule eng ~at:1.0 (fun () -> log := 1.0 :: !log);
  Engine.schedule eng ~at:0.5 (fun () -> log := 0.5 :: !log);
  Engine.run eng;
  Alcotest.(check (list (float 0.0))) "order" [ 0.5; 1.0 ] (List.rev !log);
  Alcotest.(check (float 0.0)) "clock" 1.0 (Engine.now eng)

(* +infinity would be queued and, once reached, leave the clock there:
   no later event could follow it. -infinity is in the past. *)
let engine_rejects_infinity () =
  let eng = Engine.create () in
  let refused what msg f = Alcotest.check_raises what (Invalid_argument msg) f in
  refused "schedule" "Engine.schedule: infinite time" (fun () ->
      Engine.schedule eng ~at:Float.infinity ignore);
  refused "schedule_after" "Engine.schedule: infinite time" (fun () ->
      Engine.schedule_after eng Float.infinity ignore);
  refused "arm" "Engine.schedule: infinite time" (fun () ->
      ignore (Engine.arm eng ~at:Float.infinity ignore : Engine.timer));
  refused "schedule_batch" "Engine.schedule_batch: infinite time" (fun () ->
      Engine.schedule_batch eng [ (1.0, ignore); (Float.infinity, ignore) ]);
  refused "minus infinity" "Engine.schedule: event in the past" (fun () ->
      Engine.schedule eng ~at:Float.neg_infinity ignore);
  Alcotest.(check int) "nothing queued" 0 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check (float 0.0)) "clock" 0.0 (Engine.now eng)

let suite_engine =
  [ Alcotest.test_case "NaN times rejected" `Quick engine_rejects_nan;
    Alcotest.test_case "infinite times rejected" `Quick engine_rejects_infinity;
    Alcotest.test_case "event ordering" `Quick engine_ordering;
    Alcotest.test_case "cascading events" `Quick engine_cascade;
    Alcotest.test_case "run_until" `Quick engine_run_until;
    QCheck_alcotest.to_alcotest engine_random_order ]

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

let mk_net () =
  let eng = Engine.create () in
  let net = Net.create eng in
  let a = Host.create ~name:"alpha" ~ips:[ Addr.of_quad 10 0 0 1 ] () in
  let b = Host.create ~name:"beta" ~ips:[ Addr.of_quad 10 0 0 2 ] () in
  Net.attach net a;
  Net.attach net b;
  (eng, net, a, b)

let net_delivery () =
  let eng, net, a, b = mk_net () in
  let got = ref None in
  Net.listen net b ~port:100 (fun pkt -> got := Some pkt.Packet.payload);
  Net.send net ~sport:5000 ~dst:(Host.primary_ip b) ~dport:100 a (Bytes.of_string "hello");
  Engine.run eng;
  Alcotest.(check (option string)) "delivered" (Some "hello") (Option.map Bytes.to_string !got)

let net_source_forgery_rejected () =
  let _, net, a, b = mk_net () in
  Alcotest.check_raises "honest hosts cannot forge" (Invalid_argument "Net.send: source address not owned by sending host")
    (fun () ->
      Net.send net ~src:(Host.primary_ip b) ~sport:1 ~dst:(Host.primary_ip b) ~dport:1 a Bytes.empty)

(* An endpoint is the address above a 30-bit port. A port past that
   bound, or below zero, is refused where a caller hands it to the
   network; the largest one still delivers; and a replacement packet from
   the interceptor that carries one is dropped, never raised out of the
   engine. *)
let net_unpackable_ports () =
  let eng, net, a, b = mk_net () in
  let dst = Host.primary_ip b in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun port ->
      let what op = Printf.sprintf "%s at port %d" op port in
      refused (what "listen") (fun () -> Net.listen net b ~port ignore);
      refused (what "send to") (fun () ->
          Net.send net ~sport:5000 ~dst ~dport:port a Bytes.empty);
      refused (what "send from") (fun () ->
          Net.send net ~sport:port ~dst ~dport:100 a Bytes.empty);
      refused (what "inject to") (fun () ->
          Net.inject net
            { Packet.src = Host.primary_ip a; sport = 7; dst; dport = port;
              payload = Bytes.empty; uid = 0 });
      refused (what "inject from") (fun () ->
          Net.inject net
            { Packet.src = Host.primary_ip a; sport = port; dst; dport = 100;
              payload = Bytes.empty; uid = 0 }))
    [ Endpoint.max_port + 1; -1; max_int ];
  Alcotest.(check int) "nothing listens, nothing sent" 0
    (Net.listener_count net + Net.event_count net);
  let got = ref [] in
  Net.listen net b ~port:Endpoint.max_port (fun pkt ->
      got := Bytes.to_string pkt.Packet.payload :: !got);
  Net.set_interceptor net (fun pkt ->
      if Bytes.to_string pkt.Packet.payload = "swap" then
        Net.Replace
          [ { pkt with Packet.dport = Endpoint.max_port + 1 };
            { pkt with Packet.sport = -1 } ]
      else Net.Deliver);
  List.iter
    (fun s ->
      Net.send net ~sport:Endpoint.max_port ~dst ~dport:Endpoint.max_port a
        (Bytes.of_string s))
    [ "top"; "swap" ];
  Engine.run eng;
  Alcotest.(check (list string)) "delivered at the largest port" [ "top" ] !got;
  let unpackable =
    List.filter
      (function Net.Dropped (_, _, "unpackable endpoint") -> true | _ -> false)
      (Net.events net)
  in
  Alcotest.(check int) "both replacements dropped" 2 (List.length unpackable)

let net_interceptor () =
  let eng, net, a, b = mk_net () in
  let got = ref [] in
  Net.listen net b ~port:100 (fun pkt -> got := Bytes.to_string pkt.Packet.payload :: !got);
  Net.set_interceptor net (fun pkt ->
      if Bytes.to_string pkt.Packet.payload = "drop-me" then Net.Drop
      else if Bytes.to_string pkt.Packet.payload = "twist-me" then
        Net.Replace [ { pkt with Packet.payload = Bytes.of_string "twisted" } ]
      else Net.Deliver);
  let send s = Net.send net ~sport:5000 ~dst:(Host.primary_ip b) ~dport:100 a (Bytes.of_string s) in
  send "drop-me";
  send "twist-me";
  send "fine";
  Engine.run eng;
  Alcotest.(check (list string)) "interception" [ "twisted"; "fine" ] (List.rev !got)

let net_adversary_spoof () =
  let eng, net, _, b = mk_net () in
  let adv = Adversary.attach net in
  let from = ref None in
  Net.listen net b ~port:100 (fun pkt -> from := Some pkt.Packet.src);
  Adversary.spoof adv ~src:(Addr.of_quad 192 168 9 9) ~sport:7 ~dst:(Host.primary_ip b) ~dport:100
    (Bytes.of_string "boo");
  Engine.run eng;
  Alcotest.(check (option string)) "spoofed source accepted" (Some "192.168.9.9")
    (Option.map Addr.to_string !from)

let net_tap_capture () =
  let eng, net, a, b = mk_net () in
  let adv = Adversary.attach net in
  Adversary.start_tap adv;
  Net.listen net b ~port:100 ignore;
  Net.send net ~sport:1 ~dst:(Host.primary_ip b) ~dport:100 a (Bytes.of_string "x");
  Net.send net ~sport:1 ~dst:(Host.primary_ip b) ~dport:100 a (Bytes.of_string "y");
  Engine.run eng;
  Alcotest.(check int) "captured both" 2 (List.length (Adversary.captured adv))

let rpc_roundtrip () =
  let eng, net, a, b = mk_net () in
  Net.listen net b ~port:100 (fun pkt ->
      Net.send net ~sport:100 ~dst:pkt.Packet.src ~dport:pkt.Packet.sport b
        (Bytes.of_string ("re:" ^ Bytes.to_string pkt.Packet.payload)));
  let reply = ref "" and timed_out = ref false in
  Rpc.call net a ~dst:(Host.primary_ip b) ~dport:100 (Bytes.of_string "ping")
    ~on_reply:(fun pkt -> reply := Bytes.to_string pkt.Packet.payload)
    ~on_timeout:(fun () -> timed_out := true);
  Engine.run eng;
  Alcotest.(check string) "reply" "re:ping" !reply;
  Alcotest.(check bool) "no timeout" false !timed_out

let rpc_timeout_and_retry () =
  let eng, net, a, b = mk_net () in
  (* Server drops the first request, answers the second: a legitimate
     retransmission, the situation that trips authenticator caches. *)
  let seen = ref 0 in
  Net.listen net b ~port:100 (fun pkt ->
      incr seen;
      if !seen >= 2 then
        Net.send net ~sport:100 ~dst:pkt.Packet.src ~dport:pkt.Packet.sport b (Bytes.of_string "ok"));
  let replies = ref 0 and timeouts = ref 0 in
  Rpc.call net a ~timeout:0.5 ~retries:3 ~dst:(Host.primary_ip b) ~dport:100
    (Bytes.of_string "req")
    ~on_reply:(fun _ -> incr replies)
    ~on_timeout:(fun () -> incr timeouts);
  Engine.run eng;
  Alcotest.(check int) "one reply" 1 !replies;
  Alcotest.(check int) "no timeout" 0 !timeouts;
  Alcotest.(check int) "retransmitted" 2 !seen

(* Backoff under overload: the retransmit schedule is exponential with
   seeded jitter — attempt [i] waits [min max_timeout (timeout *
   backoff^i)] scaled by a factor in [1 +- jitter]. The interceptor
   timestamps each send before network latency, so the gaps measure the
   client's own schedule. *)
let rpc_backoff_jitter_bounds () =
  let eng, net, a, b = mk_net () in
  let sends = ref [] in
  Net.set_interceptor net (fun pkt ->
      if pkt.Packet.dport = 100 then sends := Engine.now eng :: !sends;
      (* Swallow every request: only timeouts drive the schedule. *)
      Net.Drop);
  let timeouts = ref 0 in
  Rpc.call net a ~timeout:1.0 ~retries:4 ~backoff:2.0 ~max_timeout:4.0
    ~jitter:0.1 ~dst:(Host.primary_ip b) ~dport:100 (Bytes.of_string "req")
    ~on_reply:(fun _ -> Alcotest.fail "dropped request cannot be answered")
    ~on_timeout:(fun () -> incr timeouts);
  Engine.run eng;
  Alcotest.(check int) "one timeout" 1 !timeouts;
  let times = List.rev !sends in
  Alcotest.(check int) "retries + 1 transmissions" 5 (List.length times);
  (* Nominal waits 1, 2, 4, 4 (the last capped by max_timeout), each
     jittered by at most 10%. *)
  let nominal = [ 1.0; 2.0; 4.0; 4.0 ] in
  List.iteri
    (fun i (prev, next) ->
      let base = List.nth nominal i in
      let gap = next -. prev in
      Alcotest.(check bool)
        (Printf.sprintf "gap %d within jitter bounds (%.3fs vs %.1fs)" i gap
           base)
        true
        (gap >= base *. 0.9 -. 1e-9 && gap <= base *. 1.1 +. 1e-9))
    (List.combine
       (List.filteri (fun i _ -> i < List.length times - 1) times)
       (List.tl times))

(* The busy-KDC failover race: the first exchange times out, the caller
   fails over, and only then does the overloaded server answer. The
   late reply lands on the abandoned call's (unregistered) ephemeral
   port and dies there — it must not resurrect the finished call — and
   a duplicate of the healthy server's reply is suppressed by the
   one-shot finish. *)
let rpc_late_reply_after_failover_suppressed () =
  let eng, net, a, b = mk_net () in
  (* Port 100: the busy KDC — answers 5 s after the request, long after
     the caller gave up. *)
  Net.listen net b ~port:100 (fun pkt ->
      Engine.schedule_after eng 5.0 (fun () ->
          Net.send net ~sport:100 ~dst:pkt.Packet.src ~dport:pkt.Packet.sport b
            (Bytes.of_string "late")));
  (* Port 101: the failover target — answers immediately, twice (the
     duplicate-prone network the paper's retransmission note worries
     about). *)
  Net.listen net b ~port:101 (fun pkt ->
      for _ = 1 to 2 do
        Net.send net ~sport:101 ~dst:pkt.Packet.src ~dport:pkt.Packet.sport b
          (Bytes.of_string "ok")
      done);
  let first_replies = ref 0 and second_replies = ref 0 in
  let timeouts = ref 0 in
  Rpc.call net a ~timeout:1.0 ~retries:0 ~jitter:0.0 ~dst:(Host.primary_ip b)
    ~dport:100 (Bytes.of_string "req")
    ~on_reply:(fun _ -> incr first_replies)
    ~on_timeout:(fun () ->
      incr timeouts;
      Rpc.call net a ~timeout:1.0 ~retries:0 ~jitter:0.0
        ~dst:(Host.primary_ip b) ~dport:101 (Bytes.of_string "req")
        ~on_reply:(fun _ -> incr second_replies)
        ~on_timeout:(fun () -> Alcotest.fail "failover target answered"));
  Engine.run eng;
  (* The engine drains past t = 5: the busy KDC's answer has been sent
     and dropped by the time these run. *)
  Alcotest.(check int) "abandoned call saw the timeout" 1 !timeouts;
  Alcotest.(check int) "late reply did not resurrect it" 0 !first_replies;
  Alcotest.(check int) "duplicate reply suppressed after failover" 1
    !second_replies

(* When the retry envelope is spent the call stops transmitting: exactly
   [retries + 1] copies leave the host, then one timeout, and the engine
   goes quiet — no hidden retransmission keeps hammering the server. *)
let rpc_retries_stop_when_spent () =
  let eng, net, a, b = mk_net () in
  let sends = ref 0 in
  Net.set_interceptor net (fun pkt ->
      if pkt.Packet.dport = 100 then incr sends;
      Net.Drop);
  let timeouts = ref 0 in
  Rpc.call net a ~timeout:1.0 ~retries:2 ~backoff:2.0 ~jitter:0.0
    ~dst:(Host.primary_ip b) ~dport:100 (Bytes.of_string "req")
    ~on_reply:(fun _ -> Alcotest.fail "dropped request cannot be answered")
    ~on_timeout:(fun () -> incr timeouts);
  Engine.run eng;
  Alcotest.(check int) "exactly retries + 1 transmissions" 3 !sends;
  Alcotest.(check int) "exactly one timeout" 1 !timeouts;
  (* 1 + 2 + 4 seconds of (unjittered) waiting, then nothing. *)
  Alcotest.(check (float 1e-9)) "engine quiet after the envelope" 7.0
    (Engine.now eng)

let multihomed_addresses () =
  let eng = Engine.create () in
  let net = Net.create eng in
  let m = Host.create ~name:"gateway" ~ips:[ Addr.of_quad 10 0 0 9; Addr.of_quad 10 1 0 9 ] () in
  let b = Host.create ~name:"beta" ~ips:[ Addr.of_quad 10 0 0 2 ] () in
  Net.attach net m;
  Net.attach net b;
  let from = ref [] in
  Net.listen net b ~port:100 (fun pkt -> from := Addr.to_string pkt.Packet.src :: !from);
  Net.send net ~src:(Addr.of_quad 10 0 0 9) ~sport:1 ~dst:(Host.primary_ip b) ~dport:100 m Bytes.empty;
  Net.send net ~src:(Addr.of_quad 10 1 0 9) ~sport:1 ~dst:(Host.primary_ip b) ~dport:100 m Bytes.empty;
  Engine.run eng;
  Alcotest.(check (list string)) "both addresses usable" [ "10.0.0.9"; "10.1.0.9" ] (List.rev !from)

let net_storm_invariants =
  (* Under a randomly-dropping interceptor, exactly the undropped packets
     arrive, in order, unduplicated. *)
  QCheck.Test.make ~name:"delivery invariants under random drops" ~count:100
    QCheck.(pair (int_range 0 60) (int_bound 1000))
    (fun (n, seed) ->
      let eng, net, a, b = mk_net () in
      ignore eng;
      let drop_rng = Util.Rng.create (Int64.of_int (seed + 1)) in
      let dropped = ref 0 in
      Net.set_interceptor net (fun _ ->
          if Util.Rng.int drop_rng 4 = 0 then begin
            incr dropped;
            Net.Drop
          end
          else Net.Deliver);
      let got = ref [] in
      Net.listen net b ~port:100 (fun pkt ->
          got := Bytes.to_string pkt.Packet.payload :: !got);
      for i = 0 to n - 1 do
        Net.send net ~sport:1 ~dst:(Host.primary_ip b) ~dport:100 a
          (Bytes.of_string (string_of_int i))
      done;
      Engine.run eng;
      let got = List.rev_map int_of_string !got in
      List.length got = n - !dropped && got = List.sort compare got)

let suite_net =
  [ QCheck_alcotest.to_alcotest net_storm_invariants;
    Alcotest.test_case "delivery" `Quick net_delivery;
    Alcotest.test_case "source forgery rejected for honest hosts" `Quick net_source_forgery_rejected;
    Alcotest.test_case "interceptor" `Quick net_interceptor;
    Alcotest.test_case "unpackable ports refused" `Quick net_unpackable_ports;
    Alcotest.test_case "adversary spoof" `Quick net_adversary_spoof;
    Alcotest.test_case "tap capture" `Quick net_tap_capture;
    Alcotest.test_case "rpc roundtrip" `Quick rpc_roundtrip;
    Alcotest.test_case "rpc retransmission" `Quick rpc_timeout_and_retry;
    Alcotest.test_case "rpc backoff jitter within seeded bounds" `Quick
      rpc_backoff_jitter_bounds;
    Alcotest.test_case "rpc late reply after failover suppressed" `Quick
      rpc_late_reply_after_failover_suppressed;
    Alcotest.test_case "rpc retries stop when spent" `Quick
      rpc_retries_stop_when_spent;
    Alcotest.test_case "multi-homed hosts" `Quick multihomed_addresses ]

(* ------------------------------------------------------------------ *)
(* Host clocks and caches                                              *)
(* ------------------------------------------------------------------ *)

let clock_model () =
  let h = Host.create ~clock_offset:10.0 ~clock_drift:0.001 ~name:"h" ~ips:[ 1 ] () in
  Alcotest.(check (float 1e-9)) "offset+drift" 110.1 (Host.local_time h ~real:100.0);
  Host.set_clock h ~real:100.0 ~reading:50.0;
  Alcotest.(check (float 1e-9)) "after sync" 50.0 (Host.local_time h ~real:100.0)

let cache_model () =
  let ws = Host.create ~name:"ws" ~ips:[ 1 ] () in
  let mu = Host.create ~security:Host.Multi_user ~name:"mu" ~ips:[ 2 ] () in
  Host.cache_put ws "tgt" (Bytes.of_string "secret");
  Host.cache_put mu "tgt" (Bytes.of_string "secret");
  Alcotest.(check bool) "workstation cache unreadable" true (Host.steal_cache ws = None);
  (match Host.steal_cache mu with
  | Some [ ("tgt", _) ] -> ()
  | _ -> Alcotest.fail "multi-user cache should leak");
  Host.cache_wipe ws;
  Alcotest.(check bool) "wiped" true (Host.cache_get ws "tgt" = None)

let suite_host =
  [ Alcotest.test_case "clock model" `Quick clock_model;
    Alcotest.test_case "credential cache" `Quick cache_model ]

(* ------------------------------------------------------------------ *)
(* Tcpish                                                              *)
(* ------------------------------------------------------------------ *)

let tcp_handshake_and_data () =
  let eng, net, a, b = mk_net () in
  let server_got = ref [] and client_got = ref [] in
  Tcpish.listen net b ~port:513
    ~on_accept:(fun conn ->
      Tcpish.on_data conn (fun data ->
          server_got := Bytes.to_string data :: !server_got;
          Tcpish.send conn (Bytes.of_string "pong")))
    ();
  ignore
    (Tcpish.connect net a ~dst:(Host.primary_ip b) ~dport:513
       ~on_connected:(fun conn ->
         Tcpish.on_data conn (fun data ->
             client_got := Bytes.to_string data :: !client_got);
         Tcpish.send conn (Bytes.of_string "ping");
         Tcpish.send conn (Bytes.of_string "ping2"))
       ());
  Engine.run eng;
  Alcotest.(check (list string)) "server got" [ "ping"; "ping2" ] (List.rev !server_got);
  Alcotest.(check (list string)) "client got" [ "pong"; "pong" ] (List.rev !client_got)

let tcp_predictable_isn () =
  let eng = Engine.create () in
  let net = Net.create eng in
  Engine.schedule eng ~at:100.0 (fun () ->
      let predicted = Tcpish.predict_isn net Tcpish.Predictable in
      Alcotest.(check int) "predictable" (64 * 100) predicted);
  Engine.run eng

let tcp_out_of_window_dropped () =
  let eng, net, a, b = mk_net () in
  let server_got = ref [] in
  let server_conn = ref None in
  Tcpish.listen net b ~port:513
    ~on_accept:(fun conn ->
      server_conn := Some conn;
      Tcpish.on_data conn (fun d -> server_got := Bytes.to_string d :: !server_got))
    ();
  ignore
    (Tcpish.connect net a ~dst:(Host.primary_ip b) ~dport:513
       ~on_connected:(fun conn -> Tcpish.send conn (Bytes.of_string "real"))
       ());
  Engine.run eng;
  (* Inject a segment with a wrong sequence number at the server. *)
  let adv = Adversary.attach net in
  let bogus =
    Tcpish.encode_segment
      { Tcpish.syn = false; ack = false; fin = false; rst = false; seq = 999999;
        ackno = 0; body = Bytes.of_string "fake" }
  in
  Adversary.spoof adv ~src:(Host.primary_ip a) ~sport:33001 ~dst:(Host.primary_ip b) ~dport:513 bogus;
  Engine.run eng;
  Alcotest.(check (list string)) "only real data" [ "real" ] (List.rev !server_got)

let suite_tcp =
  [ Alcotest.test_case "handshake and data" `Quick tcp_handshake_and_data;
    Alcotest.test_case "predictable isn" `Quick tcp_predictable_isn;
    Alcotest.test_case "wrong seq dropped" `Quick tcp_out_of_window_dropped ]

(* ------------------------------------------------------------------ *)
(* Time service                                                        *)
(* ------------------------------------------------------------------ *)

let time_sync () =
  let eng, net, a, b = mk_net () in
  b.Host.clock_offset <- 500.0;
  Timesvc.install_server net b ();
  let done_ = ref false in
  Timesvc.sync net a ~server:(Host.primary_ip b) ~on_done:(fun () -> done_ := true) ();
  Engine.run eng;
  Alcotest.(check bool) "synced" true !done_;
  let real = Engine.now eng in
  Alcotest.(check (float 0.1)) "clock follows server"
    (Host.local_time b ~real) (Host.local_time a ~real)

let time_spoof () =
  (* The adversary rewrites the reply: the victim believes an arbitrary
     time. No cryptography required — the protocol is unauthenticated. *)
  let eng, net, a, b = mk_net () in
  Timesvc.install_server net b ();
  let adv = Adversary.attach net in
  Adversary.intercept adv (fun pkt ->
      if pkt.Packet.sport = Timesvc.default_port then begin
        let w = Wire.Codec.Writer.create () in
        Wire.Codec.Writer.i64 w (Int64.bits_of_float 12345.0);
        Net.Replace [ { pkt with Packet.payload = Wire.Codec.Writer.contents w } ]
      end
      else Net.Deliver);
  Timesvc.sync net a ~server:(Host.primary_ip b) ~on_done:ignore ();
  Engine.run eng;
  (* The clock keeps ticking after capture; allow the elapsed sim time. *)
  Alcotest.(check (float 2.0)) "victim clock captured" 12345.0
    (Host.local_time a ~real:(Engine.now eng))

let time_spoof_detected_with_mac () =
  let eng, net, a, b = mk_net () in
  let key = Bytes.of_string "shared-time-key" in
  Timesvc.install_authenticated_server net b ~key ();
  let adv = Adversary.attach net in
  Adversary.intercept adv (fun pkt ->
      if pkt.Packet.sport = Timesvc.default_port then begin
        (* Tamper with the reading; the MAC no longer matches. *)
        let p = Bytes.copy pkt.Packet.payload in
        Bytes.set_int64_be p 0 (Int64.bits_of_float 12345.0);
        Net.Replace [ { pkt with Packet.payload = p } ]
      end
      else Net.Deliver);
  let verdict = ref None in
  Timesvc.sync_authenticated net a ~key ~server:(Host.primary_ip b)
    ~on_done:(fun ok -> verdict := Some ok) ();
  Engine.run eng;
  Alcotest.(check (option bool)) "forgery detected" (Some false) !verdict;
  Alcotest.(check (float 0.5)) "clock untouched" (Engine.now eng)
    (Host.local_time a ~real:(Engine.now eng))

let suite_time =
  [ Alcotest.test_case "sync" `Quick time_sync;
    Alcotest.test_case "spoofable when unauthenticated" `Quick time_spoof;
    Alcotest.test_case "mac detects spoof" `Quick time_spoof_detected_with_mac ]

let () =
  Alcotest.run "sim"
    [ ("encoding", suite_encoding); ("codec", suite_codec);
      ("engine", suite_engine); ("net", suite_net);
      ("host", suite_host); ("tcpish", suite_tcp); ("timesvc", suite_time) ]
