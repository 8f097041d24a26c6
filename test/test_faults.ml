(* The fault-injection plane and the recovery machinery built around it:
   seeded fault rules and their determinism, the Net integration (drop
   reasons, zero-overhead inert planes), Rpc retry/backoff and its
   late-reply races, Tcpish under duplication and reordering, KDC
   failover and re-login on expiry, application-server crash/restart
   with volatile vs. persistent replay caches, kprop re-propagation
   through a healed partition, and the chaos soak. *)

open Kerberos

let quad = Sim.Addr.of_quad

let mk_net ?telemetry () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create ?telemetry eng in
  let a = Sim.Host.create ~name:"alpha" ~ips:[ quad 10 0 0 1 ] () in
  let b = Sim.Host.create ~name:"beta" ~ips:[ quad 10 0 0 2 ] () in
  Sim.Net.attach net a;
  Sim.Net.attach net b;
  (eng, net, a, b)

let send net host ~dst s =
  Sim.Net.send net ~sport:5000 ~dst ~dport:100 host (Bytes.of_string s)

(* ------------------------------------------------------------------ *)
(* The plane itself                                                    *)
(* ------------------------------------------------------------------ *)

let loss_drops_everything () =
  let eng, net, a, b = mk_net () in
  let got = ref 0 in
  Sim.Net.listen net b ~port:100 (fun _ -> incr got);
  let plane = Sim.Faults.create () in
  Sim.Faults.add_loss plane ~p:1.0 ();
  Sim.Net.attach_faults net plane;
  for i = 1 to 5 do
    send net a ~dst:(Sim.Host.primary_ip b) (string_of_int i)
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "five losses counted" 5
    (Sim.Faults.count plane Sim.Faults.Loss)

let duplicate_delivers_copy () =
  let eng, net, a, b = mk_net () in
  let got = ref [] in
  Sim.Net.listen net b ~port:100 (fun pkt ->
      got := (Sim.Engine.now eng, Bytes.to_string pkt.Sim.Packet.payload) :: !got);
  let plane = Sim.Faults.create () in
  Sim.Faults.add_duplicate plane ~copy_delay:0.01 ~p:1.0 ();
  Sim.Net.attach_faults net plane;
  send net a ~dst:(Sim.Host.primary_ip b) "once";
  Sim.Engine.run eng;
  (match List.rev !got with
  | [ (t1, p1); (t2, p2) ] ->
      Alcotest.(check string) "original" "once" p1;
      Alcotest.(check string) "copy" "once" p2;
      Alcotest.(check (float 1e-9)) "copy lags by copy_delay" 0.01 (t2 -. t1)
  | l -> Alcotest.failf "expected 2 deliveries, got %d" (List.length l));
  Alcotest.(check int) "one duplication counted" 1
    (Sim.Faults.count plane Sim.Faults.Duplicate)

let bitdiff x y =
  let n = ref 0 in
  Bytes.iteri
    (fun i c ->
      let d = Char.code c lxor Char.code (Bytes.get y i) in
      for b = 0 to 7 do
        if d land (1 lsl b) <> 0 then incr n
      done)
    x;
  !n

let corrupt_flips_one_bit () =
  let eng, net, a, b = mk_net () in
  let got = ref None in
  Sim.Net.listen net b ~port:100 (fun pkt -> got := Some pkt.Sim.Packet.payload);
  let plane = Sim.Faults.create () in
  Sim.Faults.add_corrupt plane ~p:1.0 ();
  Sim.Net.attach_faults net plane;
  let original = Bytes.of_string "hello, fault plane" in
  Sim.Net.send net ~sport:5000 ~dst:(Sim.Host.primary_ip b) ~dport:100 a original;
  Sim.Engine.run eng;
  (match !got with
  | None -> Alcotest.fail "corrupted packet should still arrive"
  | Some p ->
      Alcotest.(check int) "same length" (Bytes.length original) (Bytes.length p);
      Alcotest.(check int) "exactly one bit flipped" 1 (bitdiff original p));
  Alcotest.(check int) "counted" 1 (Sim.Faults.count plane Sim.Faults.Corrupt)

let jitter_adds_delay () =
  let eng, net, a, b = mk_net () in
  let arrivals = ref [] in
  Sim.Net.listen net b ~port:100 (fun _ ->
      arrivals := Sim.Engine.now eng :: !arrivals);
  send net a ~dst:(Sim.Host.primary_ip b) "plain";
  let plane = Sim.Faults.create () in
  Sim.Engine.schedule eng ~at:1.0 (fun () ->
      Sim.Faults.add_jitter plane ~max_delay:0.05 ();
      Sim.Net.attach_faults net plane;
      send net a ~dst:(Sim.Host.primary_ip b) "jittered");
  Sim.Engine.run eng;
  (match List.rev !arrivals with
  | [ t_plain; t_jittered ] ->
      (* Base latency cancels: anything past it is the injected jitter. *)
      Alcotest.(check bool) "jittered packet is no earlier" true
        (t_jittered -. 1.0 >= t_plain)
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l));
  Alcotest.(check int) "counted" 1 (Sim.Faults.count plane Sim.Faults.Jitter)

let reorder_lets_later_overtake () =
  let eng, net, a, b = mk_net () in
  let got = ref [] in
  Sim.Net.listen net b ~port:100 (fun pkt ->
      got := Bytes.to_string pkt.Sim.Packet.payload :: !got);
  let plane = Sim.Faults.create () in
  (* The hold-back rule is live only for the first send. *)
  Sim.Faults.add_reorder plane ~hold:0.1 ~from:0.0 ~until:0.01 ~p:1.0 ();
  Sim.Net.attach_faults net plane;
  send net a ~dst:(Sim.Host.primary_ip b) "first";
  Sim.Engine.schedule eng ~at:0.02 (fun () ->
      send net a ~dst:(Sim.Host.primary_ip b) "second");
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "second overtakes first" [ "second"; "first" ]
    (List.rev !got);
  Alcotest.(check int) "one reorder counted" 1
    (Sim.Faults.count plane Sim.Faults.Reorder)

let partition_cuts_until_heal () =
  let eng, net, a, b = mk_net () in
  let got = ref [] in
  Sim.Net.listen net b ~port:100 (fun pkt ->
      got := Bytes.to_string pkt.Sim.Packet.payload :: !got);
  let plane = Sim.Faults.create () in
  Sim.Faults.partition plane ~a:[ Sim.Host.primary_ip a ]
    ~b:[ Sim.Host.primary_ip b ] ();
  Sim.Net.attach_faults net plane;
  send net a ~dst:(Sim.Host.primary_ip b) "cut";
  Sim.Engine.schedule eng ~at:1.0 (fun () ->
      Sim.Faults.heal plane ~now:(Sim.Engine.now eng));
  Sim.Engine.schedule eng ~at:2.0 (fun () ->
      send net a ~dst:(Sim.Host.primary_ip b) "joined");
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "only post-heal traffic" [ "joined" ]
    (List.rev !got);
  Alcotest.(check int) "one partition drop" 1
    (Sim.Faults.count plane Sim.Faults.Partition)

let crash_window_silences_host () =
  let eng, net, a, b = mk_net () in
  let got = ref [] in
  Sim.Net.listen net b ~port:100 (fun pkt ->
      got := Bytes.to_string pkt.Sim.Packet.payload :: !got);
  let plane = Sim.Faults.create () in
  Sim.Faults.crash_host plane (Sim.Host.primary_ip b) ~from:1.0 ~until:2.0 ();
  Sim.Net.attach_faults net plane;
  List.iter
    (fun (at, s) ->
      Sim.Engine.schedule eng ~at (fun () ->
          send net a ~dst:(Sim.Host.primary_ip b) s))
    [ (0.5, "early"); (1.5, "during"); (2.5, "late") ];
  Sim.Engine.schedule eng ~at:1.5 (fun () ->
      Alcotest.(check bool) "host down mid-window" false
        (Sim.Faults.host_up plane ~now:(Sim.Engine.now eng)
           (Sim.Host.primary_ip b)));
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "window swallowed the middle send"
    [ "early"; "late" ] (List.rev !got);
  Alcotest.(check int) "one outage drop" 1
    (Sim.Faults.count plane Sim.Faults.Host_down)

let clock_step_applies () =
  let eng = Sim.Engine.create () in
  let h = Sim.Host.create ~name:"h" ~ips:[ quad 10 0 0 7 ] () in
  let plane = Sim.Faults.create () in
  Sim.Faults.clock_step plane eng h ~at:1.0 ~delta:42.0;
  Sim.Engine.run eng;
  Alcotest.(check (float 1e-9)) "clock stepped" 142.0
    (Sim.Host.local_time h ~real:100.0);
  Alcotest.(check int) "counted" 1 (Sim.Faults.count plane Sim.Faults.Clock_step)

let plan_is_deterministic () =
  let mk () =
    let p = Sim.Faults.create ~seed:7L () in
    Sim.Faults.add_loss p ~p:0.4 ();
    Sim.Faults.add_duplicate p ~p:0.3 ();
    Sim.Faults.add_corrupt p ~p:0.2 ();
    p
  in
  let packets =
    List.init 60 (fun i ->
        { Sim.Packet.src = quad 10 0 0 1; sport = 1000 + i; dst = quad 10 0 0 2;
          dport = 100; payload = Bytes.of_string (Printf.sprintf "pkt-%d" i);
          uid = i })
  in
  let verdicts plane =
    List.map (fun pkt -> Sim.Faults.plan plane ~now:0.5 pkt) packets
  in
  let a = verdicts (mk ()) and b = verdicts (mk ()) in
  Alcotest.(check bool) "same seed, same verdict stream" true (a = b);
  Alcotest.(check bool) "stream is non-trivial" true
    (List.exists (fun v -> v <> Sim.Faults.Pass) a
    && List.exists (fun v -> v = Sim.Faults.Pass) a)

(* An attached-but-empty plane must be invisible: same session, byte-
   identical telemetry trace — the behavioural half of the <=1% overhead
   budget that BENCH_faults.json tracks. *)
let inert_plane_changes_nothing () =
  let session_trace plane =
    let tel = Telemetry.Collector.fresh_default () in
    let bed = Attacks.Testbed.make ~profile:Profile.v4 () in
    (match plane with
    | Some p -> Sim.Net.attach_faults bed.Attacks.Testbed.net p
    | None -> ());
    Attacks.Testbed.victim_mail_session bed ();
    Attacks.Testbed.run bed;
    Telemetry.Collector.trace_jsonl tel
  in
  let plain = session_trace None in
  let inert = session_trace (Some (Sim.Faults.create ())) in
  Alcotest.(check bool) "trace is non-trivial" true (String.length plain > 1000);
  Alcotest.(check bool) "byte-identical with inert plane" true
    (String.equal plain inert);
  ignore (Telemetry.Collector.fresh_default ())

let suite_plane =
  [ Alcotest.test_case "loss" `Quick loss_drops_everything;
    Alcotest.test_case "duplicate" `Quick duplicate_delivers_copy;
    Alcotest.test_case "corrupt" `Quick corrupt_flips_one_bit;
    Alcotest.test_case "jitter" `Quick jitter_adds_delay;
    Alcotest.test_case "reorder" `Quick reorder_lets_later_overtake;
    Alcotest.test_case "partition + heal" `Quick partition_cuts_until_heal;
    Alcotest.test_case "host crash window" `Quick crash_window_silences_host;
    Alcotest.test_case "clock step" `Quick clock_step_applies;
    Alcotest.test_case "plan determinism" `Quick plan_is_deterministic;
    Alcotest.test_case "inert plane changes nothing" `Quick
      inert_plane_changes_nothing ]

(* ------------------------------------------------------------------ *)
(* Net and Rpc plumbing                                                *)
(* ------------------------------------------------------------------ *)

let dropped_reason_counter () =
  let tel = Telemetry.Collector.fresh_default () in
  let eng, net, a, b = mk_net ~telemetry:tel () in
  (* Nobody listens on port 9: the drop must be visible per-reason. *)
  Sim.Net.send net ~sport:1 ~dst:(Sim.Host.primary_ip b) ~dport:9 a
    (Bytes.of_string "void");
  Sim.Engine.run eng;
  let v name =
    Telemetry.Metrics.value
      (Telemetry.Metrics.counter (Telemetry.Collector.metrics tel) name)
  in
  Alcotest.(check int) "per-reason counter" 1 (v "net.dropped.no-listener");
  Alcotest.(check int) "total drop counter" 1 (v "net.packets.dropped");
  ignore (Telemetry.Collector.fresh_default ())

let reply_from net b pkt s =
  Sim.Net.send net ~sport:100 ~dst:pkt.Sim.Packet.src ~dport:pkt.Sim.Packet.sport
    b (Bytes.of_string s)

(* A duplicated reply (the fault plane's specialty) must fire on_reply
   exactly once; the second copy finds the ephemeral port closed. *)
let rpc_duplicate_reply_suppressed () =
  let eng, net, a, b = mk_net () in
  Sim.Net.listen net b ~port:100 (fun pkt ->
      reply_from net b pkt "first";
      reply_from net b pkt "second");
  let sport = ref 0 in
  Sim.Net.add_tap net (fun pkt ->
      if pkt.Sim.Packet.dport = 100 then sport := pkt.Sim.Packet.sport);
  let replies = ref [] and timeouts = ref 0 in
  Sim.Rpc.call net a ~dst:(Sim.Host.primary_ip b) ~dport:100 (Bytes.of_string "q")
    ~on_reply:(fun pkt ->
      replies := Bytes.to_string pkt.Sim.Packet.payload :: !replies)
    ~on_timeout:(fun () -> incr timeouts);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "exactly one reply" [ "first" ] !replies;
  Alcotest.(check int) "no timeout" 0 !timeouts;
  Alcotest.(check bool) "ephemeral listener torn down" false
    (Sim.Net.listening net (Sim.Host.primary_ip a) ~port:!sport)

(* Regression: a reply that arrives after the final timeout has fired
   must not invoke on_reply, and must not leak the listener. *)
let rpc_late_reply_after_timeout () =
  let eng, net, a, b = mk_net () in
  Sim.Net.listen net b ~port:100 (fun pkt ->
      Sim.Engine.schedule_after eng 0.5 (fun () -> reply_from net b pkt "too late"));
  let sport = ref 0 in
  Sim.Net.add_tap net (fun pkt ->
      if pkt.Sim.Packet.dport = 100 then sport := pkt.Sim.Packet.sport);
  let replied = ref 0 and timed_out = ref 0 in
  Sim.Rpc.call net a ~timeout:0.1 ~jitter:0.0 ~dst:(Sim.Host.primary_ip b)
    ~dport:100 (Bytes.of_string "q")
    ~on_reply:(fun _ -> incr replied)
    ~on_timeout:(fun () -> incr timed_out);
  Sim.Engine.run eng;
  Alcotest.(check int) "late reply ignored" 0 !replied;
  Alcotest.(check int) "one timeout" 1 !timed_out;
  Alcotest.(check bool) "listener gone after timeout" false
    (Sim.Net.listening net (Sim.Host.primary_ip a) ~port:!sport)

let rpc_exponential_backoff () =
  let eng, net, a, b = mk_net () in
  let seen = ref [] in
  Sim.Net.listen net b ~port:100 (fun pkt ->
      seen := Sim.Engine.now eng :: !seen;
      (* Answer only the third transmission. *)
      if List.length !seen = 3 then reply_from net b pkt "ok");
  let reply = ref None and timed_out = ref 0 in
  Sim.Rpc.call net a ~timeout:0.1 ~retries:3 ~backoff:2.0 ~jitter:0.0
    ~dst:(Sim.Host.primary_ip b) ~dport:100 (Bytes.of_string "q")
    ~on_reply:(fun pkt -> reply := Some (Bytes.to_string pkt.Sim.Packet.payload))
    ~on_timeout:(fun () -> incr timed_out);
  Sim.Engine.run eng;
  Alcotest.(check (option string)) "third transmission answered" (Some "ok")
    !reply;
  Alcotest.(check int) "no timeout" 0 !timed_out;
  (* Retransmissions at t, t+0.1, t+0.1+0.2: doubling intervals. *)
  (match List.rev_map (fun t -> t -. 0.005) !seen with
  | [ t1; t2; t3 ] ->
      Alcotest.(check (float 1e-6)) "first at once" 0.0 t1;
      Alcotest.(check (float 1e-6)) "second after timeout" 0.1 t2;
      Alcotest.(check (float 1e-6)) "third after doubled timeout" 0.3 t3
  | l -> Alcotest.failf "expected 3 transmissions, got %d" (List.length l))

let engine_settle_abandons_open_spans () =
  let tel = Telemetry.Collector.fresh_default () in
  let eng = Sim.Engine.create () in
  let _net = Sim.Net.create ~telemetry:tel eng in
  Sim.Engine.schedule eng ~at:1.0 (fun () ->
      ignore (Telemetry.Collector.span_begin tel ~component:"test" "orphan"));
  Sim.Engine.schedule eng ~at:10.0 (fun () -> ());
  Sim.Engine.run_until eng 5.0;
  Alcotest.(check int) "run_until leaves the span open" 1
    (Telemetry.Collector.open_span_count tel);
  Sim.Engine.settle eng;
  Alcotest.(check int) "settle closes it" 0
    (Telemetry.Collector.open_span_count tel);
  Sim.Engine.run eng;
  Alcotest.(check int) "drained run stays settled" 0
    (Telemetry.Collector.open_span_count tel);
  ignore (Telemetry.Collector.fresh_default ())

let suite_net =
  [ Alcotest.test_case "per-reason drop counters" `Quick dropped_reason_counter;
    Alcotest.test_case "rpc duplicate reply suppressed" `Quick
      rpc_duplicate_reply_suppressed;
    Alcotest.test_case "rpc late reply after timeout" `Quick
      rpc_late_reply_after_timeout;
    Alcotest.test_case "rpc exponential backoff" `Quick rpc_exponential_backoff;
    Alcotest.test_case "engine settle" `Quick engine_settle_abandons_open_spans ]

(* ------------------------------------------------------------------ *)
(* Tcpish under the plane                                              *)
(* ------------------------------------------------------------------ *)

let tcp_server net b ~server_got ~server_conn =
  Sim.Tcpish.listen net b ~port:513
    ~on_accept:(fun conn ->
      server_conn := Some conn;
      Sim.Tcpish.on_data conn (fun d ->
          server_got := Bytes.to_string d :: !server_got))
    ()

let tcp_duplicate_segment_dropped () =
  let eng, net, a, b = mk_net () in
  let server_got = ref [] and server_conn = ref None in
  tcp_server net b ~server_got ~server_conn;
  let plane = Sim.Faults.create () in
  ignore
  @@ Sim.Tcpish.connect net a ~dst:(Sim.Host.primary_ip b) ~dport:513
       ~on_connected:(fun conn ->
         (* Faults start after the handshake: every segment now doubled. *)
         Sim.Faults.add_duplicate plane ~p:1.0 ();
         Sim.Net.attach_faults net plane;
         Sim.Tcpish.send conn (Bytes.of_string "data"))
       ();
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "payload delivered once" [ "data" ]
    (List.rev !server_got);
  (match !server_conn with
  | Some conn ->
      Alcotest.(check int) "bytes_received counts the copy zero times" 4
        (Sim.Tcpish.bytes_received conn)
  | None -> Alcotest.fail "handshake failed");
  Alcotest.(check bool) "duplicates were injected" true
    (Sim.Faults.count plane Sim.Faults.Duplicate >= 1)

let tcp_reordered_segment_dropped () =
  let eng, net, a, b = mk_net () in
  let server_got = ref [] and server_conn = ref None in
  tcp_server net b ~server_got ~server_conn;
  let plane = Sim.Faults.create () in
  ignore
  @@ Sim.Tcpish.connect net a ~dst:(Sim.Host.primary_ip b) ~dport:513
       ~on_connected:(fun conn ->
         let now = Sim.Engine.now eng in
         (* Hold back only the first data segment; the second overtakes it
            and arrives out of order. *)
         Sim.Faults.add_reorder plane ~hold:0.1 ~from:now ~until:(now +. 0.01)
           ~p:1.0 ();
         Sim.Net.attach_faults net plane;
         Sim.Tcpish.send conn (Bytes.of_string "aa");
         Sim.Engine.schedule_after eng 0.02 (fun () ->
             Sim.Tcpish.send conn (Bytes.of_string "bb")))
       ();
  Sim.Engine.run eng;
  (* "bb" arrived first with a future sequence number: buffered for
     reassembly, then delivered in order once "aa" lands — the stream
     sees both, in sequence, with the byte accounting intact. *)
  Alcotest.(check (list string)) "in-order reassembly" [ "aa"; "bb" ]
    (List.rev !server_got);
  (match !server_conn with
  | Some conn ->
      Alcotest.(check int) "bytes_received counts both" 4
        (Sim.Tcpish.bytes_received conn)
  | None -> Alcotest.fail "handshake failed");
  Alcotest.(check int) "one reorder" 1 (Sim.Faults.count plane Sim.Faults.Reorder)

let suite_tcpish =
  [ Alcotest.test_case "duplicate segment dropped" `Quick
      tcp_duplicate_segment_dropped;
    Alcotest.test_case "reordered segment dropped" `Quick
      tcp_reordered_segment_dropped ]

(* ------------------------------------------------------------------ *)
(* Kerberos-level recovery                                             *)
(* ------------------------------------------------------------------ *)

let cache_profile =
  { Profile.v5_draft3 with
    Profile.name = "v5d3+cache";
    ap_auth = Profile.Timestamp { skew = 300.0; replay_cache = true } }

let realm = "R"

(* One realm with a master and a slave serving a replica database. *)
let mk_realm ?(profile = Profile.v5_draft3) ?(lifetime = 28800.0) () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let master = Sim.Host.create ~name:"kdc-master" ~ips:[ quad 10 3 0 1 ] () in
  let slave = Sim.Host.create ~name:"kdc-slave" ~ips:[ quad 10 3 0 2 ] () in
  let ws = Sim.Host.create ~name:"ws" ~ips:[ quad 10 3 0 9 ] () in
  List.iter (Sim.Net.attach net) [ master; slave; ws ];
  let rng = Util.Rng.create 0xFA11L in
  let db = Kdb.create () in
  Kdb.add_service db (Principal.tgs ~realm) ~key:(Crypto.Des.random_key rng);
  Kdb.add_user db (Principal.user ~realm "pat") ~password:"pat.pw";
  let fileserv = Principal.service ~realm "fileserv" ~host:"fs" in
  Kdb.add_service db fileserv ~key:(Crypto.Des.random_key rng);
  Kdc.install net master (Kdc.create ~realm ~profile ~lifetime db) ();
  Kdc.install net slave
    (Kdc.create ~realm ~profile ~lifetime (Kdb.of_bytes (Kdb.to_bytes db)))
    ();
  (eng, net, master, slave, ws, fileserv)

let kdc_failover_to_slave () =
  let eng, net, master, slave, ws, _ = mk_realm () in
  (* The master is dead from the start; only failover can serve pat. *)
  let plane = Sim.Faults.create () in
  Sim.Faults.crash_host plane (Sim.Host.primary_ip master) ();
  Sim.Net.attach_faults net plane;
  let c =
    Client.create ~seed:3L ~kdc_timeout:0.2 net ws ~profile:Profile.v5_draft3
      ~kdcs:
        [ (realm, Sim.Host.primary_ip master);
          (realm, Sim.Host.primary_ip slave) ]
      (Principal.user ~realm "pat")
  in
  let got = ref None in
  Client.login c ~password:"pat.pw" (fun r -> got := Some r);
  Sim.Engine.run eng;
  (match !got with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "login failed despite live slave: %s" e
  | None -> Alcotest.fail "login stalled");
  let failed_over =
    List.exists
      (function
        | Sim.Net.Note (_, msg) ->
            Astring.String.is_infix ~affix:"failing over" msg
        | _ -> false)
      (Sim.Net.events net)
  in
  Alcotest.(check bool) "failover note recorded" true failed_over

let relogin_on_tgt_expiry () =
  let eng, net, master, _, ws, fileserv = mk_realm ~lifetime:2.0 () in
  let c =
    Client.create ~seed:4L ~password:"pat.pw" net ws ~profile:Profile.v5_draft3
      ~kdcs:[ (realm, Sim.Host.primary_ip master) ]
      (Principal.user ~realm "pat")
  in
  let first = ref None and second = ref None in
  Client.login c ~password:"pat.pw" (fun r -> first := Some (Result.is_ok r));
  (* Long after the 2-second TGT died: get_ticket must re-login itself. *)
  Sim.Engine.schedule eng ~at:5.0 (fun () ->
      Client.get_ticket c ~service:fileserv (fun r -> second := Some r));
  Sim.Engine.run eng;
  Alcotest.(check (option bool)) "initial login" (Some true) !first;
  (match !second with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "ticket after expiry failed: %s" e
  | None -> Alcotest.fail "get_ticket stalled");
  (match Client.tgt c with
  | Some tgt ->
      Alcotest.(check bool) "TGT was re-acquired" true
        (tgt.Client.issued_at >= 4.9)
  | None -> Alcotest.fail "no TGT after re-login")

(* A KDC deadline that runs out between failover hops reads "KDC
   deadline expired (timed out)". That is not the TGS saying the TGT
   expired, so a client holding a password must not log in again: the
   request settles at its deadline, having sent one packet to each KDC
   it tried and no AS request. *)
let deadline_is_not_tgt_expiry () =
  let eng, net, master, _, ws, fileserv = mk_realm () in
  let c =
    Client.create ~seed:5L ~password:"pat.pw" ~kdc_timeout:1.0 ~kdc_deadline:1.5
      net ws ~profile:Profile.v5_draft3
      ~kdcs:
        [ (realm, Sim.Host.primary_ip master); (realm, quad 10 3 0 7);
          (realm, quad 10 3 0 8) ]
      (Principal.user ~realm "pat")
  in
  let logged_in = ref false in
  Client.login c ~password:"pat.pw" (fun r -> logged_in := Result.is_ok r);
  Sim.Engine.run eng;
  Alcotest.(check bool) "initial login" true !logged_in;
  let plane = Sim.Faults.create () in
  Sim.Faults.crash_host plane (Sim.Host.primary_ip master) ();
  Sim.Net.attach_faults net plane;
  let kdc_packets = ref 0 in
  Sim.Net.add_tap net (fun pkt ->
      if pkt.Sim.Packet.dport = Kdc.default_port then incr kdc_packets);
  let start = Sim.Engine.now eng in
  let got = ref None in
  Client.get_ticket c ~service:fileserv (fun r ->
      got := Some (Sim.Engine.now eng -. start, r));
  Sim.Engine.run eng;
  (match !got with
  | Some (took, Error e) ->
      Alcotest.(check string) "the deadline, reported once"
        "KDC deadline expired (timed out)" e;
      Alcotest.(check (float 1e-6)) "settled at the deadline" 1.5 took
  | Some (_, Ok _) -> Alcotest.fail "a ticket from a crashed realm"
  | None -> Alcotest.fail "get_ticket never settled");
  Alcotest.(check int) "one TGS request per KDC tried, no AS request" 2
    !kdc_packets

(* A timeout or deadline the engine cannot honour is refused where the
   caller hands it over, with an [Invalid_argument] naming it, instead of
   surfacing later as the engine's "event in the past", "NaN time" or
   "infinite time" (or, for a NaN [kdc_deadline], as no deadline at all).
   An infinite AP or call deadline used to be queued at +infinity: the
   call timed out there and left the engine's clock at infinity. A zero
   deadline is one that has already run out. *)
let timeouts_checked_at_the_boundary () =
  let refused what ~naming f =
    match f () with
    | _ -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument msg ->
        List.iter
          (fun affix ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %S names %s" what msg affix)
              true
              (Astring.String.is_infix ~affix msg))
          naming
  in
  let bed = Attacks.Testbed.make ~profile:Profile.v5_draft3 () in
  let me = Client.principal bed.Attacks.Testbed.victim in
  let create ?kdc_timeout ?kdc_deadline () =
    Client.create ?kdc_timeout ?kdc_deadline bed.Attacks.Testbed.net
      bed.Attacks.Testbed.victim_ws ~profile:bed.Attacks.Testbed.profile
      ~kdcs:[ (me.Principal.realm, Attacks.Testbed.kdc_addr bed) ]
      me
  in
  List.iter
    (fun x ->
      refused (Printf.sprintf "kdc_timeout %g" x) ~naming:[ "kdc_timeout" ]
        (fun () -> create ~kdc_timeout:x ());
      refused (Printf.sprintf "kdc_deadline %g" x) ~naming:[ "kdc_deadline" ]
        (fun () -> create ~kdc_deadline:x ()))
    [ -1.0; 0.0; Float.nan; Float.infinity ];
  Attacks.Testbed.login_victim bed;
  let c = bed.Attacks.Testbed.victim in
  let dst = Sim.Host.primary_ip bed.Attacks.Testbed.file_host in
  let dport = bed.Attacks.Testbed.file_port in
  let opened = ref None in
  Client.get_ticket c ~service:bed.Attacks.Testbed.file_principal (fun r ->
      let creds = Attacks.Testbed.expect "file ticket" r in
      Client.ap_exchange c creds ~dst ~dport (fun r ->
          opened := Some (creds, Attacks.Testbed.expect "AP exchange" r)));
  Attacks.Testbed.run bed;
  let creds, chan =
    match !opened with
    | Some x -> x
    | None -> Alcotest.fail "the channel never opened"
  in
  let never _ = Alcotest.fail "a refused call settled" in
  List.iter
    (fun d ->
      let what fn = Printf.sprintf "%s ~deadline:%g" fn d in
      refused (what "ap_exchange") ~naming:[ "Client.ap_exchange"; "deadline" ]
        (fun () -> Client.ap_exchange c creds ~deadline:d ~dst ~dport never);
      refused (what "call_priv") ~naming:[ "Client.call_priv"; "deadline" ]
        (fun () ->
          Client.call_priv c chan ~deadline:d (Bytes.of_string "READ /f0") ~k:never);
      refused (what "call_safe") ~naming:[ "Client.call_safe"; "deadline" ]
        (fun () ->
          Client.call_safe c chan ~deadline:d (Bytes.of_string "READ /f0") ~k:never))
    [ -1.0; Float.nan; Float.infinity ];
  let got = ref [] in
  Client.call_priv c chan ~deadline:0.0 (Bytes.of_string "READ /f0") ~k:(fun r ->
      got := ("zero", r) :: !got;
      Client.call_priv c chan (Bytes.of_string "READ /f0") ~k:(fun r ->
          got := ("after", r) :: !got));
  Attacks.Testbed.run bed;
  match List.rev !got with
  | [ ("zero", Error e); ("after", Ok _) ] ->
      Alcotest.(check string) "a zero deadline has run out" "call timed out" e
  | _ -> Alcotest.fail "expected a timed-out call, then an answered one"

(* The paper's operational gap, both ways: a server restarting with a
   volatile replay cache re-admits a captured authenticator still inside
   the skew window; a persistent cache rejects it. *)
let restart_replay ~persist =
  ignore (Telemetry.Collector.fresh_default ());
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let kdc_host = Sim.Host.create ~name:"kdc" ~ips:[ quad 10 1 0 1 ] () in
  let fs_host = Sim.Host.create ~name:"fs" ~ips:[ quad 10 1 0 2 ] () in
  let ws = Sim.Host.create ~name:"ws" ~ips:[ quad 10 1 0 3 ] () in
  List.iter (Sim.Net.attach net) [ kdc_host; fs_host; ws ];
  let rng = Util.Rng.create 0x5EEDL in
  let db = Kdb.create () in
  Kdb.add_service db (Principal.tgs ~realm) ~key:(Crypto.Des.random_key rng);
  Kdb.add_user db (Principal.user ~realm "pat") ~password:"pat.pw";
  let fileserv = Principal.service ~realm "fileserv" ~host:"fs" in
  let fs_key = Crypto.Des.random_key rng in
  Kdb.add_service db fileserv ~key:fs_key;
  Kdc.install net kdc_host
    (Kdc.create ~realm ~profile:cache_profile ~lifetime:28800.0 db)
    ();
  let fsrv =
    Services.Fileserver.install net fs_host
      ~config:{ Apserver.default_config with persist_replay_cache = persist }
      ~profile:cache_profile ~principal:fileserv ~key:fs_key ~port:600
  in
  let apsrv = Services.Fileserver.apserver fsrv in
  let adv = Sim.Adversary.attach net in
  Sim.Adversary.start_tap adv;
  let c =
    Client.create ~seed:9L net ws ~profile:cache_profile
      ~kdcs:[ (realm, Sim.Host.primary_ip kdc_host) ]
      (Principal.user ~realm "pat")
  in
  let up = ref false in
  Client.login c ~password:"pat.pw" (fun r ->
      ignore (Result.get_ok r);
      Client.get_ticket c ~service:fileserv (fun r ->
          let creds = Result.get_ok r in
          Client.ap_exchange c creds ~dst:(Sim.Host.primary_ip fs_host)
            ~dport:600 (fun r ->
              ignore (Result.get_ok r);
              up := true)));
  Sim.Engine.run eng;
  Alcotest.(check bool) "honest session up" true !up;
  Alcotest.(check int) "one session before the crash" 1
    (Apserver.sessions_established apsrv);
  let ap_req =
    match
      Sim.Adversary.capture_matching adv (fun p ->
          p.Sim.Packet.dport = 600
          &&
          match Frames.unwrap p.Sim.Packet.payload with
          | Some (k, _) -> k = Frames.ap_req
          | None -> false)
    with
    | pkt :: _ -> pkt
    | [] -> Alcotest.fail "no AP_REQ captured"
  in
  Apserver.crash apsrv;
  Apserver.restart apsrv;
  let cache_after_restart = Apserver.replay_cache_size apsrv in
  Sim.Adversary.replay adv ap_req;
  Sim.Engine.run eng;
  let r =
    ( Apserver.sessions_established apsrv,
      Apserver.replay_hits apsrv,
      cache_after_restart )
  in
  ignore (Telemetry.Collector.fresh_default ());
  r

let volatile_restart_admits_replay () =
  let sessions, _, cache = restart_replay ~persist:false in
  Alcotest.(check int) "restart emptied the cache" 0 cache;
  Alcotest.(check int) "replay minted a second session" 2 sessions

let persistent_restart_rejects_replay () =
  let sessions, hits, cache = restart_replay ~persist:true in
  Alcotest.(check bool) "cache restored across restart" true (cache >= 1);
  Alcotest.(check int) "still exactly one session" 1 sessions;
  Alcotest.(check bool) "replay recorded as a hit" true (hits >= 1)

let replay_cache_serialization_roundtrip () =
  let c = Replay_cache.create ~horizon:600.0 () in
  for i = 0 to 9 do
    ignore
      (Replay_cache.check_and_insert c ~now:(float_of_int i)
         (Bytes.of_string (Printf.sprintf "auth-%d" i)))
  done;
  let c' = Replay_cache.of_bytes (Replay_cache.to_bytes c) in
  Alcotest.(check int) "size survives" (Replay_cache.size c)
    (Replay_cache.size c');
  Alcotest.(check bool) "known authenticator still replayed" true
    (Replay_cache.check_and_insert c' ~now:10.0 (Bytes.of_string "auth-3")
    = Replay_cache.Replayed);
  Alcotest.(check bool) "fresh authenticator still fresh" true
    (Replay_cache.check_and_insert c' ~now:10.0 (Bytes.of_string "auth-99")
    = Replay_cache.Fresh);
  (* Expiries survive the roundtrip: everything inserted before the
     snapshot ages out on schedule, the post-restore entry lives on. *)
  Replay_cache.purge c' ~now:609.5;
  Alcotest.(check int) "old entries purged on schedule" 1 (Replay_cache.size c')

let kprop_retries_through_partition () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let master_host = Sim.Host.create ~name:"kerberos-1" ~ips:[ quad 10 2 0 1 ] () in
  let slave_host = Sim.Host.create ~name:"kerberos-2" ~ips:[ quad 10 2 0 2 ] () in
  List.iter (Sim.Net.attach net) [ master_host; slave_host ];
  let rng = Util.Rng.create 0x4B51L in
  let db = Kdb.create () in
  Kdb.add_service db (Principal.tgs ~realm) ~key:(Crypto.Des.random_key rng);
  let admin_p = Principal.user ~realm "kadmin" in
  Kdb.add_user db admin_p ~password:"admin.pw";
  let kpropd_p = Principal.service ~realm "kprop" ~host:"kerberos-2" in
  let kpropd_key = Crypto.Des.random_key rng in
  Kdb.add_service db kpropd_p ~key:kpropd_key;
  Kdc.install net master_host
    (Kdc.create ~realm ~profile:Profile.v5_draft3 ~lifetime:28800.0 db)
    ();
  let slave_db = Kdb.create () in
  let kpropd =
    Services.Kprop.install_slave net slave_host ~profile:Profile.v5_draft3
      ~principal:kpropd_p ~key:kpropd_key ~port:754 ~master:admin_p ~slave_db
  in
  let admin =
    Client.create ~seed:2L net master_host ~profile:Profile.v5_draft3
      ~kdcs:[ (realm, Sim.Host.primary_ip master_host) ]
      admin_p
  in
  let chan_ref = ref None in
  Client.login admin ~password:"admin.pw" (fun r ->
      ignore (Result.get_ok r);
      Client.get_ticket admin ~service:kpropd_p (fun r ->
          let creds = Result.get_ok r in
          Client.ap_exchange admin creds ~dst:(Sim.Host.primary_ip slave_host)
            ~dport:754 (fun r -> chan_ref := Some (Result.get_ok r))));
  Sim.Engine.run eng;
  let chan = Option.get !chan_ref in
  (* The wire to the slave goes dark just as the push starts. *)
  let plane = Sim.Faults.create () in
  Sim.Faults.partition plane
    ~a:[ Sim.Host.primary_ip master_host ]
    ~b:[ Sim.Host.primary_ip slave_host ]
    ();
  Sim.Net.attach_faults net plane;
  let t0 = Sim.Engine.now eng in
  Sim.Engine.schedule eng ~at:(t0 +. 1.3) (fun () ->
      Sim.Faults.heal plane ~now:(Sim.Engine.now eng));
  let result = ref None in
  Services.Kprop.propagate_with_retry ~attempts:4 ~deadline:0.5 ~pause:0.5 admin
    chan ~db ~k:(fun r -> result := Some r);
  Sim.Engine.run eng;
  (match !result with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "propagation failed after heal: %s" e
  | None -> Alcotest.fail "propagation stalled");
  Alcotest.(check bool) "the partition did drop traffic" true
    (Sim.Faults.count plane Sim.Faults.Partition >= 1);
  Alcotest.(check int) "slave refreshed exactly once" 1
    (Services.Kprop.propagations_received kpropd);
  Alcotest.(check int) "databases converged" (Kdb.size db) (Kdb.size slave_db)

let suite_recovery =
  [ Alcotest.test_case "KDC failover to slave" `Quick kdc_failover_to_slave;
    Alcotest.test_case "re-login on TGT expiry" `Quick relogin_on_tgt_expiry;
    Alcotest.test_case "a KDC deadline is not a TGT expiry" `Quick
      deadline_is_not_tgt_expiry;
    Alcotest.test_case "timeouts checked at the boundary" `Quick
      timeouts_checked_at_the_boundary;
    Alcotest.test_case "volatile restart admits replay" `Quick
      volatile_restart_admits_replay;
    Alcotest.test_case "persistent restart rejects replay" `Quick
      persistent_restart_rejects_replay;
    Alcotest.test_case "replay cache serialization" `Quick
      replay_cache_serialization_roundtrip;
    Alcotest.test_case "kprop retry through partition" `Quick
      kprop_retries_through_partition ]

(* ------------------------------------------------------------------ *)
(* The chaos soak                                                      *)
(* ------------------------------------------------------------------ *)

let chaos_run seed =
  Expframework.Session_fuzz.(run_scheme (chaos seed))

let chaos_soak () =
  for seed = 1 to 10 do
    let r = chaos_run (Int64.of_int seed) in
    match Expframework.Session_fuzz.violations r with
    | [] -> ()
    | vs ->
        Alcotest.failf "seed %d: %d violations: %s" seed (List.length vs)
          (String.concat "; " vs)
  done;
  ignore (Telemetry.Collector.fresh_default ())

let chaos_deterministic () =
  let a = chaos_run 5L in
  let b = chaos_run 5L in
  Alcotest.(check bool) "traces byte-identical across runs" true
    (String.equal a.Expframework.Session_fuzz.r_trace
       b.Expframework.Session_fuzz.r_trace);
  Alcotest.(check bool) "the run actually injected faults" true
    (a.Expframework.Session_fuzz.r_faults <> []);
  ignore (Telemetry.Collector.fresh_default ())

(* Pinned from the folded campaign (seed 7 of `session-fuzz --seed 1
   --seeds 20`, shrunk) from before a stream that dies under a channel
   failed the call instead of the simulation. Under chaos weather a bit
   flip lands in the frame length of the big read's stream, the file
   server resets the connection, and the read's retry one second later
   sent on the dead channel, so Tcpish raised out of the engine. Now the
   read fails with a typed error. *)
let chaos_reset_under_read () =
  let open Expframework.Session_fuzz in
  let sc =
    { sc_seed = 1442679080713804749L; sc_mtu = Some 1467; sc_reply_mtu = None;
      sc_noise = false; sc_weather = true;
      sc_ops = [ Read { who = 0; at = 4.74; big = true } ] }
  in
  let r = run_scheme sc in
  (match violations r with
  | [] -> ()
  | vs -> Alcotest.failf "%s" (String.concat "; " vs));
  (* The scheme still reaches the dead stream. *)
  (match r.r_reads with
  | [ { rr_outcome = Some (Error e); _ } ] ->
      Alcotest.(check string) "the read's typed error" "read: channel closed" e
  | _ -> Alcotest.fail "expected one failed read");
  ignore (Telemetry.Collector.fresh_default ())

let suite_chaos =
  [ Alcotest.test_case "10-seed soak holds all invariants" `Quick chaos_soak;
    Alcotest.test_case "identical seed, identical trace" `Quick
      chaos_deterministic;
    Alcotest.test_case "a reset under a read fails the read" `Quick
      chaos_reset_under_read ]

let () =
  Alcotest.run "faults"
    [ ("plane", suite_plane); ("net", suite_net); ("tcpish", suite_tcpish);
      ("recovery", suite_recovery); ("chaos", suite_chaos) ]
