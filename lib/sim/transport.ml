(* UDP-first transport with fallback to framed Tcpish — the cerberus
   shape: try the datagram, and when the response cannot fit (or keeps
   arriving truncated) redo the exchange over a stream. The simulator has
   a single port namespace, so a service's stream endpoint lives at a
   fixed offset from its datagram port. *)

let tcp_port_offset = 20000
let tcp_port p = p + tcp_port_offset

type classification = Accept | Response_too_big | Garbled

let bump net name =
  Telemetry.Metrics.incr
    (Telemetry.Metrics.counter (Telemetry.Collector.metrics (Net.telemetry net)) name)

type peer = {
  p_addr : Addr.t;
  p_port : int;
  p_local : Addr.t;
  p_via : [ `Udp | `Tcp ];
}

type server = {
  s_net : Net.t;
  s_host : Host.t;
  s_port : int;
  mutable s_live : bool;
}

let serve net host ~port ?too_big handler =
  (* Datagram endpoint: replies that would be truncated on the way back
     are replaced by the service's refusal (KRB_ERR_RESPONSE_TOO_BIG in
     the Kerberos planes) so the client knows to come back over TCP —
     a truncated refusal still parses, because refusals are tiny. *)
  Net.listen net host ~port (fun pkt ->
      let peer =
        { p_addr = pkt.Packet.src; p_port = pkt.Packet.sport;
          p_local = pkt.Packet.dst; p_via = `Udp }
      in
      let reply resp =
        let mtu = Net.path_mtu net ~src:pkt.Packet.dst ~dst:pkt.Packet.src in
        let resp =
          match (mtu, too_big) with
          | Some m, Some refusal when Bytes.length resp > m ->
              bump net "transport.responses_too_big";
              refusal ~mtu:m
          | _ -> resp
        in
        Net.send net ~src:pkt.Packet.dst ~sport:port ~dst:pkt.Packet.src
          ~dport:pkt.Packet.sport host resp
      in
      handler ~peer pkt.Packet.payload ~reply);
  (* Stream endpoint: same handler, message-framed, no size limit. A
     reply the handler holds (a queued KDC request) may find its
     connection already torn down by the caller's budget or a reset:
     it is dropped and counted. *)
  Tcpish.listen net host ~port:(tcp_port port)
    ~on_accept:(fun conn ->
      let addr, pport = Tcpish.peer conn in
      let peer =
        { p_addr = addr; p_port = pport; p_local = fst (Tcpish.local conn);
          p_via = `Tcp }
      in
      Tcpish.on_message conn (fun msg ->
          handler ~peer msg ~reply:(fun resp ->
              if Tcpish.closed conn then bump net "transport.tcp.replies_dropped"
              else Tcpish.send_message conn resp)))
    ();
  { s_net = net; s_host = host; s_port = port; s_live = true }

let shutdown s =
  if s.s_live then begin
    s.s_live <- false;
    Net.unlisten s.s_net s.s_host ~port:s.s_port;
    Net.unlisten s.s_net s.s_host ~port:(tcp_port s.s_port)
  end

let call net host ?src ?(timeout = 1.0) ?(retries = 0) ?(backoff = 2.0)
    ?(max_timeout = 8.0) ?(jitter = 0.1) ?(tcp_timeout = 2.0) ?deadline
    ?(classify = fun _ -> Accept) ~dst ~dport payload ~on_reply ~on_timeout =
  (* The stream leg's budget timer, disarmed by whichever outcome settles
     the call first so the request's graph leaves the event queue with
     it. The datagram leg's timers are {!Rpc.call}'s own. *)
  let finished = ref false and budget_timer = ref None in
  let finish k =
    if not !finished then begin
      finished := true;
      Option.iter Engine.disarm !budget_timer;
      k ()
    end
  in
  let span =
    Telemetry.Collector.span_begin (Net.telemetry net) ~component:"transport"
      "transport.call"
  in
  let settle outcome k =
    Telemetry.Collector.span_finish (Net.telemetry net) ~outcome span;
    k ()
  in
  (* The caller's overall patience, counted from the moment the call
     starts. Neither leg may overshoot what is left of it: a datagram
     attempt's retransmit timers are cut to it, and a fallback entered
     with 200 ms remaining gets a 200 ms connection budget, not the full
     [tcp_timeout]. *)
  let expires =
    match deadline with
    | None -> infinity
    | Some d -> Engine.now (Net.engine net) +. d
  in
  let remaining () = expires -. Engine.now (Net.engine net) in
  (* The stream leg: connect, send the request as one framed message,
     take the first framed reply. A connection that resets or never
     completes within [tcp_timeout] (clamped to the caller's remaining
     deadline) counts as a timeout; an already-exhausted deadline fails
     the leg without touching the network. *)
  let tcp_leg ~why () =
    let budget = Float.min tcp_timeout (remaining ()) in
    if budget <= 0.0 then begin
      bump net "transport.deadline_exhausted";
      finish (fun () -> settle "timeout" on_timeout)
    end
    else begin
      bump net ("transport.fallback." ^ why);
      bump net "transport.tcp.calls";
      let conn =
        Tcpish.connect net host ?src ~dst ~dport:(tcp_port dport)
          ~on_connected:(fun conn ->
            Tcpish.on_message conn (fun msg ->
                if not !finished then begin
                  bump net "transport.tcp.replies";
                  Tcpish.close conn;
                  finish (fun () -> settle "ok" (fun () -> on_reply msg))
                end);
            Tcpish.send_message conn payload)
          ()
      in
      Tcpish.on_close conn (fun ~reset ->
          if reset then
            finish (fun () -> settle "reset" on_timeout));
      budget_timer :=
        Some
          (Engine.arm_after (Net.engine net) budget (fun () ->
               Tcpish.abort conn;
               finish (fun () -> settle "timeout" on_timeout)))
    end
  in
  (* An attempt that expires at the deadline counts as the deadline
     spent. *)
  let udp_leg () =
    bump net "transport.udp.calls";
    let garbled = ref 0 in
    let rec attempt () =
      let deadline = Option.map (fun _ -> remaining ()) deadline in
      Rpc.call net host ?src ~timeout ~retries ~backoff ~max_timeout ~jitter
        ?deadline ~dst ~dport payload
        ~on_reply:(fun pkt ->
          match classify pkt.Packet.payload with
          | Accept ->
              bump net "transport.udp.replies";
              finish (fun () -> settle "ok" (fun () -> on_reply pkt.Packet.payload))
          | Response_too_big ->
              if not !finished then tcp_leg ~why:"response_too_big" ()
          | Garbled ->
              bump net "transport.truncated";
              incr garbled;
              if !finished then ()
              else if !garbled >= 2 then tcp_leg ~why:"truncation" ()
              else attempt ())
        ~on_timeout:(fun () ->
          if remaining () <= 0.0 then bump net "transport.deadline_exhausted";
          finish (fun () -> settle "timeout" on_timeout))
    in
    attempt ()
  in
  (* The request itself may not fit the path MTU (TGS and AP requests
     carry whole tickets): the sender can see its own interface MTU, so
     it skips the doomed datagram and goes straight to the stream. *)
  let src_addr = match src with Some a -> a | None -> Host.primary_ip host in
  match Net.path_mtu net ~src:src_addr ~dst with
  | Some mtu when Bytes.length payload > mtu -> tcp_leg ~why:"request_too_big" ()
  | _ -> udp_leg ()
