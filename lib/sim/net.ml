type decision = Deliver | Drop | Replace of Packet.t list

type event =
  | Sent of float * Packet.t
  | Delivered of float * Packet.t
  | Dropped of float * Packet.t * string
  | Note of float * string

(* The event trace is a bounded ring: small harness runs (tests, demos,
   chaos determinism checks) stay far below the capacity and see every
   event; a million-request load campaign would otherwise accumulate an
   unbounded list and dominate memory. *)
let trace_capacity = 65_536

type t = {
  eng : Engine.t;
  latency : float;
  rng : Util.Rng.t;
  tel : Telemetry.Collector.t;
  addrs : (Addr.t, unit) Hashtbl.t;  (** attached, for the clash check *)
  ports : (Packet.t -> unit) Endpoint.Table.t;
  mutable taps : (Packet.t -> unit) list;
  mutable interceptor : (Packet.t -> decision) option;
  mutable faults : Faults.t option;
  mutable next_uid : int;
  mutable next_port : int;
  (* Path MTU model: a default for every link plus per-(src,dst) overrides.
     [mtu_active] is the fast-path guard — unconfigured networks (the
     common case, and all of the load campaigns) take a single branch per
     delivery. *)
  mutable default_mtu : int option;
  link_mtus : (Addr.t * Addr.t, int option) Hashtbl.t;
  mutable mtu_active : bool;
  (* Per-packet counters, resolved once at [create] — the hot path never
     hashes a metric name. Per-reason drop counters are memoized below. *)
  c_sent : Telemetry.Metrics.counter;
  c_delivered : Telemetry.Metrics.counter;
  c_dropped : Telemetry.Metrics.counter;
  c_truncated : Telemetry.Metrics.counter;
  drop_counters : (string, Telemetry.Metrics.counter) Hashtbl.t;
  mutable ev_buf : event array;  (** ring; empty until the first record *)
  mutable ev_start : int;
  mutable ev_len : int;
  mutable ev_seen : int;  (** total recorded, monotone across eviction *)
}

let create ?(latency = 0.005) ?(seed = 1L) ?telemetry eng =
  let tel =
    match telemetry with Some c -> c | None -> Telemetry.Collector.default ()
  in
  (* Telemetry time is simulation time, never the wall clock. *)
  Telemetry.Collector.set_clock tel (fun () -> Engine.now eng);
  Engine.attach_telemetry eng tel;
  let m = Telemetry.Collector.metrics tel in
  { eng; latency; rng = Util.Rng.create seed; tel; addrs = Hashtbl.create 16;
    ports = Endpoint.Table.create 64; taps = []; interceptor = None; faults = None;
    next_uid = 0; next_port = 33000;
    default_mtu = None; link_mtus = Hashtbl.create 8; mtu_active = false;
    c_sent = Telemetry.Metrics.counter m "net.packets.sent";
    c_delivered = Telemetry.Metrics.counter m "net.packets.delivered";
    c_dropped = Telemetry.Metrics.counter m "net.packets.dropped";
    c_truncated = Telemetry.Metrics.counter m "net.packets.truncated";
    drop_counters = Hashtbl.create 8;
    ev_buf = [||]; ev_start = 0; ev_len = 0; ev_seen = 0 }

let engine t = t.eng
let now t = Engine.now t.eng
let rng t = t.rng
let telemetry t = t.tel

let record t ev =
  t.ev_seen <- t.ev_seen + 1;
  if Array.length t.ev_buf = 0 then t.ev_buf <- Array.make trace_capacity ev;
  let cap = Array.length t.ev_buf in
  if t.ev_len < cap then begin
    t.ev_buf.((t.ev_start + t.ev_len) mod cap) <- ev;
    t.ev_len <- t.ev_len + 1
  end
  else begin
    t.ev_buf.(t.ev_start) <- ev;
    t.ev_start <- (t.ev_start + 1) mod cap
  end

let note t msg =
  record t (Note (now t, msg));
  Telemetry.Collector.event t.tel ~component:"net" ~kind:"note" [ ("msg", msg) ]

let events t =
  List.init t.ev_len (fun i ->
      t.ev_buf.((t.ev_start + i) mod Array.length t.ev_buf))

let event_count t = t.ev_seen

(* Only the addresses are kept: the network holds no host, so a host
   lives as long as its owner holds it. *)
let attach t host =
  List.iter
    (fun ip ->
      if Hashtbl.mem t.addrs ip then
        invalid_arg (Printf.sprintf "Net.attach: address %s already in use" (Addr.to_string ip));
      Hashtbl.replace t.addrs ip ())
    host.Host.ips

let local_time t host = Host.local_time host ~real:(now t)

(* Where a caller hands the network an address and port. *)
let check_endpoint ~caller addr port =
  if not (Endpoint.packable addr port) then
    invalid_arg
      (Printf.sprintf "%s: %s port %d cannot be packed into an endpoint" caller
         (Addr.to_string addr) port)

let listen t host ~port fn =
  List.iter (fun ip -> check_endpoint ~caller:"Net.listen" ip port) host.Host.ips;
  List.iter
    (fun ip -> Endpoint.Table.replace t.ports (Endpoint.make ip port) fn)
    host.Host.ips

let unlisten t host ~port =
  List.iter
    (fun ip ->
      if Endpoint.packable ip port then
        Endpoint.Table.remove t.ports (Endpoint.make ip port))
    host.Host.ips

let listening t addr ~port =
  Endpoint.packable addr port && Endpoint.Table.mem t.ports (Endpoint.make addr port)
let listener_count t = Endpoint.Table.length t.ports

let ephemeral_port t =
  t.next_port <- t.next_port + 1;
  t.next_port

let refresh_mtu_active t =
  t.mtu_active <-
    t.default_mtu <> None
    || Hashtbl.fold (fun _ v acc -> acc || v <> None) t.link_mtus false

let set_mtu t mtu =
  (match mtu with
  | Some m when m < 16 -> invalid_arg "Net.set_mtu: MTU below 16 bytes"
  | _ -> ());
  t.default_mtu <- mtu;
  refresh_mtu_active t

let set_link_mtu t ~src ~dst mtu =
  (match mtu with
  | Some m when m < 16 -> invalid_arg "Net.set_link_mtu: MTU below 16 bytes"
  | _ -> ());
  Hashtbl.replace t.link_mtus (src, dst) mtu;
  refresh_mtu_active t

let path_mtu t ~src ~dst =
  if not t.mtu_active then None
  else
    match Hashtbl.find_opt t.link_mtus (src, dst) with
    | Some override -> override
    | None -> t.default_mtu

let packet_attrs pkt =
  [ ("src", Printf.sprintf "%s:%d" (Addr.to_string pkt.Packet.src) pkt.Packet.sport);
    ("dst", Printf.sprintf "%s:%d" (Addr.to_string pkt.Packet.dst) pkt.Packet.dport);
    ("bytes", string_of_int (Bytes.length pkt.Packet.payload));
    ("uid", string_of_int pkt.Packet.uid) ]

(* Every packet is one span: begun at transmission (nested, via the
   context stack, under whatever exchange sent it) and finished at
   delivery or drop. The receiving handler runs inside the packet's span
   context, so server-side handling nests under the packet that caused
   it. *)
let begin_packet_span t pkt =
  Telemetry.Collector.span_begin t.tel ~component:"net"
    ~attrs:(fun () -> packet_attrs pkt)
    "net.packet"

(* Every drop also bumps a per-reason counter ("no listener" →
   net.dropped.no-listener) so black holes show up in the metrics export,
   not just the trace. The slugged counter is resolved once per distinct
   reason, then served from the memo table. *)
let drop_reason_slug why = String.map (function ' ' -> '-' | c -> c) why

let drop_counter t why =
  match Hashtbl.find_opt t.drop_counters why with
  | Some c -> c
  | None ->
      let c =
        Telemetry.Metrics.counter
          (Telemetry.Collector.metrics t.tel)
          ("net.dropped." ^ drop_reason_slug why)
      in
      Hashtbl.add t.drop_counters why c;
      c

let drop_packet t span pkt why =
  if not (Telemetry.Collector.lightweight t.tel) then
    record t (Dropped (now t, pkt, why));
  Telemetry.Metrics.incr t.c_dropped;
  Telemetry.Metrics.incr (drop_counter t why);
  Telemetry.Collector.span_finish t.tel ~outcome:("dropped:" ^ why) span

(* MTU truncation is applied at the single delivery choke point so that
   everything obeys the same physics: honest sends, fault-plane duplicates
   and replacements, and adversarial [inject] alike. A datagram longer
   than the path MTU is delivered {e short} — the lost tail is the drop,
   so it rides the same [net.dropped.<reason>] vocabulary as injected
   loss, while the packet itself still counts as delivered. *)
let truncate_for_path t pkt =
  if not t.mtu_active then pkt
  else
    match path_mtu t ~src:pkt.Packet.src ~dst:pkt.Packet.dst with
    | Some mtu when Bytes.length pkt.Packet.payload > mtu ->
        Telemetry.Metrics.incr t.c_truncated;
        Telemetry.Metrics.incr (drop_counter t "truncated");
        if not (Telemetry.Collector.lightweight t.tel) then
          note t
            (Printf.sprintf "mtu: %d-byte datagram %s:%d -> %s:%d truncated to %d"
               (Bytes.length pkt.Packet.payload)
               (Addr.to_string pkt.Packet.src) pkt.Packet.sport
               (Addr.to_string pkt.Packet.dst) pkt.Packet.dport mtu);
        { pkt with Packet.payload = Bytes.sub pkt.Packet.payload 0 mtu }
    | _ -> pkt

let deliver ?(extra = 0.0) t span pkt =
  let pkt = truncate_for_path t pkt in
  Engine.schedule_after t.eng (t.latency +. extra) (fun () ->
      let { Packet.src; sport; dst; dport; _ } = pkt in
      (* Only a replacement from the interceptor can still carry an
         endpoint that does not pack; the receiver never sees it. *)
      if not (Endpoint.packable src sport && Endpoint.packable dst dport) then
        drop_packet t span pkt "unpackable endpoint"
      else
        match Endpoint.Table.find_opt t.ports (Endpoint.make dst dport) with
        | Some fn ->
            if not (Telemetry.Collector.lightweight t.tel) then
              record t (Delivered (now t, pkt));
            Telemetry.Metrics.incr t.c_delivered;
            Telemetry.Collector.with_context t.tel span (fun () -> fn pkt);
            Telemetry.Collector.span_finish t.tel ~outcome:"ok" span
        | None -> drop_packet t span pkt "no listener")

(* The fault plane sits between the adversary and the wire: a packet the
   interceptor lets through (or substitutes) still has to survive the
   network itself. With no plane attached this is the old direct path. *)
let faulted_deliver t span pkt =
  match t.faults with
  | None -> deliver t span pkt
  | Some f -> (
      match Faults.plan f ~now:(now t) pkt with
      | Faults.Pass -> deliver t span pkt
      | Faults.Drop reason -> drop_packet t span pkt ("fault:" ^ reason)
      | Faults.Deliveries deliveries ->
          List.iteri
            (fun i (extra, payload) ->
              let p = { pkt with Packet.payload } in
              if i = 0 then deliver ~extra t span p
              else
                (* An injected duplicate is its own wire event: fresh span,
                   same parent exchange as the original. *)
                let sp =
                  Telemetry.Collector.span_begin t.tel ~component:"net"
                    ?parent:span.Telemetry.Span.parent
                    ~attrs:(fun () -> ("fault", "duplicate") :: packet_attrs p)
                    "net.packet"
                in
                deliver ~extra t sp p)
            deliveries)

let transmit t pkt =
  if not (Telemetry.Collector.lightweight t.tel) then record t (Sent (now t, pkt));
  Telemetry.Metrics.incr t.c_sent;
  let span = begin_packet_span t pkt in
  List.iter (fun tap -> tap pkt) t.taps;
  match t.interceptor with
  | None -> faulted_deliver t span pkt
  | Some f -> (
      match f pkt with
      | Deliver -> faulted_deliver t span pkt
      | Drop -> drop_packet t span pkt "intercepted"
      | Replace pkts ->
          drop_packet t span pkt "replaced in flight";
          (* Replacements nest where the original would have: an operator
             tracing the exchange sees the substitution inside it. *)
          List.iter
            (fun p ->
              let sp =
                Telemetry.Collector.span_begin t.tel ~component:"net"
                  ?parent:span.Telemetry.Span.parent
                  ~attrs:(fun () -> ("injected", "replace") :: packet_attrs p)
                  "net.packet"
              in
              faulted_deliver t sp p)
            pkts)

let send t ?src ~sport ~dst ~dport host payload =
  let src = match src with None -> Host.primary_ip host | Some s -> s in
  if not (List.exists (Addr.equal src) host.Host.ips) then
    invalid_arg "Net.send: source address not owned by sending host";
  check_endpoint ~caller:"Net.send" src sport;
  check_endpoint ~caller:"Net.send" dst dport;
  t.next_uid <- t.next_uid + 1;
  transmit t { Packet.src; sport; dst; dport; payload; uid = t.next_uid }

let inject t pkt =
  check_endpoint ~caller:"Net.inject" pkt.Packet.src pkt.Packet.sport;
  check_endpoint ~caller:"Net.inject" pkt.Packet.dst pkt.Packet.dport;
  t.next_uid <- t.next_uid + 1;
  let pkt = { pkt with Packet.uid = t.next_uid } in
  record t (Sent (now t, pkt));
  Telemetry.Metrics.incr t.c_sent;
  List.iter (fun tap -> tap pkt) t.taps;
  let span =
    Telemetry.Collector.span_begin t.tel ~component:"net"
      ~attrs:(fun () -> ("injected", "true") :: packet_attrs pkt)
      "net.packet"
  in
  deliver t span pkt

let add_tap t fn = t.taps <- t.taps @ [ fn ]
let set_interceptor t fn = t.interceptor <- Some fn
let clear_interceptor t = t.interceptor <- None

let attach_faults t f =
  t.faults <- Some f;
  Faults.set_on_fire f (fun kind ->
      Telemetry.Metrics.incr
        (Telemetry.Metrics.counter
           (Telemetry.Collector.metrics t.tel)
           ("fault.injected." ^ Faults.kind_name kind)))

let detach_faults t = t.faults <- None
let faults t = t.faults

let pp_event ppf = function
  | Sent (ts, p) -> Format.fprintf ppf "[%8.4f] send    %a" ts Packet.pp p
  | Delivered (ts, p) -> Format.fprintf ppf "[%8.4f] deliver %a" ts Packet.pp p
  | Dropped (ts, p, why) -> Format.fprintf ppf "[%8.4f] drop    %a (%s)" ts Packet.pp p why
  | Note (ts, msg) -> Format.fprintf ppf "[%8.4f] note    %s" ts msg
