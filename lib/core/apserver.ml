type config = {
  accept_forwarded : bool;
  trusted_transit : string list;
  skew : float;
  refuse_dup_skey : bool;
  max_peers : int;
  persist_replay_cache : bool;
}

let default_config =
  { accept_forwarded = false; trusted_transit = []; skew = 300.0;
    refuse_dup_skey = false; max_peers = 4096; persist_replay_cache = false }

type pending = {
  pend_ticket : Messages.ticket;
  pend_nonce : int64;
  pend_server_part : bytes option;
  pend_seq_init : int option;  (** server's chosen initial sequence number *)
}

type peer_state =
  | Awaiting_response of pending  (** challenge sent, waiting for the reply *)
  | Established of Session.t * Principal.t

(* Where a frame came from and how to answer it — the same shape whether
   the frame arrived as a datagram or on a stream connection. Datagram
   replies go back through the transport's MTU guard; stream replies ride
   the connection that carried the request. *)
type ctx = {
  cx_src : Sim.Addr.t;
  cx_sport : int;
  cx_own : Sim.Addr.t;  (** the server address the frame arrived at *)
  cx_reply : bytes -> unit;  (** whole framed bytes *)
}

type t = {
  net : Sim.Net.t;
  host : Sim.Host.t;
  profile : Profile.t;
  principal : Principal.t;
  key : bytes;
  port : int;
  config : config;
  rng : Util.Rng.t;
  mutable cache : Replay_cache.t option;
  mutable disk : bytes option;
      (** persisted replay-cache snapshot, written at crash *)
  mutable running : bool;
  mutable endpoint : Sim.Transport.server option;
  peers : peer_state Sim.Endpoint.Table.t;
  peer_order : Sim.Endpoint.t Queue.t;  (** insertion order, for eviction *)
  handler : Session.t -> client:Principal.t -> bytes -> bytes option;
  mutable established : int;
  mutable rejected : (int * string) list;
  tel : Telemetry.Collector.t;
  c_established : Telemetry.Metrics.counter;
  c_rejected : Telemetry.Metrics.counter;
  c_replay_hits : Telemetry.Metrics.counter;
  mutable pending_outcome : string option;
      (** outcome of the frame being handled, set by the failure paths and
          read back by the per-frame span when the handler returns *)
}

let sessions_established t = t.established
let rejections t = t.rejected
let running t = t.running

let replay_hits t = Telemetry.Metrics.value t.c_replay_hits

let replay_cache_size t =
  match t.cache with None -> 0 | Some c -> Replay_cache.size c

let peer_state_size t = Sim.Endpoint.Table.length t.peers

(* The peer table and its eviction queue measured twice, once as they are
   and once emptied to the same bucket count, with the shared values in
   both measurements so that only what the bindings hold alone remains. *)
let peer_state_words t =
  let shared =
    Sim.Endpoint.Table.fold
      (fun _ state acc ->
        match state with
        | Established (s, _) -> Obj.repr s.Session.sched :: acc
        | Awaiting_response _ -> acc)
      t.peers [ Obj.repr t.profile ]
  in
  let words x = Obj.reachable_words (Obj.repr x) in
  let buckets = (Sim.Endpoint.Table.stats t.peers).Hashtbl.num_buckets in
  words (t.peers, t.peer_order, shared)
  - words (Sim.Endpoint.Table.create buckets, Queue.create (), shared)

(* Insert peer state, evicting the oldest entries beyond the bound. An
   evicted pending challenge simply forces the honest client to start
   over; an evicted session forces re-authentication. *)
let put_peer t key state =
  if not (Sim.Endpoint.Table.mem t.peers key) then Queue.push key t.peer_order;
  Sim.Endpoint.Table.replace t.peers key state;
  while Sim.Endpoint.Table.length t.peers > t.config.max_peers do
    match Queue.take_opt t.peer_order with
    | None -> Sim.Endpoint.Table.reset t.peers
    | Some oldest -> Sim.Endpoint.Table.remove t.peers oldest
  done

(* The network delivers only frames whose ends pack, so this never
   raises. *)
let peer_of cx = Sim.Endpoint.make cx.cx_src cx.cx_sport

let reply _t ~cx kind payload = cx.cx_reply (Frames.wrap kind payload)

(* Mark how the current frame ended; replays additionally feed the
   operator view and the per-service replay counter. *)
let flag_outcome t outcome =
  t.pending_outcome <- Some outcome;
  if outcome = "replay-detected" then begin
    Telemetry.Opsview.record_replay
      (Telemetry.Collector.ops t.tel)
      ~component:("ap." ^ Principal.to_string t.principal);
    Telemetry.Metrics.incr t.c_replay_hits
  end

let reject t ~cx (r : Ap_check.reject) =
  t.rejected <- (r.code, r.reason) :: t.rejected;
  Telemetry.Metrics.incr t.c_rejected;
  flag_outcome t (Ap_check.outcome_of_reject r);
  Sim.Net.note t.net
    (Printf.sprintf "%s: rejected AP attempt (%s)" t.host.Sim.Host.name r.reason);
  reply t ~cx Frames.error
    (Messages.encode_msg t.profile ~tag:Messages.tag_err
       (Messages.err_to_value { Messages.e_code = r.code; e_text = r.reason }))

let now t = Sim.Net.local_time t.net t.host

(* The detection-plane hook: every ticket that decrypts and passes
   validation reports its shape — the fields a forged ticket must fake
   and the rules key on. Emitted before the authenticator check, so a
   well-sealed forgery is visible even if its authenticator later
   fails. *)
let emit_ticket_validated t ~cx (ticket : Messages.ticket) =
  if Telemetry.Collector.wants_events t.tel then
    Telemetry.Collector.event t.tel ~component:"apserver" ~kind:"ticket.validated"
      [ ("src", Sim.Addr.to_string cx.cx_src);
        ("client", Principal.to_string ticket.Messages.client);
        ("service", Principal.to_string t.principal);
        ("lifetime", Printf.sprintf "%g" ticket.Messages.lifetime);
        ("issued_at", Printf.sprintf "%g" ticket.Messages.issued_at);
        ( "addr",
          match ticket.Messages.addr with Some _ -> "bound" | None -> "none" ) ]

let fresh_parts t =
  let server_part =
    if t.profile.Profile.negotiate_session_key then Some (Util.Rng.bytes t.rng 8)
    else None
  in
  let seq_init =
    match t.profile.Profile.priv_replay with
    | Profile.Priv_sequence -> Some (Util.Rng.int t.rng 1_000_000)
    | Profile.Priv_timestamp -> None
  in
  (server_part, seq_init)

(* A negotiating profile needs the client's part; a peer that leaves it
   out is refused like any other malformed exchange. *)
let establish t ~cx ~(ticket : Messages.ticket) ~client_part ~server_part
    ~client_seq ~server_seq =
  match
    Session.derived_key t.profile ~multi:ticket.Messages.session_key
      ~client_part ~server_part
  with
  | Error reason -> Error { Ap_check.code = Messages.err_bad_integrity; reason }
  | Ok key ->
      (* A draw per session whose value is unused: it keeps the server's
         random stream, and so every seeded run, as recorded. *)
      ignore (Util.Rng.next_int64 t.rng);
      let session =
        Session.make ~profile:t.profile ~role:Session.Server_side
          ~key ~own_addr:cx.cx_own ~peer_addr:cx.cx_src
          ~send_seq:(Option.value server_seq ~default:0)
          ~recv_seq:(Option.value client_seq ~default:0)
      in
      put_peer t (peer_of cx) (Established (session, ticket.Messages.client));
      t.established <- t.established + 1;
      Telemetry.Metrics.incr t.c_established;
      Ok ()

(* --- Timestamp-authenticator path ---------------------------------- *)

let handle_ap_timestamp t ~cx ~skew (r : Messages.ap_req) =
  match
    Ap_check.validate_ticket ~profile:t.profile ~service_key:t.key
      ~principal:t.principal ~now:(now t) ~src_addr:cx.cx_src
      ~accept_forwarded:t.config.accept_forwarded
      ~trusted_transit:t.config.trusted_transit
      ~refuse_dup_skey:t.config.refuse_dup_skey r.r_ticket
  with
  | Error rej -> reject t ~cx rej
  | Ok ticket -> (
      emit_ticket_validated t ~cx ticket;
      match
        Ap_check.validate_authenticator ~profile:t.profile ~ticket
          ~ticket_blob:r.r_ticket ~principal:t.principal ~now:(now t) ~skew
          ~cache:t.cache r.r_authenticator
      with
      | Error rej -> reject t ~cx rej
      | Ok auth -> (
          let server_part, server_seq = fresh_parts t in
          match
            establish t ~cx ~ticket ~client_part:auth.a_subkey_part ~server_part
              ~client_seq:auth.a_seq_init ~server_seq
          with
          | Error rej -> reject t ~cx rej
          | Ok () ->
              let body =
                if r.r_mutual || server_part <> None || server_seq <> None then
                  Messages.seal_msg t.profile t.rng ~key:ticket.Messages.session_key
                    ~tag:Messages.tag_ap_rep_body
                    (Messages.ap_rep_body_to_value
                       { Messages.ar_timestamp = auth.a_timestamp +. 1.0;
                         ar_subkey_part = server_part; ar_seq_init = server_seq })
                else Bytes.empty
              in
              reply t ~cx Frames.ap_ok body))

(* --- Challenge/response path --------------------------------------- *)

let handle_ap_challenge t ~cx (r : Messages.ap_req) =
  match
    Ap_check.validate_ticket ~profile:t.profile ~service_key:t.key
      ~principal:t.principal ~now:(now t) ~src_addr:cx.cx_src
      ~accept_forwarded:t.config.accept_forwarded
      ~trusted_transit:t.config.trusted_transit
      ~refuse_dup_skey:t.config.refuse_dup_skey r.r_ticket
  with
  | Error rej -> reject t ~cx rej
  | Ok ticket ->
      emit_ticket_validated t ~cx ticket;
      (* No authenticator, no clock: issue a nonce under the session key.
         The state burden ("all servers must then retain state") is this
         table entry. *)
      let nonce = Util.Rng.next_int64 t.rng in
      let server_part, server_seq = fresh_parts t in
      let pending =
        { pend_ticket = ticket; pend_nonce = nonce; pend_server_part = server_part;
          pend_seq_init = server_seq }
      in
      put_peer t (peer_of cx) (Awaiting_response pending);
      let body =
        Messages.seal_msg t.profile t.rng ~key:ticket.Messages.session_key
          ~tag:Messages.tag_challenge
          (Messages.challenge_to_value
             { Messages.c_nonce = nonce; c_server_part = server_part;
               c_seq_init = server_seq })
      in
      reply t ~cx Frames.challenge body

let handle_challenge_resp t ~cx pending payload =
  match
    Messages.open_msg t.profile ~key:pending.pend_ticket.Messages.session_key
      ~tag:Messages.tag_challenge_resp payload
  with
  | Error e ->
      reject t ~cx { Ap_check.code = Messages.err_bad_integrity; reason = e }
  | Ok v -> (
      match Messages.challenge_resp_of_value v with
      | exception Wire.Codec.Decode_error e ->
          reject t ~cx { Ap_check.code = Messages.err_bad_integrity; reason = e }
      | resp ->
          if resp.cr_nonce_f <> Int64.add pending.pend_nonce 1L then
            reject t ~cx
              { Ap_check.code = Messages.err_bad_integrity;
                reason = "challenge response incorrect" }
          else
            match
              establish t ~cx ~ticket:pending.pend_ticket
                ~client_part:resp.cr_client_part ~server_part:pending.pend_server_part
                ~client_seq:resp.cr_seq_init ~server_seq:pending.pend_seq_init
            with
            | Error rej -> reject t ~cx rej
            | Ok () -> reply t ~cx Frames.ap_ok Bytes.empty)

(* --- Established-session traffic ----------------------------------- *)

let priv_outcome = function
  | Krb_priv.Replay -> "replay-detected"
  | Krb_priv.Stale _ -> "skew"
  | Krb_priv.Garbled -> "bad-integrity"
  | Krb_priv.Bad_direction -> "bad-direction"
  | Krb_priv.Bad_address -> "bad-address"
  | Krb_priv.Out_of_sequence _ -> "out-of-sequence"

let safe_outcome = function
  | Krb_safe.Bad_checksum -> "bad-checksum"
  | Krb_safe.Stale _ -> "skew"
  | Krb_safe.Replay -> "replay-detected"
  | Krb_safe.Out_of_sequence -> "out-of-sequence"
  | Krb_safe.Malformed -> "bad-integrity"

let handle_priv t ~cx session client payload =
  match Krb_priv.open_ session ~now:(now t) payload with
  | Error e ->
      flag_outcome t (priv_outcome e);
      Sim.Net.note t.net
        (Printf.sprintf "%s: KRB_PRIV rejected (%s)" t.host.Sim.Host.name
           (Krb_priv.error_to_string e))
  | Ok data -> (
      match t.handler session ~client data with
      | None -> ()
      | Some resp ->
          reply t ~cx Frames.priv (Krb_priv.seal session ~now:(now t) resp))

let handle_safe t ~cx session client payload =
  match Krb_safe.open_ session ~now:(now t) payload with
  | Error e ->
      flag_outcome t (safe_outcome e);
      Sim.Net.note t.net
        (Printf.sprintf "%s: KRB_SAFE rejected (%s)" t.host.Sim.Host.name
           (Krb_safe.error_to_string e))
  | Ok data -> (
      match t.handler session ~client data with
      | None -> ()
      | Some resp ->
          reply t ~cx Frames.safe (Krb_safe.seal session ~now:(now t) resp))

(* --- Frame dispatch and lifecycle ---------------------------------- *)

let handle_frame t ~cx raw =
  match Frames.unwrap raw with
  | None -> ()
  | Some (kind, payload) -> (
      let peer = peer_of cx in
      (* One span per recognized frame, nested under the packet span;
         replies sent inside the handler nest under it in turn. The
         failure paths record the outcome via [flag_outcome]. *)
      let traced name handler =
        let span =
          Telemetry.Collector.span_begin t.tel ~component:"apserver" name
            ~attrs:(fun () ->
              [ ("service", Principal.to_string t.principal);
                ("src", Sim.Addr.to_string cx.cx_src) ])
        in
        t.pending_outcome <- None;
        Telemetry.Collector.with_context t.tel span handler;
        let outcome = Option.value t.pending_outcome ~default:"ok" in
        Telemetry.Collector.span_finish t.tel ~outcome span;
        (* The detection-plane hook: per-frame outcome from this source —
           follow-up activity for the harvest rule, replay/address/checksum
           outcomes for theirs. *)
        if Telemetry.Collector.wants_events t.tel then
          Telemetry.Collector.event t.tel ~component:"apserver" ~kind:"auth.ap_req"
            [ ("src", Sim.Addr.to_string cx.cx_src);
              ("service", Principal.to_string t.principal); ("frame", name);
              ("outcome", outcome) ];
        t.pending_outcome <- None
      in
      match (kind, Sim.Endpoint.Table.find_opt t.peers peer) with
      | k, _ when k = Frames.ap_req ->
          traced "ap.req" (fun () ->
              match
                Messages.ap_req_of_value
                  (Wire.Encoding.decode t.profile.Profile.encoding payload)
              with
              | exception Wire.Codec.Decode_error e ->
                  reject t ~cx { Ap_check.code = Messages.err_generic; reason = e }
              | r -> (
                  match t.profile.Profile.ap_auth with
                  | Profile.Timestamp { skew; _ } ->
                      handle_ap_timestamp t ~cx ~skew:(min skew t.config.skew) r
                  | Profile.Challenge_response -> handle_ap_challenge t ~cx r))
      | k, Some (Awaiting_response pending) when k = Frames.challenge_resp ->
          traced "ap.challenge_resp" (fun () ->
              handle_challenge_resp t ~cx pending payload)
      | k, Some (Established (session, client)) when k = Frames.priv ->
          traced "ap.priv" (fun () -> handle_priv t ~cx session client payload)
      | k, Some (Established (session, client)) when k = Frames.safe ->
          traced "ap.safe" (fun () -> handle_safe t ~cx session client payload)
      | _ ->
          Sim.Net.note t.net
            (Printf.sprintf "%s: unexpected frame %d" t.host.Sim.Host.name kind))

(* Both endpoints — datagrams on [port], framed stream on the paired TCP
   port — feed the same frame dispatcher; the context records where the
   frame came from and how to answer it. An AP reply that cannot fit the
   return-path MTU is replaced by a RESPONSE-TOO-BIG error frame, which
   tells the client library to redo the exchange over the stream. *)
let serve_endpoint t =
  let refusal ~mtu:_ =
    Frames.wrap Frames.error
      (Messages.encode_msg t.profile ~tag:Messages.tag_err
         (Messages.err_to_value
            { Messages.e_code = Messages.err_response_too_big;
              e_text = "response exceeds path MTU" }))
  in
  let ep =
    Sim.Transport.serve t.net t.host ~port:t.port ~too_big:refusal
      (fun ~peer raw ~reply ->
        let cx =
          { cx_src = peer.Sim.Transport.p_addr;
            cx_sport = peer.Sim.Transport.p_port;
            cx_own = peer.Sim.Transport.p_local; cx_reply = reply }
        in
        handle_frame t ~cx raw)
  in
  t.endpoint <- Some ep

let fresh_cache ~profile ~config =
  match profile.Profile.ap_auth with
  | Profile.Timestamp { replay_cache = true; _ } ->
      Some (Replay_cache.create ~horizon:(2.0 *. config.skew) ())
  | _ -> None

(* A crash loses everything in memory: the port, every pending challenge
   and established session — and, unless the configuration keeps the
   replay cache on disk, the replay cache too. That last loss is the
   paper's warning: after a fast restart, every authenticator still
   inside the skew window is fresh again. *)
let crash t =
  if t.running then begin
    t.running <- false;
    (match t.endpoint with Some ep -> Sim.Transport.shutdown ep | None -> ());
    t.endpoint <- None;
    t.disk <-
      (match t.cache with
      | Some c when t.config.persist_replay_cache -> Some (Replay_cache.to_bytes c)
      | _ -> None);
    t.cache <- None;
    Sim.Endpoint.Table.reset t.peers;
    Queue.clear t.peer_order;
    Sim.Net.note t.net
      (Printf.sprintf "%s: %s crashed" t.host.Sim.Host.name
         (Principal.to_string t.principal))
  end

let restart t =
  if not t.running then begin
    t.running <- true;
    t.cache <-
      (match t.disk with
      | Some b -> Some (Replay_cache.of_bytes ~now:(now t) b)
      | None -> fresh_cache ~profile:t.profile ~config:t.config);
    t.disk <- None;
    serve_endpoint t;
    Sim.Net.note t.net
      (Printf.sprintf "%s: %s restarted%s" t.host.Sim.Host.name
         (Principal.to_string t.principal)
         (match t.cache with
         | Some c when t.config.persist_replay_cache ->
             Printf.sprintf " (replay cache restored, %d entries)"
               (Replay_cache.size c)
         | _ -> ""))
  end

let install ?(seed = 0x5345525645L) ?(config = default_config) net host ~profile
    ~principal ~key ~port ~handler () =
  let tel = Sim.Net.telemetry net in
  let m = Telemetry.Collector.metrics tel in
  let fresh base = Telemetry.Metrics.counter m (Telemetry.Metrics.fresh_name m base) in
  let svc = "ap." ^ Principal.to_string principal in
  let t =
    { net; host; profile; principal; key; port; config; rng = Util.Rng.create seed;
      cache = fresh_cache ~profile ~config; disk = None; running = true;
      peers = Sim.Endpoint.Table.create 16; peer_order = Queue.create (); handler;
      established = 0; rejected = []; tel;
      c_established = fresh (svc ^ ".sessions_established");
      c_rejected = fresh (svc ^ ".ap_rejects");
      c_replay_hits = fresh (svc ^ ".replay_hits");
      pending_outcome = None; endpoint = None }
  in
  serve_endpoint t;
  t
