type credentials = {
  service : Principal.t;
  ticket : bytes;
  session_key : bytes;
  issued_at : float;
  lifetime : float;
}

(* Per-KDC circuit breaker state. Closed: [br_open_until = 0], counting
   consecutive failures. Open: [now < br_open_until], the KDC is skipped
   without sending. Half-open: the cooldown has passed but
   [br_open_until] is still set — one probe request goes through, and a
   single failure re-trips the breaker immediately (no need to count back
   up to the threshold) while a success closes it fully. *)
type breaker = { mutable br_fails : int; mutable br_open_until : float }

type t = {
  net : Sim.Net.t;
  host : Sim.Host.t;
  profile : Profile.t;
  kdcs : (string * Sim.Addr.t) list;
  me : Principal.t;
  rng : Util.Rng.t;
  password : string option;  (** remembered for re-login on TGT expiry *)
  kdc_timeout : float;
  kdc_retries : int;
  ccache : bool;
  kdc_rotation : bool;
  mutable rotation : int;  (** next starting index into the KDC list *)
  mutable svc_creds : (string * credentials) list;
      (** in-memory view of the /tmp/tkt<uid> service-ticket entries: one
          per service name asked for, newest first, scanned in turn *)
  mutable ccache_hits : int;
  mutable ccache_misses : int;
  mutable degraded : int;
      (** requests served from the wallet because no KDC answered *)
  mutable tgt_creds : credentials option;
  (* Overload hygiene (all off by default — the storm-prone historical
     client). *)
  retry_budget : int option;  (** token-bucket capacity; [None] = unlimited *)
  mutable budget_tokens : float;
  breaker_threshold : int option;  (** consecutive failures before trip *)
  breaker_cooldown : float;
  mutable breakers : (Sim.Addr.t * breaker) list;
      (** one per KDC called, and only under [breaker_threshold] *)
  honor_retry_after : bool;
  kdc_deadline : float option;
      (** overall per-exchange patience, stamped into the request *)
  mutable busy_received : int;
  mutable breaker_trips : int;
  mutable budget_exhausted : int;
}

let create ?(seed = 0x434c49L) ?password ?(kdc_timeout = 1.0) ?(kdc_retries = 0)
    ?(ccache = false) ?(kdc_rotation = false) ?retry_budget ?breaker_threshold
    ?(breaker_cooldown = 5.0) ?(honor_retry_after = false) ?kdc_deadline net
    host ~profile ~kdcs me =
  (match retry_budget with
  | Some b when b < 0 -> invalid_arg "Client.create: negative retry_budget"
  | _ -> ());
  (match breaker_threshold with
  | Some n when n <= 0 ->
      invalid_arg "Client.create: breaker_threshold must be positive"
  | _ -> ());
  if breaker_cooldown < 0.0 then
    invalid_arg "Client.create: negative breaker_cooldown";
  let positive_finite name x =
    if not (Float.is_finite x && x > 0.0) then
      invalid_arg
        ("Client.create: " ^ name ^ " must be a positive finite number")
  in
  positive_finite "kdc_timeout" kdc_timeout;
  Option.iter (positive_finite "kdc_deadline") kdc_deadline;
  (* The deadline envelope is a [Tagged] wrapper, and V4's encoding drops
     tags: the KDC would read the envelope as a malformed request. *)
  (match (kdc_deadline, profile.Profile.encoding) with
  | Some _, Wire.Encoding.V4_adhoc ->
      invalid_arg "Client.create: kdc_deadline needs a tagged encoding, not V4's"
  | _ -> ());
  { net; host; profile; kdcs; me; rng = Util.Rng.create seed; password;
    kdc_timeout; kdc_retries; ccache; kdc_rotation; rotation = 0;
    svc_creds = []; ccache_hits = 0; ccache_misses = 0;
    degraded = 0; tgt_creds = None;
    retry_budget;
    budget_tokens =
      (match retry_budget with Some b -> float_of_int b | None -> 0.0);
    breaker_threshold; breaker_cooldown; breakers = [];
    honor_retry_after; kdc_deadline;
    busy_received = 0; breaker_trips = 0; budget_exhausted = 0 }

let principal t = t.me
let host t = t.host
let net t = t.net
let client_profile t = t.profile
let client_rng t = t.rng
let tgt t = t.tgt_creds
let adopt_tgt t creds = t.tgt_creds <- Some creds

let now t = Sim.Net.local_time t.net t.host

(* Every entry for the realm, in configuration order: the first is the
   master, the rest the slaves Project Athena ran "so workstations always
   had a reachable KDC". *)
let kdc_addrs t realm =
  List.filter_map
    (fun (r, a) -> if String.equal r realm then Some a else None)
    t.kdcs

(* Under rotation the same list doubles as a load-balancing schedule:
   each logical request starts one position further along and wraps, so a
   pool of KDCs shares the steady-state load while silence still fails
   over to every other member. *)
let rotated t addrs =
  if not t.kdc_rotation then addrs
  else begin
    let n = List.length addrs in
    let k = if n = 0 then 0 else t.rotation mod n in
    t.rotation <- t.rotation + 1;
    let rec split i acc = function
      | rest when i = k -> rest @ List.rev acc
      | x :: rest -> split (i + 1) (x :: acc) rest
      | [] -> List.rev acc
    in
    split 0 [] addrs
  end

(* How the client's decoder judges a datagram reply from the KDC, for the
   transport's fallback decision: an explicit RESPONSE-TOO-BIG refusal
   switches the exchange to the stream leg, an undecodable blob (e.g. an
   MTU-truncated tail) is a garble; everything else — replies and other
   KDC errors alike — is the caller's to interpret. *)
let classify_kdc_reply t payload =
  match Wire.Encoding.decode_result t.profile.Profile.encoding payload with
  | Error _ -> Sim.Transport.Garbled
  | Ok v -> (
      match Messages.err_of_value v with
      | e when e.Messages.e_code = Messages.err_response_too_big ->
          Sim.Transport.Response_too_big
      | _ -> Sim.Transport.Accept
      | exception Wire.Codec.Decode_error _ -> Sim.Transport.Accept)

(* --- Retry budget: a token bucket spent on retries (failover hops and
   busy-waits), refilled by successes. A client that only ever succeeds
   keeps a full bucket; one that is mostly failing runs dry and stops
   amplifying the storm. The first attempt of an exchange is free — the
   budget bounds *extra* load, not the offered load itself. *)

let budget_take t =
  match t.retry_budget with
  | None -> true
  | Some _ ->
      if t.budget_tokens >= 1.0 then begin
        t.budget_tokens <- t.budget_tokens -. 1.0;
        true
      end
      else begin
        t.budget_exhausted <- t.budget_exhausted + 1;
        false
      end

let budget_refill t =
  match t.retry_budget with
  | None -> ()
  | Some cap ->
      t.budget_tokens <- Float.min (float_of_int cap) (t.budget_tokens +. 1.0)

(* --- Per-KDC circuit breaker: [None] for a client without one. *)

let breaker_for t addr =
  match t.breaker_threshold with
  | None -> None
  | Some _ -> (
      match List.find_opt (fun (a, _) -> Sim.Addr.equal a addr) t.breakers with
      | Some (_, b) -> Some b
      | None ->
          let b = { br_fails = 0; br_open_until = 0.0 } in
          t.breakers <- (addr, b) :: t.breakers;
          Some b)

let breaker_blocks t = function
  | None -> false
  | Some b -> now t < b.br_open_until

let breaker_success = function
  | None -> ()
  | Some b ->
      b.br_fails <- 0;
      b.br_open_until <- 0.0

let breaker_failure t b =
  match (b, t.breaker_threshold) with
  | Some b, Some threshold ->
      (* A failed half-open probe re-trips without counting back up. *)
      let half_open = b.br_open_until > 0.0 && now t >= b.br_open_until in
      b.br_fails <- b.br_fails + 1;
      if half_open || b.br_fails >= threshold then begin
        b.br_open_until <- now t +. t.breaker_cooldown;
        t.breaker_trips <- t.breaker_trips + 1
      end
  | _ -> ()

(* Decode a KDC datagram just far enough to recognize KRB_ERR_BUSY and
   extract its retry-after hint. *)
let busy_hint_of_reply t reply =
  match Wire.Encoding.decode_result t.profile.Profile.encoding reply with
  | Error _ -> None
  | Ok v -> (
      match Messages.err_of_value v with
      | e when e.Messages.e_code = Messages.err_busy ->
          Some
            (Option.value
               (Messages.retry_after_of_text e.Messages.e_text)
               ~default:(t.kdc_timeout /. 10.0))
      | _ -> None
      | exception Wire.Codec.Decode_error _ -> None)

(* One logical KDC request: try each address in turn (with the client's
   per-address timeout/retry budget, UDP-first with transparent TCP
   fallback) and fail over on silence. Takes the request as a wire value
   so the client's deadline can be stamped into it ({!Messages.with_deadline})
   before encoding — the KDC sheds queued work whose caller already gave up.

   Storm hygiene, all opt-in: a KDC whose circuit breaker is open is
   skipped without sending; every failover hop (and every honored
   retry-after wait) spends a retry-budget token and stops when the
   bucket is dry; a busy answer with [honor_retry_after] waits out the
   KDC's hint instead of hammering on. The errors for "every avenue
   exhausted" all contain "timeout"/"timed out" so the degraded
   cached-ticket fallback still recognizes them. *)
let kdc_call t ~realm v ~on_reply ~on_error =
  match rotated t (kdc_addrs t realm) with
  | [] -> on_error ("no KDC known for realm " ^ realm)
  | first :: rest ->
      let abs_deadline = Option.map (fun d -> now t +. d) t.kdc_deadline in
      let payload =
        let v =
          match abs_deadline with
          | None -> v
          | Some d -> Messages.with_deadline ~deadline:d v
        in
        Wire.Encoding.encode t.profile.Profile.encoding v
      in
      let remaining () = Option.map (fun d -> d -. now t) abs_deadline in
      (* [attempted] distinguishes "every KDC timed out" from "every
         breaker was open and we never sent a byte". *)
      let rec go ~attempted kdc rest =
        match remaining () with
        | Some left when left <= 0.0 ->
            on_error "KDC deadline expired (timed out)"
        | left ->
            let b = breaker_for t kdc in
            if breaker_blocks t b then
              match rest with
              | [] ->
                  on_error
                    (if attempted then "KDC timeout"
                     else "all KDCs circuit-open (timeout)")
              | next :: rest -> go ~attempted next rest
            else
              Sim.Transport.call t.net t.host ~dst:kdc ~dport:Kdc.default_port
                ~timeout:t.kdc_timeout ~retries:t.kdc_retries ?deadline:left
                ~classify:(classify_kdc_reply t) payload
                ~on_reply:(fun reply ->
                  match busy_hint_of_reply t reply with
                  | Some hint ->
                      t.busy_received <- t.busy_received + 1;
                      breaker_failure t b;
                      if t.honor_retry_after && budget_take t then begin
                        Sim.Net.note t.net
                          (Printf.sprintf
                             "%s: KDC %s busy; backing off %.3fs as hinted"
                             t.host.Sim.Host.name (Sim.Addr.to_string kdc) hint);
                        Sim.Engine.schedule_after (Sim.Net.engine t.net) hint
                          (fun () -> go ~attempted:true kdc rest)
                      end
                      else
                        (* Naive (or out of budget): the busy error
                           surfaces to the caller like any KDC error. *)
                        on_reply reply
                  | None ->
                      breaker_success b;
                      budget_refill t;
                      on_reply reply)
                ~on_timeout:(fun () ->
                  breaker_failure t b;
                  match rest with
                  | [] -> on_error "KDC timeout"
                  | next :: rest ->
                      if budget_take t then begin
                        Sim.Net.note t.net
                          (Printf.sprintf
                             "%s: KDC %s unreachable, failing over to %s"
                             t.host.Sim.Host.name (Sim.Addr.to_string kdc)
                             (Sim.Addr.to_string next));
                        go ~attempted:true next rest
                      end
                      else on_error "KDC retry budget exhausted (timed out)")
      in
      go ~attempted:false first rest

(* Credentials are parked in the host cache so the cache-theft experiment
   can steal exactly what a real intruder would find. *)
let creds_to_bytes c =
  let w = Wire.Codec.Writer.create () in
  Wire.Codec.Writer.lstring w (Principal.to_string c.service);
  Wire.Codec.Writer.lbytes w c.ticket;
  Wire.Codec.Writer.lbytes w c.session_key;
  Wire.Codec.Writer.i64 w (Int64.bits_of_float c.issued_at);
  Wire.Codec.Writer.i64 w (Int64.bits_of_float c.lifetime);
  Wire.Codec.Writer.contents w

let creds_of_bytes b =
  let r = Wire.Codec.Reader.of_bytes b in
  let service =
    match Principal.of_string (Wire.Codec.Reader.lstring r) with
    | p -> p
    | exception Invalid_argument _ ->
        Wire.Codec.fail "credentials: malformed service principal"
  in
  let ticket = Wire.Codec.Reader.lbytes r in
  let session_key = Wire.Codec.Reader.lbytes r in
  let issued_at = Int64.float_of_bits (Wire.Codec.Reader.i64 r) in
  let lifetime = Int64.float_of_bits (Wire.Codec.Reader.i64 r) in
  { service; ticket; session_key; issued_at; lifetime }

let cache_creds t label c =
  Sim.Host.cache_put t.host label (creds_to_bytes c);
  t.host.Sim.Host.logged_in <- true

let logout t =
  t.tgt_creds <- None;
  t.svc_creds <- [];
  Sim.Host.cache_wipe t.host

let ccache_hits t = t.ccache_hits
let ccache_misses t = t.ccache_misses
let busy_received t = t.busy_received
let breaker_trips t = t.breaker_trips
let budget_exhausted t = t.budget_exhausted
let retry_tokens t = t.budget_tokens

(* ------------------------------------------------------------------ *)
(* Login (AS exchange)                                                 *)
(* ------------------------------------------------------------------ *)

let preauth_blob t ~client_key ~nonce =
  let v =
    Wire.Encoding.Tagged
      (Messages.tag_preauth, Wire.Encoding.List [ Wire.Encoding.Int nonce ])
  in
  Messages.seal_msg t.profile t.rng ~key:client_key ~tag:Messages.tag_preauth v

(* The ticket arrives inside the sealed body (hardened) or in the clear
   alongside it (V4/draft behaviour) — in the latter case nothing vouches
   for it, which the substitution attack exploits. *)
let ticket_of_reply (rep : Messages.as_rep) (body : Messages.rep_body) =
  if Bytes.length body.Messages.b_ticket > 0 then Ok body.Messages.b_ticket
  else
    match rep.Messages.p_ticket with
    | Some t -> Ok t
    | None -> Error "reply carried no ticket"

(* Exchange spans: begin one, shadow the continuation so every completion
   path closes it, and transmit inside its context so the request packet
   nests under it. *)
let exchange_span t name =
  let tel = Sim.Net.telemetry t.net in
  let span =
    Telemetry.Collector.span_begin tel ~component:"client" name
      ~attrs:(fun () -> [ ("client", Principal.to_string t.me) ])
  in
  let wrap_k k r =
    Telemetry.Collector.span_finish tel
      ~outcome:(match r with Ok _ -> "ok" | Error e -> "error: " ^ e)
      span;
    k r
  in
  (tel, span, wrap_k)

let login t ?handheld ?key ?service ~password k =
  let tel, span, wrap_k = exchange_span t "client.as_exchange" in
  let k = wrap_k k in
  (* Host principals authenticate with a raw key (srvtab) instead of a
     typed password. *)
  let client_key =
    match key with Some k -> k | None -> Crypto.Str2key.derive password
  in
  let nonce = Util.Rng.next_int64 t.rng in
  let dh_keypair = ref None in
  let padata =
    let pre = if t.profile.Profile.preauth then [ Messages.Pa_preauth (preauth_blob t ~client_key ~nonce) ] else [] in
    let dh_part () =
      let grp = Crypto.Dh.group ~bits:t.profile.Profile.dh_group_bits in
      let kp = Crypto.Dh.generate t.rng grp in
      dh_keypair := Some (grp, kp);
      Messages.Pa_dh
        (Crypto.Bignum.to_bytes_be ~size:((Crypto.Bignum.num_bits grp.p + 7) / 8)
           kp.public)
    in
    match t.profile.Profile.login with
    | Profile.Password -> pre
    | Profile.Handheld_challenge -> Messages.Pa_handheld :: pre
    | Profile.Dh_protected -> dh_part () :: pre
    | Profile.Handheld_dh -> Messages.Pa_handheld :: dh_part () :: pre
  in
  let target =
    match service with
    | Some s -> s
    | None -> Principal.tgs ~realm:t.me.Principal.realm
  in
  let req =
    { Messages.q_client = t.me; q_server = target; q_nonce = nonce;
      q_addr = Sim.Host.primary_ip t.host; q_padata = padata }
  in
  Telemetry.Collector.with_context tel span (fun () ->
      kdc_call t ~realm:t.me.Principal.realm (Messages.as_req_to_value req)
        ~on_error:(fun e -> k (Error e))
        ~on_reply:(fun reply_bytes ->
          match Wire.Encoding.decode_result t.profile.Profile.encoding reply_bytes with
          | Error e -> k (Error e)
          | Ok v -> (
              match Messages.err_of_value v with
              | { e_code = _; e_text } -> k (Error ("KDC error: " ^ e_text))
              | exception Wire.Codec.Decode_error _ -> (
                  match Messages.as_rep_of_value v with
                  | exception Wire.Codec.Decode_error e -> k (Error e)
                  | rep -> (
                      let handheld_response () =
                        match rep.p_challenge with
                        | None -> Error "KDC omitted the handheld challenge"
                        | Some r ->
                            let response =
                              match handheld with
                              | Some device -> device r
                              | None ->
                                  (* No device: the login program computes
                                     {R}Kc itself from the typed password. *)
                                  Crypto.Des.encrypt_block
                                    (Crypto.Des.schedule_cached client_key)
                                    r
                            in
                            Ok (Crypto.Des.fix_parity response)
                      in
                      let dh_shared_key () =
                        match (rep.p_dh_public, !dh_keypair) with
                        | Some server_pub, Some (grp, kp) ->
                            let shared =
                              Crypto.Dh.shared_secret grp kp
                                (Crypto.Bignum.of_bytes_be server_pub)
                            in
                            Ok (Crypto.Dh.secret_to_key grp shared)
                        | _ -> Error "KDC omitted its exponential"
                      in
                      let unwrap_key =
                        match t.profile.Profile.login with
                        | Profile.Password -> Ok client_key
                        | Profile.Handheld_challenge -> handheld_response ()
                        | Profile.Dh_protected ->
                            Result.map
                              (fun kdh ->
                                Crypto.Prf.tag_key ~tag:"dh-login"
                                  (Util.Bytesutil.xor client_key kdh))
                              (dh_shared_key ())
                        | Profile.Handheld_dh -> (
                            match (handheld_response (), dh_shared_key ()) with
                            | Ok resp, Ok kdh ->
                                Ok
                                  (Crypto.Prf.tag_key ~tag:"dh-login"
                                     (Util.Bytesutil.xor resp kdh))
                            | Error e, _ | _, Error e -> Error e)
                      in
                      match unwrap_key with
                      | Error e -> k (Error e)
                      | Ok key -> (
                          match
                            Messages.open_msg t.profile ~key
                              ~tag:Messages.tag_as_rep_body rep.p_sealed
                          with
                          | Error e -> k (Error ("AS_REP: " ^ e))
                          | Ok bv -> (
                              match
                                Messages.rep_body_of_value ~tag:Messages.tag_as_rep_body
                                  t.profile.Profile.encoding bv
                              with
                              | exception Wire.Codec.Decode_error e -> k (Error e)
                              | body ->
                                  if body.b_nonce <> nonce then
                                    k (Error "AS_REP nonce mismatch (replayed reply?)")
                                  else begin
                                    match ticket_of_reply rep body with
                                    | Error e -> k (Error e)
                                    | Ok ticket ->
                                    let creds =
                                      { service = body.b_server; ticket;
                                        session_key = body.b_session_key;
                                        issued_at = body.b_issued_at;
                                        lifetime = body.b_lifetime }
                                    in
                                    (if service = None then begin
                                       t.tgt_creds <- Some creds;
                                       cache_creds t "tgt" creds
                                     end
                                     else
                                       cache_creds t
                                         ("svc:" ^ Principal.to_string creds.service)
                                         creds);
                                    k (Ok creds)
                                  end)))))))

(* ------------------------------------------------------------------ *)
(* Authenticators and the TGS exchange                                 *)
(* ------------------------------------------------------------------ *)

let build_authenticator t (creds : credentials) ?req_cksum ~now:ts () =
  let subkey_part =
    if t.profile.Profile.negotiate_session_key then Some (Util.Rng.bytes t.rng 8)
    else None
  in
  let seq_init =
    match t.profile.Profile.priv_replay with
    | Profile.Priv_sequence -> Some (Util.Rng.int t.rng 1_000_000)
    | Profile.Priv_timestamp -> None
  in
  let auth =
    { Messages.a_client = t.me; a_addr = Sim.Host.primary_ip t.host; a_timestamp = ts;
      a_req_cksum = req_cksum;
      a_ticket_cksum =
        (if t.profile.Profile.ticket_checksum_in_authenticator then
           Some
             (Crypto.Checksum.compute Crypto.Checksum.Md4 ~key:creds.session_key
                creds.ticket)
         else None);
      a_service =
        (if t.profile.Profile.ticket_checksum_in_authenticator then Some creds.service
         else None);
      a_seq_init = seq_init; a_subkey_part = subkey_part }
  in
  (auth, subkey_part, seq_init)

let seal_authenticator t (creds : credentials) auth =
  Messages.seal_msg t.profile t.rng ~key:creds.session_key
    ~tag:Messages.tag_authenticator (Messages.authenticator_to_value auth)

(* [expired] is set when a TGS on the path answers with the
   ticket-expired code: the TGT died by the KDC's clock. *)
let rec get_ticket_via t ~(via : credentials) ?(options = Messages.no_options)
    ?additional_ticket ?(authz_data = Bytes.empty) ?(expired = ref false) ~hops
    ~service ~k () =
  if hops > 4 then k (Error "too many cross-realm hops")
  else begin
    let tel, span, wrap_k = exchange_span t "client.tgs_exchange" in
    let k = wrap_k k in
    let nonce = Util.Rng.next_int64 t.rng in
    (* The checksum over the cleartext fields rides inside the sealed
       authenticator (Draft 3 layout). *)
    let skeleton =
      { Messages.t_ap = { r_ticket = via.ticket; r_authenticator = Bytes.empty; r_mutual = false };
        t_server = service; t_nonce = nonce; t_options = options;
        t_additional_ticket = additional_ticket; t_authz_data = authz_data }
    in
    let req_cksum =
      match t.profile.Profile.encoding with
      | Wire.Encoding.V4_adhoc -> None
      | Wire.Encoding.Der_typed ->
          Some
            (Crypto.Checksum.compute t.profile.Profile.checksum ~key:via.session_key
               (Messages.tgs_req_cleartext_fields skeleton))
    in
    let auth, _, _ = build_authenticator t via ?req_cksum ~now:(now t) () in
    let req =
      { skeleton with
        t_ap =
          { r_ticket = via.ticket; r_authenticator = seal_authenticator t via auth;
            r_mutual = false } }
    in
    (* The TGS for the realm the 'via' credentials belong to. *)
    Telemetry.Collector.with_context tel span (fun () ->
        kdc_call t ~realm:via.service.Principal.realm
          (Messages.tgs_req_to_value req)
          ~on_error:(fun e ->
            k (Error (if String.equal e "KDC timeout" then "TGS timeout" else e)))
          ~on_reply:(fun reply_bytes ->
            match
              Wire.Encoding.decode_result t.profile.Profile.encoding reply_bytes
            with
            | Error e -> k (Error e)
            | Ok v -> (
                match Messages.err_of_value v with
                | { e_code; e_text } ->
                    if e_code = Messages.err_ticket_expired then expired := true;
                    k (Error ("TGS error: " ^ e_text))
                | exception Wire.Codec.Decode_error _ -> (
                    match Messages.as_rep_of_value v with
                    | exception Wire.Codec.Decode_error e -> k (Error e)
                    | rep -> (
                        match
                          Messages.open_msg t.profile ~key:via.session_key
                            ~tag:Messages.tag_rep_body rep.p_sealed
                        with
                        | Error e -> k (Error ("TGS_REP: " ^ e))
                        | Ok bv -> (
                            match
                              Messages.rep_body_of_value ~tag:Messages.tag_rep_body
                                t.profile.Profile.encoding bv
                            with
                            | exception Wire.Codec.Decode_error e -> k (Error e)
                            | body ->
                                if body.b_nonce <> nonce then
                                  k (Error "TGS_REP nonce mismatch")
                                else begin
                                  match ticket_of_reply rep body with
                                  | Error e -> k (Error e)
                                  | Ok ticket ->
                                  let creds =
                                    { service = body.b_server; ticket;
                                      session_key = body.b_session_key;
                                      issued_at = body.b_issued_at;
                                      lifetime = body.b_lifetime }
                                  in
                                  if Principal.equal body.b_server service then begin
                                    cache_creds t
                                      ("svc:" ^ Principal.to_string service)
                                      creds;
                                    k (Ok creds)
                                  end
                                  else
                                    (* Referral: we were handed a TGT for the
                                       next realm on the path. *)
                                    get_ticket_via t ~via:creds ~options
                                      ?additional_ticket ~authz_data ~expired
                                      ~hops:(hops + 1) ~service ~k ()
                                end))))))
  end

let tgt_expired t (c : credentials) = now t >= c.issued_at +. c.lifetime

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Every KDC in the realm stayed silent — the failover walked the whole
   list and nobody answered. This is the one failure graceful degradation
   can paper over: a still-valid cached ticket needs no KDC at all. *)
let is_timeout_error e =
  contains_substring ~sub:"timeout" e || contains_substring ~sub:"timed out" e

type source = From_kdc | From_cache | Degraded

let degraded_fallbacks t = t.degraded

let get_ticket_ex t ?options ?additional_ticket ?authz_data ~service k =
  (* The credential cache: an unexpired service ticket is reused without
     going back to the TGS, exactly the /tmp/tkt<uid> behaviour — and with
     the same caveat the paper raises: anyone who can read the cache can
     replay its contents until they expire. Only plain requests (no
     options, no enclosed ticket, no authorization data) are cacheable. *)
  let plain = options = None && additional_ticket = None && authz_data = None in
  let sname = Principal.to_string service in
  let cached =
    if not (t.ccache && plain) then None
    else
      match List.assoc_opt sname t.svc_creds with
      | Some c when not (tgt_expired t c) -> Some c
      | Some _ ->
          t.svc_creds <- List.remove_assoc sname t.svc_creds;
          None
      | None -> None
  in
  match cached with
  | Some c ->
      t.ccache_hits <- t.ccache_hits + 1;
      k (Ok (c, From_cache))
  | None ->
  if t.ccache && plain then t.ccache_misses <- t.ccache_misses + 1;
  let k r =
    match r with
    | Ok ((c : credentials), src) ->
        (* The service-ticket wallet: always kept in memory for plain
           requests (it is what degradation falls back on); parked in the
           stealable host cache only under [ccache], as before. *)
        if plain then begin
          t.svc_creds <- (sname, c) :: List.remove_assoc sname t.svc_creds;
          if t.ccache then cache_creds t ("svc:" ^ sname) c
        end;
        k (Ok (c, src))
    | Error e when is_timeout_error e -> (
        (* All KDCs in crash windows (or unreachable): fall back to a
           still-valid cached service ticket rather than surfacing the
           timeout storm. The distinct [Degraded] source tells the caller
           the ticket came from the wallet, not a live KDC. *)
        let fallback =
          if not plain then None
          else
            match List.assoc_opt sname t.svc_creds with
            | Some c when not (tgt_expired t c) -> Some c
            | _ -> None
        in
        match fallback with
        | Some c ->
            t.degraded <- t.degraded + 1;
            Telemetry.Metrics.incr
              (Telemetry.Metrics.counter
                 (Telemetry.Collector.metrics (Sim.Net.telemetry t.net))
                 "client.degraded_fallbacks");
            Sim.Net.note t.net
              (Printf.sprintf
                 "%s: no KDC reachable (%s); degraded to cached ticket for %s"
                 t.host.Sim.Host.name e sname);
            k (Ok (c, Degraded))
        | None -> k (Error e))
    | Error e -> k (Error e)
  in
  let request ?expired via ~k =
    get_ticket_via t ~via ?options ?additional_ticket
      ?authz_data:(Option.map Fun.id authz_data) ?expired ~hops:0 ~service
      ~k:(fun r -> k (Result.map (fun c -> (c, From_kdc)) r))
      ()
  in
  let relogin ~err k =
    match t.password with
    | None -> k (Error err)
    | Some pw ->
        login t ~password:pw (function
          | Error e -> k (Error (err ^ "; re-login failed: " ^ e))
          | Ok via -> k (Ok via))
  in
  match t.tgt_creds with
  | None -> relogin ~err:"not logged in" (function
      | Error e -> k (Error e)
      | Ok via -> request via ~k)
  | Some via when tgt_expired t via ->
      (* Expired by our own clock: renew before asking the TGS. *)
      relogin ~err:"TGT expired" (function
        | Error e -> k (Error e)
        | Ok via -> request via ~k)
  | Some via ->
      (* The TGS may see the TGT expire before our clock does, and a
         mid-retry client can cross the boundary in flight: on the TGS's
         ticket-expired code, and only on it, one re-login retry. *)
      let expired = ref false in
      request ~expired via ~k:(fun r ->
          match r with
          | Error e when !expired && t.password <> None ->
              relogin ~err:e (function
                | Error e -> k (Error e)
                | Ok via -> request via ~k)
          | r -> k r)

let get_ticket t ?options ?additional_ticket ?authz_data ~service k =
  get_ticket_ex t ?options ?additional_ticket ?authz_data ~service (fun r ->
      k (Result.map fst r))

(* ------------------------------------------------------------------ *)
(* AP exchange and sealed calls                                        *)
(* ------------------------------------------------------------------ *)

(* A channel's transport link: how wrapped frames leave this client and
   how the peer's frames come back. The datagram flavour is an ephemeral
   port; the stream flavour is a framed {!Sim.Tcpish} connection. Either
   way the channel machinery above it is identical. *)
type link = {
  lk_via : [ `Udp | `Tcp ];
  lk_send : bytes -> unit;
  mutable lk_recv : bytes -> unit;
  mutable lk_down : unit -> unit;
      (** the peer or the network tore the stream down under us *)
  lk_teardown : unit -> unit;
}

let bump t name =
  Telemetry.Metrics.incr
    (Telemetry.Metrics.counter
       (Telemetry.Collector.metrics (Sim.Net.telemetry t.net))
       name)

let udp_link t ~dst ~dport =
  let sport = Sim.Net.ephemeral_port t.net in
  let lk =
    { lk_via = `Udp;
      lk_send = (fun raw -> Sim.Net.send t.net ~sport ~dst ~dport t.host raw);
      lk_recv = ignore;
      lk_down = ignore;
      lk_teardown = (fun () -> Sim.Net.unlisten t.net t.host ~port:sport) }
  in
  Sim.Net.listen t.net t.host ~port:sport (fun pkt ->
      lk.lk_recv pkt.Sim.Packet.payload);
  lk

(* Frames sent before the handshake completes are parked and flushed from
   [on_connected]. A teardown we did not cause ourselves (a reset, the
   peer's FIN, retransmission exhaustion) runs [lk_down]: [on_down] while
   the exchange owns the link, then the handler of the channel that takes
   it over. *)
let tcp_link t ~dst ~dport ~on_down =
  let parked = Queue.create () in
  let up = ref None in
  let torn = ref false in
  let conn_ref = ref None in
  let lk =
    { lk_via = `Tcp;
      lk_send =
        (fun raw ->
          match !up with
          | Some conn -> Sim.Tcpish.send_message conn raw
          | None -> Queue.add raw parked);
      lk_recv = ignore;
      lk_down = on_down;
      lk_teardown =
        (fun () ->
          torn := true;
          match !conn_ref with
          | Some conn -> Sim.Tcpish.close conn
          | None -> ()) }
  in
  let conn =
    Sim.Tcpish.connect t.net t.host ~dst ~dport:(Sim.Transport.tcp_port dport)
      ~on_connected:(fun conn ->
        up := Some conn;
        Sim.Tcpish.on_message conn (fun msg -> lk.lk_recv msg);
        Queue.iter (Sim.Tcpish.send_message conn) parked;
        Queue.clear parked)
      ()
  in
  conn_ref := Some conn;
  Sim.Tcpish.on_close conn (fun ~reset:_ -> if not !torn then lk.lk_down ());
  lk

type channel = {
  mutable chan_session : Session.t;
  mutable chan_link : link;
  chan_dst : Sim.Addr.t;
  chan_dport : int;
  chan_creds : credentials;
  chan_mutual : bool;
  mutable chan_waiting : (bytes, string) result -> unit;
  mutable chan_pending : ([ `Priv | `Safe ] * bytes) option;
      (** the in-flight request's plaintext, kept for the TCP-upgrade
          resend *)
  mutable chan_closed : bool;
  chan_client : t;
}

let session c = c.chan_session
let closed_error = Error "channel closed"

(* A deadline counts seconds from now. Zero times out at once; a negative,
   NaN or infinite one would reach the engine as an instant it refuses.
   No deadline at all is the way to wait without bound. *)
let check_deadline fn = function
  | Some d when Float.is_nan d || d < 0.0 || d = Float.infinity ->
      invalid_arg (fn ^ ": deadline must be finite and not negative")
  | _ -> ()

let rec make_channel t session ~link ~creds ~mutual ~dst ~dport =
  let chan =
    { chan_session = session; chan_link = link; chan_dst = dst;
      chan_dport = dport; chan_creds = creds; chan_mutual = mutual;
      chan_waiting = ignore; chan_pending = None; chan_closed = false;
      chan_client = t }
  in
  attach_channel chan;
  chan

and attach_channel chan =
  chan.chan_link.lk_recv <- channel_dispatch chan;
  chan.chan_link.lk_down <- (fun () -> lose_channel chan closed_error)

(* The channel is over: a call still waiting gets [err], exactly once,
   and every later call gets [Error "channel closed"] at once instead of
   reaching a dead link. *)
and lose_channel chan err =
  if not chan.chan_closed then begin
    chan.chan_closed <- true;
    let waiter = chan.chan_waiting in
    chan.chan_waiting <- ignore;
    chan.chan_pending <- None;
    waiter err
  end

(* Replies on the channel link: priv/safe frames handed to the waiter;
   an explicit RESPONSE-TOO-BIG refusal on a datagram channel triggers
   the stream upgrade instead of surfacing an error. *)
and channel_dispatch chan raw =
  let t = chan.chan_client in
  let settle r =
    chan.chan_pending <- None;
    let waiter = chan.chan_waiting in
    chan.chan_waiting <- ignore;
    waiter r
  in
  match Frames.unwrap raw with
  | Some (kind, payload) when kind = Frames.priv -> (
      match Krb_priv.open_ chan.chan_session ~now:(now t) payload with
      | Ok data -> settle (Ok data)
      | Error e -> settle (Error (Krb_priv.error_to_string e)))
  | Some (kind, payload) when kind = Frames.safe -> (
      match Krb_safe.open_ chan.chan_session ~now:(now t) payload with
      | Ok data -> settle (Ok data)
      | Error e -> settle (Error (Krb_safe.error_to_string e)))
  | Some (kind, payload) when kind = Frames.error ->
      let err =
        match
          Messages.err_of_value
            (Wire.Encoding.decode t.profile.Profile.encoding payload)
        with
        | e -> e
        | exception Wire.Codec.Decode_error _ ->
            { Messages.e_code = Messages.err_generic;
              e_text = "unparseable error" }
      in
      if
        err.Messages.e_code = Messages.err_response_too_big
        && chan.chan_link.lk_via = `Udp
      then upgrade_channel chan
      else settle (Error err.Messages.e_text)
  | _ -> ()

(* A sealed reply that cannot fit the return path dooms the datagram
   channel outright: in sequence mode the server's discarded reply
   already advanced its send counter, so no resend on this session can
   ever line up again. The sound recovery is a fresh AP exchange over
   the stream — then the in-flight request is resealed on the new
   session and replayed, invisibly to the caller. *)
and upgrade_channel chan =
  let t = chan.chan_client in
  bump t "transport.fallback.response_too_big";
  chan.chan_link.lk_teardown ();
  Sim.Net.note t.net
    (Printf.sprintf "%s: AP reply exceeds path MTU; redoing exchange over TCP"
       t.host.Sim.Host.name);
  ap_exchange t chan.chan_creds ~mutual:chan.chan_mutual ~transport:`Tcp
    ~dst:chan.chan_dst ~dport:chan.chan_dport (function
    | Error e -> lose_channel chan (Error ("TCP upgrade failed: " ^ e))
    | Ok fresh when chan.chan_closed -> fresh.chan_link.lk_teardown ()
    | Ok fresh ->
        chan.chan_session <- fresh.chan_session;
        chan.chan_link <- fresh.chan_link;
        attach_channel chan;
        (match chan.chan_pending with
        | None -> ()
        | Some (`Priv, data) ->
            chan.chan_link.lk_send
              (Frames.wrap Frames.priv
                 (Krb_priv.seal chan.chan_session ~now:(now t) data))
        | Some (`Safe, data) ->
            chan.chan_link.lk_send
              (Frames.wrap Frames.safe
                 (Krb_safe.seal chan.chan_session ~now:(now t) data))))

and ap_exchange t (creds : credentials) ?(mutual = true) ?deadline
    ?(transport = `Auto) ~dst ~dport k =
  check_deadline "Client.ap_exchange" deadline;
  (* Counts every exchange this library starts — including the internal
     re-exchange a channel's TCP upgrade performs — so an invariant of
     the form "sessions established <= honest exchanges started" can be
     checked against it. *)
  bump t "client.ap_exchange.started";
  let tel, span, wrap_k = exchange_span t "client.ap_exchange" in
  let k = wrap_k k in
  (* With a deadline the continuation can be raced by the timer: first
     completion wins, the loser is a no-op. Settling disarms the timer, so
     the exchange's graph leaves the event queue with it. *)
  let settled = ref false and deadline_timer = ref None in
  let k r =
    if not !settled then begin
      settled := true;
      Option.iter Sim.Engine.disarm !deadline_timer;
      k r
    end
  in
  let current = ref None in
  let teardown () =
    match !current with
    | Some lk ->
        current := None;
        lk.lk_teardown ()
    | None -> ()
  in
  let finish r =
    teardown ();
    k r
  in
  Option.iter
    (fun d ->
      deadline_timer :=
        Some
          (Sim.Engine.arm_after (Sim.Net.engine t.net) d (fun () ->
               finish (Error "AP exchange timed out"))))
    deadline;
  (* One attempt = one link. [start] builds the link (upgrading a doomed
     datagram attempt to the stream when the AP_REQ itself cannot fit the
     path MTU), installs the mode's reply handler, and transmits the
     AP_REQ inside the span's context so it nests under the exchange. *)
  let start via ~first_frame ~install =
    let via =
      match (via, transport) with
      | `Udp, `Auto -> (
          match
            Sim.Net.path_mtu t.net ~src:(Sim.Host.primary_ip t.host) ~dst
          with
          | Some m when Bytes.length first_frame > m ->
              bump t "transport.fallback.request_too_big";
              `Tcp
          | _ -> `Udp)
      | v, _ -> v
    in
    let link =
      match via with
      | `Udp -> udp_link t ~dst ~dport
      | `Tcp ->
          tcp_link t ~dst ~dport ~on_down:(fun () ->
              if not !settled then finish (Error "AP connection reset"))
    in
    current := Some link;
    install ~via ~link;
    Telemetry.Collector.with_context tel span (fun () ->
        link.lk_send first_frame)
  (* An error frame mid-exchange: the server's RESPONSE-TOO-BIG refusal
     on the datagram leg restarts the whole exchange over the stream
     (fresh authenticator — the refused attempt already consumed the
     old one at the server); every other error surfaces. *)
  and handle_error_frame ~via body ~retry =
    let err =
      match
        Messages.err_of_value
          (Wire.Encoding.decode t.profile.Profile.encoding body)
      with
      | e -> e
      | exception Wire.Codec.Decode_error _ ->
          { Messages.e_code = Messages.err_generic; e_text = "unparseable error" }
    in
    if
      err.Messages.e_code = Messages.err_response_too_big
      && via = `Udp && transport <> `Udp
    then begin
      bump t "transport.fallback.response_too_big";
      teardown ();
      retry `Tcp
    end
    else finish (Error err.Messages.e_text)
  in
  let send_in_span link kind payload =
    Telemetry.Collector.with_context tel span (fun () ->
        link.lk_send (Frames.wrap kind payload))
  in
  let finish_session ~link ~client_part ~server_part ~my_seq ~their_seq =
    Session.derived_key t.profile ~multi:creds.session_key ~client_part
      ~server_part
    |> Result.map (fun key ->
           (* A draw per session whose value is unused: it keeps the
              client's random stream, and so every seeded run, as
              recorded. *)
           ignore (Util.Rng.next_int64 t.rng);
           let session =
             Session.make ~profile:t.profile ~role:Session.Client_side ~key
               ~own_addr:(Sim.Host.primary_ip t.host) ~peer_addr:dst
               ~send_seq:(Option.value my_seq ~default:0)
               ~recv_seq:(Option.value their_seq ~default:0)
           in
           (* The channel takes ownership of the link: success must not
              tear it down with the exchange. *)
           current := None;
           make_channel t session ~link ~creds ~mutual ~dst ~dport)
  in
  let rec attempt via =
    match t.profile.Profile.ap_auth with
    | Profile.Timestamp _ ->
        let ts = now t in
        let auth, client_part, my_seq = build_authenticator t creds ~now:ts () in
        let ap =
          { Messages.r_ticket = creds.ticket;
            r_authenticator = seal_authenticator t creds auth; r_mutual = mutual }
        in
        let expect_body = mutual || client_part <> None || my_seq <> None in
        let first_frame =
          Frames.wrap Frames.ap_req
            (Messages.encode_msg t.profile ~tag:Messages.tag_ap_req
               (Messages.ap_req_to_value ap))
        in
        start via ~first_frame ~install:(fun ~via ~link ->
            link.lk_recv <-
              (fun raw ->
                if not !settled then
                  match Frames.unwrap raw with
                  | Some (kind, body) when kind = Frames.ap_ok ->
                      if not expect_body then
                        finish
                          (finish_session ~link ~client_part:None
                             ~server_part:None ~my_seq:None ~their_seq:None)
                      else (
                        match
                          Messages.open_msg t.profile ~key:creds.session_key
                            ~tag:Messages.tag_ap_rep_body body
                        with
                        | Error e -> finish (Error ("AP_REP: " ^ e))
                        | Ok v -> (
                            match Messages.ap_rep_body_of_value v with
                            | exception Wire.Codec.Decode_error e ->
                                finish (Error e)
                            | rep ->
                                if mutual && rep.ar_timestamp <> ts +. 1.0 then
                                  finish
                                    (Error
                                       "mutual authentication failed (bad \
                                        timestamp echo)")
                                else
                                  finish
                                    (finish_session ~link ~client_part
                                       ~server_part:rep.ar_subkey_part ~my_seq
                                       ~their_seq:rep.ar_seq_init)))
                  | Some (kind, body) when kind = Frames.error ->
                      handle_error_frame ~via body ~retry:attempt
                  | _ -> finish (Error "unexpected reply to AP_REQ")))
    | Profile.Challenge_response ->
        let ap =
          { Messages.r_ticket = creds.ticket; r_authenticator = Bytes.empty;
            r_mutual = mutual }
        in
        let client_part =
          if t.profile.Profile.negotiate_session_key then
            Some (Util.Rng.bytes t.rng 8)
          else None
        in
        let my_seq =
          match t.profile.Profile.priv_replay with
          | Profile.Priv_sequence -> Some (Util.Rng.int t.rng 1_000_000)
          | Profile.Priv_timestamp -> None
        in
        let first_frame =
          Frames.wrap Frames.ap_req
            (Messages.encode_msg t.profile ~tag:Messages.tag_ap_req
               (Messages.ap_req_to_value ap))
        in
        let stage = ref `Challenge in
        start via ~first_frame ~install:(fun ~via ~link ->
            link.lk_recv <-
              (fun raw ->
                if not !settled then
                  match (!stage, Frames.unwrap raw) with
                  | `Challenge, Some (kind, body) when kind = Frames.challenge
                    -> (
                      match
                        Messages.open_msg t.profile ~key:creds.session_key
                          ~tag:Messages.tag_challenge body
                      with
                      | Error e -> finish (Error ("challenge: " ^ e))
                      | Ok v -> (
                          match Messages.challenge_of_value v with
                          | exception Wire.Codec.Decode_error e ->
                              finish (Error e)
                          | ch ->
                              (* A well-formed sealed challenge is itself
                                 proof the server holds the session key:
                                 mutual auth. *)
                              stage := `Ok (ch.c_server_part, ch.c_seq_init);
                              let resp =
                                { Messages.cr_nonce_f = Int64.add ch.c_nonce 1L;
                                  cr_client_part = client_part;
                                  cr_seq_init = my_seq }
                              in
                              send_in_span link Frames.challenge_resp
                                (Messages.seal_msg t.profile t.rng
                                   ~key:creds.session_key
                                   ~tag:Messages.tag_challenge_resp
                                   (Messages.challenge_resp_to_value resp))))
                  | `Ok (server_part, their_seq), Some (kind, _)
                    when kind = Frames.ap_ok ->
                      finish
                        (finish_session ~link ~client_part ~server_part ~my_seq
                           ~their_seq)
                  | _, Some (kind, body) when kind = Frames.error ->
                      handle_error_frame ~via body ~retry:(fun via ->
                          stage := `Challenge;
                          attempt via)
                  | _ -> ()))
  in
  let initial = match transport with `Tcp -> `Tcp | `Udp | `Auto -> `Udp in
  attempt initial

(* Park a waiter on the channel, optionally bounded by a deadline. The
   waiter and the timer race, and whichever runs first settles the call.
   The channel clears its slot before running a waiter, so the waiter runs
   at most once, and it disarms the timer. The timer clears the slot and
   the pending plaintext only if the slot still holds {e this} call's
   waiter (a later call may have replaced it): a timed-out call must not
   be resent by a later TCP upgrade. *)
let wait_on_channel chan ?deadline net ~k =
  match deadline with
  | None -> chan.chan_waiting <- k
  | Some d ->
      let timer = ref None in
      let waiter r =
        Option.iter Sim.Engine.disarm !timer;
        k r
      in
      chan.chan_waiting <- waiter;
      timer :=
        Some
          (Sim.Engine.arm_after (Sim.Net.engine net) d (fun () ->
               if chan.chan_waiting == waiter then begin
                 chan.chan_waiting <- ignore;
                 chan.chan_pending <- None
               end;
               k (Error "call timed out")))

let call_priv t chan ?deadline data ~k =
  check_deadline "Client.call_priv" deadline;
  if chan.chan_closed then k closed_error
  else begin
    wait_on_channel chan ?deadline t.net ~k;
    chan.chan_pending <- Some (`Priv, data);
    let sealed = Krb_priv.seal chan.chan_session ~now:(now t) data in
    chan.chan_link.lk_send (Frames.wrap Frames.priv sealed)
  end

let call_safe t chan ?deadline data ~k =
  check_deadline "Client.call_safe" deadline;
  if chan.chan_closed then k closed_error
  else begin
    wait_on_channel chan ?deadline t.net ~k;
    chan.chan_pending <- Some (`Safe, data);
    let msg = Krb_safe.seal chan.chan_session ~now:(now t) data in
    chan.chan_link.lk_send (Frames.wrap Frames.safe msg)
  end

(* Tear the link down first, so nothing the waiter does can reach it. *)
let close chan =
  if not chan.chan_closed then begin
    chan.chan_link.lk_teardown ();
    lose_channel chan closed_error
  end
