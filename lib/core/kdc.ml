let default_port = 750

let tgs_cache_horizon = 600.0

(* The TGS replay cache is keyed by authenticator ciphertext from the
   wire, so it is capped. The busiest committed run that caches TGS
   authenticators (the detect campaign) holds 5,571 live at most, and the
   busiest benchmark workload makes 20,000 TGS requests in all, well
   inside one 600 s horizon: 32,768 evicts in none of them. *)
let tgs_cache_cap = 32_768

let empty_tgs_cache c_evicted =
  Replay_cache.create ~cap:tgs_cache_cap
    ~on_evict:(fun () -> Telemetry.Metrics.incr c_evicted)
    ~horizon:tgs_cache_horizon ()

(* What survives a crash on "disk": the database's checkpoint + WAL image
   and the TGS replay-cache snapshot. Captured at crash time — a KDC
   without durability enabled has no disk and loses everything. *)
type disk = {
  dk_checkpoint : bytes;
  dk_wal : bytes;
  dk_replay : bytes;
}

type recovery_info = {
  wal_applied : int;        (** WAL records replayed on top of the checkpoint *)
  wal_skipped : int;        (** records the checkpoint already covered *)
  wal_discarded_bytes : int;(** torn/corrupt WAL tail truncated by CRC *)
  replay_entries : int;     (** TGS replay-cache entries still live at restart *)
}

(* Admission control: the KDC models itself as a single server with a
   bounded priority queue. Every admitted request costs
   [base_service_time] plus whatever read delay the replica router
   charges; requests past the class's share of [queue_limit] are shed
   with KRB_ERR_BUSY and a retry-after hint instead of queueing into
   uselessness — and never dropped silently. *)
type admission = {
  queue_limit : int;        (* max requests waiting, all classes together *)
  base_service_time : float;(* per-request CPU cost, seed for the EWMA *)
  brownout_at : int;        (* depth where expensive work sheds; <= 0 off *)
  suspect_rate : int;       (* per-source requests/min before demotion *)
  classes : bool;           (* strict-priority classes; false = one FIFO *)
}

let default_admission =
  { queue_limit = 64; base_service_time = 0.001; brownout_at = 48;
    suspect_rate = 600; classes = true }

(* A queued request: the closure runs the traced handler (and sends the
   reply); the deadline, when the client propagated one, lets the drain
   loop shed stale work at the queue head. *)
type pending = {
  pq_deadline : float option;
  pq_attrs : (string * string) list;
  pq_run : unit -> unit;
}

type t = {
  realm : string;
  profile : Profile.t;
  lifetime : float;
  db : Kdb.t;
  rng : Util.Rng.t;
  routes : (string, string) Hashtbl.t;  (** remote realm -> next-hop realm *)
  mutable tgs_cache : Replay_cache.t;  (** authenticators presented to the TGS *)
  enc_tkt_cname_check : bool;
  verify_transit : bool;
  rate_limit : int option;  (** AS requests per source per minute *)
  rates : Telemetry.Rates.t;  (** per-source: both rules' windows, the view *)
  tel : Telemetry.Collector.t;
  (* Replica-aware read routing. [None] (the default) keeps every lookup
     on [db] with zero cost — the pre-replication behaviour, bit for bit.
     With a router, reads are spread over the primary + replica pool and
     each accumulates queueing delay into [read_delay]; [serve] applies
     the accumulated delay to the reply. *)
  reads : Replication.t option;
  mutable read_delay : float;
  (* Overload-control plane. [None] keeps the pre-admission behaviour:
     every decoded request runs inline, bit for bit as before. *)
  admission : admission option;
  service_base : float;  (* base_service_time when admission is on, else 0 *)
  aq_high : pending Queue.t;  (* TGS holders (renewals) *)
  aq_norm : pending Queue.t;  (* fresh AS_REQ *)
  aq_low : pending Queue.t;   (* attack-suspect sources *)
  mutable aq_busy_until : float;
  mutable aq_draining : bool;
  mutable aq_avg_service : float;  (* EWMA of measured per-request cost *)
  (* Crash/restart state, mirroring Apserver. [installed] remembers where
     [install] bound us so [restart] can re-listen. *)
  mutable installed : (Sim.Net.t * Sim.Host.t * int) option;
  mutable endpoint : Sim.Transport.server option;
  mutable running : bool;
  mutable disk : disk option;
  mutable durability_every : int option;  (** checkpoint cadence, if durable *)
  mutable last_recovery : recovery_info option;
  (* The bespoke int fields these replaced live on in the registry; the
     .mli accessors below read the counters back. [fresh_name] keeps two
     KDCs of one realm (replication tests) from merging their counts. *)
  c_as_served : Telemetry.Metrics.counter;
  c_preauth_rejected : Telemetry.Metrics.counter;
  c_rate_limited : Telemetry.Metrics.counter;
  c_replay_hits : Telemetry.Metrics.counter;
  c_recoveries : Telemetry.Metrics.counter;
  c_replay_evicted : Telemetry.Metrics.counter;
  c_ov_arrived : Telemetry.Metrics.counter;
  c_ov_busy : Telemetry.Metrics.counter;
  c_ov_brownout : Telemetry.Metrics.counter;
  c_ov_deadline : Telemetry.Metrics.counter;
  c_ov_processed : Telemetry.Metrics.counter;
}

let create ?(seed = 0x4b4443L) ?(enc_tkt_cname_check = false)
    ?(verify_transit = false) ?rate_limit ?telemetry ?reads ?admission ~realm
    ~profile ~lifetime db =
  (match reads with
  | Some r when Replication.primary r != db ->
      invalid_arg "Kdc.create: reads router is not over this database"
  | _ -> ());
  (match admission with
  | Some a when a.queue_limit <= 0 || a.base_service_time < 0.0 ->
      invalid_arg "Kdc.create: admission needs a positive queue and service time"
  | _ -> ());
  let tel =
    match telemetry with Some c -> c | None -> Telemetry.Collector.default ()
  in
  let m = Telemetry.Collector.metrics tel in
  let fresh base = Telemetry.Metrics.counter m (Telemetry.Metrics.fresh_name m base) in
  let c_replay_evicted = fresh ("kdc." ^ realm ^ ".replay_cache.evicted") in
  { realm; profile; lifetime; db; rng = Util.Rng.create seed;
    reads; read_delay = 0.0;
    admission;
    service_base =
      (match admission with Some a -> a.base_service_time | None -> 0.0);
    aq_high = Queue.create (); aq_norm = Queue.create ();
    aq_low = Queue.create ();
    aq_busy_until = 0.0; aq_draining = false;
    aq_avg_service =
      (match admission with Some a -> a.base_service_time | None -> 0.0);
    routes = Hashtbl.create 4;
    tgs_cache = empty_tgs_cache c_replay_evicted;
    enc_tkt_cname_check; verify_transit; rate_limit;
    rates = Telemetry.Collector.fresh_rates tel; tel;
    installed = None; endpoint = None; running = false; disk = None;
    durability_every = None;
    last_recovery = None;
    c_as_served = fresh ("kdc." ^ realm ^ ".as_requests_served");
    c_preauth_rejected = fresh ("kdc." ^ realm ^ ".preauth_rejections");
    c_rate_limited = fresh ("kdc." ^ realm ^ ".rate_limited_requests");
    c_replay_hits = fresh ("kdc." ^ realm ^ ".replay_hits");
    c_recoveries = fresh ("kdc." ^ realm ^ ".recoveries");
    c_replay_evicted;
    c_ov_arrived = fresh ("kdc." ^ realm ^ ".admission.arrived");
    c_ov_busy = fresh ("kdc." ^ realm ^ ".admission.busy_rejections");
    c_ov_brownout = fresh ("kdc." ^ realm ^ ".admission.brownout_sheds");
    c_ov_deadline = fresh ("kdc." ^ realm ^ ".admission.deadline_sheds");
    c_ov_processed = fresh ("kdc." ^ realm ^ ".admission.processed") }

let enable_durability ?(checkpoint_every = 0) t =
  Kdb.enable_durability ~checkpoint_every t.db;
  t.durability_every <- Some checkpoint_every

let realm t = t.realm
let database t = t.db
let add_realm_route t ~remote ~next_hop = Hashtbl.replace t.routes remote next_hop
let as_requests_served t = Telemetry.Metrics.value t.c_as_served
let preauth_rejections t = Telemetry.Metrics.value t.c_preauth_rejected
let rate_limited_requests t = Telemetry.Metrics.value t.c_rate_limited
let busy_rejections t = Telemetry.Metrics.value t.c_ov_busy
let brownout_sheds t = Telemetry.Metrics.value t.c_ov_brownout
let deadline_sheds t = Telemetry.Metrics.value t.c_ov_deadline
let admission_arrived t = Telemetry.Metrics.value t.c_ov_arrived
let admission_processed t = Telemetry.Metrics.value t.c_ov_processed
let replay_evictions t = Telemetry.Metrics.value t.c_replay_evicted

let admission_queue_depth t =
  Queue.length t.aq_high + Queue.length t.aq_norm + Queue.length t.aq_low

(* Sliding one-minute window per source address. *)
let rate_limit_exceeded t ~now src =
  match t.rate_limit with
  | Some limit when not (Telemetry.Rates.admit t.rates src ~now ~limit) ->
      Telemetry.Metrics.incr t.c_rate_limited;
      true
  | _ -> false

let tgs_principal t = Principal.tgs ~realm:t.realm

(* Route one database read. Without a router this is [Kdb.lookup] on the
   primary, free. With one, the read goes to the least-loaded eligible
   serving unit and its queueing + service delay accumulates into
   [read_delay]; successive reads within one exchange queue behind each
   other (hence [now + read_delay]). [fresh] marks password-change-
   sensitive lookups — the AS client key — which must not be served from
   a replica still behind on shipped writes. *)
let db_read ?(fresh = false) t ~now principal =
  match t.reads with
  | None -> Kdb.lookup t.db principal
  | Some router ->
      let entry, delay =
        Replication.read router ~now:(now +. t.read_delay) ~fresh principal
      in
      t.read_delay <- t.read_delay +. delay;
      entry

let err code text = Messages.err_to_value { Messages.e_code = code; e_text = text }

let skew = 300.0

(* ------------------------------------------------------------------ *)
(* AS exchange                                                         *)
(* ------------------------------------------------------------------ *)

let check_preauth t ~client_key (q : Messages.as_req) =
  if not t.profile.Profile.preauth then Ok ()
  else
    match
      List.find_map
        (function Messages.Pa_preauth b -> Some b | _ -> None)
        q.q_padata
    with
    | Some blob -> (
        match
          Messages.open_msg t.profile ~key:client_key ~tag:Messages.tag_preauth blob
        with
        | Error _ -> Error "preauth does not decrypt"
        | Ok v -> (
            match Wire.Encoding.expect_tag t.profile.Profile.encoding Messages.tag_preauth v with
            | exception Wire.Codec.Decode_error _ -> Error "preauth malformed"
            | inner ->
                let nonce = Wire.Encoding.get_int (Wire.Encoding.nth inner 0) in
                if nonce = q.q_nonce then Ok () else Error "preauth nonce mismatch"))
    | None -> Error "preauthentication required"

(* The {R}Kc wrapping of the handheld scheme. *)
let handheld_wrap ~client_key r =
  let k = Crypto.Des.schedule_cached client_key in
  Crypto.Des.fix_parity (Crypto.Des.encrypt_block k r)

(* The KDC's half of the exponential exchange: its public value and the
   DES key distilled from the shared secret. *)
let dh_respond t (q : Messages.as_req) =
  match
    List.find_map (function Messages.Pa_dh b -> Some b | _ -> None) q.q_padata
  with
  | None -> Error "dh login requires an exponential"
  | Some client_pub ->
      let grp = Crypto.Dh.group ~bits:t.profile.Profile.dh_group_bits in
      let kp = Crypto.Dh.generate t.rng grp in
      let shared = Crypto.Dh.shared_secret grp kp (Crypto.Bignum.of_bytes_be client_pub) in
      let kdh = Crypto.Dh.secret_to_key grp shared in
      let pub_bytes =
        Crypto.Bignum.to_bytes_be ~size:((Crypto.Bignum.num_bits grp.p + 7) / 8) kp.public
      in
      Ok (kdh, pub_bytes)

let wrap_key t ~client_key (q : Messages.as_req) =
  (* Returns (wrapping key, challenge field, dh field) per login method. *)
  match t.profile.Profile.login with
  | Profile.Password -> Ok (client_key, None, None)
  | Profile.Handheld_challenge ->
      let r = Util.Rng.bytes t.rng 8 in
      Ok (handheld_wrap ~client_key r, Some r, None)
  | Profile.Dh_protected ->
      Result.map
        (fun (kdh, pub) ->
          (Crypto.Prf.tag_key ~tag:"dh-login" (Util.Bytesutil.xor client_key kdh),
           None, Some pub))
        (dh_respond t q)
  | Profile.Handheld_dh ->
      let r = Util.Rng.bytes t.rng 8 in
      Result.map
        (fun (kdh, pub) ->
          ( Crypto.Prf.tag_key ~tag:"dh-login"
              (Util.Bytesutil.xor (handheld_wrap ~client_key r) kdh),
            Some r, Some pub ))
        (dh_respond t q)

let handle_as t net host (q : Messages.as_req) ~src_addr =
  let arrival = Sim.Net.local_time net host in
  if rate_limit_exceeded t ~now:arrival src_addr then
    err Messages.err_policy "request rate limit exceeded"
  else
  (* The client key seals the reply a password change just re-derived:
     a stale replica would issue tickets under the old key, so this read
     carries the freshness floor. *)
  match db_read ~fresh:true t ~now:arrival q.q_client with
  | None -> err Messages.err_principal_unknown (Principal.to_string q.q_client)
  | Some { key = client_key; _ } -> (
      match check_preauth t ~client_key q with
      | Error reason ->
          Telemetry.Metrics.incr t.c_preauth_rejected;
          err Messages.err_preauth_required reason
      | Ok () -> (
          match db_read t ~now:arrival q.q_server with
          | None -> err Messages.err_principal_unknown (Principal.to_string q.q_server)
          | Some { key = server_key; _ } -> (
              match wrap_key t ~client_key q with
              | Error reason -> err Messages.err_preauth_failed reason
              | Ok (wrap, challenge, dh_pub) ->
                  Telemetry.Metrics.incr t.c_as_served;
                  let now = Sim.Net.local_time net host in
                  let session_key = Crypto.Des.random_key t.rng in
                  let ticket =
                    { Messages.server = q.q_server; client = q.q_client;
                      addr =
                        (if t.profile.Profile.addr_in_ticket then Some q.q_addr else None);
                      issued_at = now; lifetime = t.lifetime; session_key;
                      forwarded = false; dup_skey = false; transited = [] }
                  in
                  if Telemetry.Collector.wants_events t.tel then
                    Telemetry.Collector.event t.tel ~component:"kdc"
                      ~kind:"ticket.issued"
                      [ ("client", Principal.to_string q.q_client);
                        ("server", Principal.to_string q.q_server);
                        ("lifetime", Printf.sprintf "%g" t.lifetime);
                        ( "addr",
                          match ticket.Messages.addr with
                          | Some _ -> "bound"
                          | None -> "none" ) ];
                  let sealed_ticket =
                    Messages.seal_msg t.profile t.rng ~key:server_key
                      ~tag:Messages.tag_ticket (Messages.ticket_to_value ticket)
                  in
                  (* Recommendation (c), second half: only the hardened
                     profile protects the ticket inside the sealed body; V4
                     and the drafts ship it in the clear. *)
                  let inside = t.profile.Profile.ticket_inside_sealed_rep in
                  let body =
                    { Messages.b_session_key = session_key; b_nonce = q.q_nonce;
                      b_server = q.q_server; b_issued_at = now; b_lifetime = t.lifetime;
                      b_ticket = (if inside then sealed_ticket else Bytes.empty) }
                  in
                  let sealed =
                    Messages.seal_msg t.profile t.rng ~key:wrap
                      ~tag:Messages.tag_as_rep_body
                      (Messages.rep_body_to_value ~tag:Messages.tag_as_rep_body body)
                  in
                  Messages.as_rep_to_value
                    { Messages.p_challenge = challenge; p_dh_public = dh_pub;
                      p_ticket = (if inside then None else Some sealed_ticket);
                      p_sealed = sealed })))

(* ------------------------------------------------------------------ *)
(* TGS exchange                                                        *)
(* ------------------------------------------------------------------ *)

(* The presented ticket-granting ticket may be sealed under our own TGS key
   or under a cross-realm key another realm shares with us. The key that
   opens it tells us which neighboring realm vouched for it — information
   the ticket's own transited field cannot be trusted to carry. *)
let open_tgt t ~now (blob : bytes) =
  let candidates =
    (match db_read t ~now (tgs_principal t) with
    | Some { Kdb.key; kind = Kdb.Service } -> [ (key, None) ]
    | _ -> [])
    (* krbtgt.<us>@<neighbor>: the neighbor is the key's realm. The
       cross-realm set is memoized in the database — this runs per TGS
       request and must not scan a realm-sized principal table. *)
    @ List.map
        (fun (p, key) -> (key, Some p.Principal.realm))
        (Kdb.cross_realm_keys t.db)
  in
  let rec try_keys = function
    | [] -> Error "ticket does not decrypt under any TGS key"
    | (key, source_realm) :: rest -> (
        match Messages.open_msg t.profile ~key ~tag:Messages.tag_ticket blob with
        | Ok v -> (
            match Messages.ticket_of_value v with
            | ticket -> Ok (ticket, source_realm)
            | exception Wire.Codec.Decode_error e -> Error e)
        | Error _ -> try_keys rest)
  in
  try_keys candidates

(* Additional tickets (ENC-TKT-IN-SKEY / REUSE-SKEY) may name any service;
   the KDC holds every key in the realm and can open them all. *)
let open_any_ticket t (blob : bytes) =
  let keys =
    List.filter_map
      (fun p -> Option.map (fun e -> e.Kdb.key) (Kdb.lookup t.db p))
      (Kdb.principals t.db)
  in
  let rec try_keys = function
    | [] -> Error "additional ticket does not decrypt under any realm key"
    | key :: rest -> (
        match Messages.open_msg t.profile ~key ~tag:Messages.tag_ticket blob with
        | Ok v -> (
            match Messages.ticket_of_value v with
            | ticket -> Ok ticket
            | exception Wire.Codec.Decode_error _ -> try_keys rest)
        | Error _ -> try_keys rest)
  in
  try_keys keys

let validate_tgs_authenticator t ~now ~src_addr ~(ticket : Messages.ticket)
    (req : Messages.tgs_req) =
  let open Messages in
  match
    open_msg t.profile ~key:ticket.session_key ~tag:tag_authenticator
      req.t_ap.r_authenticator
  with
  | Error e -> Error (err_bad_integrity, "authenticator: " ^ e)
  | Ok v -> (
      match authenticator_of_value v with
      | exception Wire.Codec.Decode_error e -> Error (err_bad_integrity, e)
      | auth ->
          if not (Principal.equal auth.a_client ticket.client) then
            Error (err_bad_integrity, "authenticator/ticket client mismatch")
          else if
            (* The paper's challenge/response option extends to the TGS: the
               request's nonce (echoed, sealed, in the reply) plus the
               request checksum make the exchange self-authenticating — a
               replayed TGS request merely re-issues a ticket sealed to the
               original TGT holder. Only timestamp profiles check clocks. *)
            (match t.profile.Profile.ap_auth with
            | Profile.Timestamp _ -> Float.abs (auth.a_timestamp -. now) > skew
            | Profile.Challenge_response -> false)
          then Error (err_skew, "authenticator outside clock skew")
          else if
            (match t.profile.Profile.ap_auth with
            | Profile.Timestamp { replay_cache = true; _ } ->
                Replay_cache.check_and_insert t.tgs_cache ~now req.t_ap.r_authenticator
                = Replay_cache.Replayed
            | _ -> false)
          then Error (err_replay, "authenticator replayed")
          else if
            (match ticket.addr with
            | Some a -> not (Sim.Addr.equal a src_addr)
            | None -> false)
          then Error (err_badaddr, "ticket bound to another address")
          else if ticket.issued_at +. ticket.lifetime < now then
            Error (err_ticket_expired, "ticket expired")
          else begin
            (* Draft 3: the cleartext request fields are covered only by a
               checksum sealed in the authenticator. *)
            match t.profile.Profile.encoding with
            | Wire.Encoding.V4_adhoc -> Ok auth
            | Wire.Encoding.Der_typed -> (
                match auth.a_req_cksum with
                | None -> Error (err_bad_integrity, "request checksum missing")
                | Some cksum ->
                    let data = tgs_req_cleartext_fields req in
                    if
                      Crypto.Checksum.verify t.profile.Profile.checksum
                        ~key:ticket.session_key data ~expect:cksum
                    then Ok auth
                    else Error (err_bad_integrity, "request checksum mismatch"))
          end)

let handle_tgs t net host (req : Messages.tgs_req) ~src_addr =
  let open Messages in
  let now = Sim.Net.local_time net host in
  match open_tgt t ~now req.t_ap.r_ticket with
  | Error e -> err err_bad_integrity e
  | Ok (tgt, source_realm) -> (
      (* With transit verification on, the realm whose key vouched for this
         TGT is appended by us — a lying intermediate cannot erase itself. *)
      let tgt =
        match source_realm with
        | Some r when t.verify_transit && not (List.mem r tgt.Messages.transited) ->
            { tgt with Messages.transited = tgt.Messages.transited @ [ r ] }
        | _ -> tgt
      in
      match validate_tgs_authenticator t ~now ~src_addr ~ticket:tgt req with
      | Error (code, text) -> err code text
      | Ok _auth -> (
          let opts = req.t_options in
          if opts.enc_tkt_in_skey && not t.profile.Profile.allow_enc_tkt_in_skey then
            err err_option_forbidden "ENC-TKT-IN-SKEY not allowed"
          else if opts.reuse_skey && not t.profile.Profile.allow_reuse_skey then
            err err_option_forbidden "REUSE-SKEY not allowed"
          else if opts.forward && not t.profile.Profile.allow_forwarding then
            err err_option_forbidden "forwarding not allowed"
          else
            (* Open the additional ticket if an option needs it. Note,
               faithfully to Draft 3: no check that its client names the
               requested server — the omission behind the cut-and-paste
               attack. *)
            let additional =
              if opts.enc_tkt_in_skey || opts.reuse_skey then
                match req.t_additional_ticket with
                | None -> Error "option requires an additional ticket"
                | Some blob -> Result.map (fun tkt -> Some tkt) (open_any_ticket t blob)
              else Ok None
            in
            match additional with
            | Error e -> err err_bad_integrity e
            | Ok (Some a)
              when opts.enc_tkt_in_skey && t.enc_tkt_cname_check
                   && not (Principal.equal a.client req.t_server) ->
                (* The intended-but-omitted Draft 3 rule. *)
                err err_policy
                  "additional ticket's client does not name the requested server"
            | Ok additional -> (
                (* Cross-realm referral when the target lives elsewhere. *)
                let target_realm = req.t_server.Principal.realm in
                let issue_for ~server_principal ~seal_key ~server_for_client =
                  let session_key =
                    match (opts.reuse_skey, additional) with
                    | true, Some a -> a.session_key
                    | _ -> Crypto.Des.random_key t.rng
                  in
                  let ticket =
                    { server = server_principal; client = tgt.client;
                      addr =
                        (if opts.forward then None
                         else if t.profile.Profile.addr_in_ticket then Some src_addr
                         else None);
                      issued_at = now; lifetime = t.lifetime; session_key;
                      forwarded = (opts.forward || tgt.forwarded);
                      dup_skey = opts.reuse_skey;
                      transited =
                        (if Principal.equal server_principal req.t_server then tgt.transited
                         else tgt.transited @ [ t.realm ]) }
                  in
                  if Telemetry.Collector.wants_events t.tel then
                    Telemetry.Collector.event t.tel ~component:"kdc"
                      ~kind:"ticket.issued"
                      [ ("client", Principal.to_string ticket.client);
                        ("server", Principal.to_string server_principal);
                        ("lifetime", Printf.sprintf "%g" t.lifetime);
                        ( "addr",
                          match ticket.addr with Some _ -> "bound" | None -> "none"
                        ) ];
                  let sealed_ticket =
                    seal_msg t.profile t.rng ~key:seal_key ~tag:tag_ticket
                      (ticket_to_value ticket)
                  in
                  let inside = t.profile.Profile.ticket_inside_sealed_rep in
                  let body =
                    { b_session_key = session_key; b_nonce = req.t_nonce;
                      b_server = server_for_client; b_issued_at = now;
                      b_lifetime = t.lifetime;
                      b_ticket = (if inside then sealed_ticket else Bytes.empty) }
                  in
                  let sealed =
                    seal_msg t.profile t.rng ~key:tgt.session_key ~tag:tag_rep_body
                      (rep_body_to_value ~tag:tag_rep_body body)
                  in
                  as_rep_to_value
                    { p_challenge = None; p_dh_public = None;
                      p_ticket = (if inside then None else Some sealed_ticket);
                      p_sealed = sealed }
                in
                if target_realm <> t.realm then begin
                  (* Refer the client to the next hop. *)
                  let next =
                    match Hashtbl.find_opt t.routes target_realm with
                    | Some hop -> Some hop
                    | None -> None
                  in
                  match next with
                  | None -> err err_transit ("no route to realm " ^ target_realm)
                  | Some hop -> (
                      let xrealm = Principal.cross_realm_tgs ~local:t.realm ~remote:hop in
                      match Kdb.lookup t.db xrealm with
                      | None -> err err_transit ("no key for " ^ Principal.to_string xrealm)
                      | Some { key; _ } ->
                          issue_for ~server_principal:(Principal.tgs ~realm:hop)
                            ~seal_key:key
                            ~server_for_client:(Principal.tgs ~realm:hop))
                end
                else
                  match
                    (* ENC-TKT-IN-SKEY: seal the new ticket under the session
                       key of the enclosed ticket instead of the server key. *)
                    match (opts.enc_tkt_in_skey, additional) with
                    | true, Some a -> Ok a.session_key
                    | true, None -> Error "missing additional ticket"
                    | false, _ -> (
                        match db_read t ~now req.t_server with
                        | None -> Error (Principal.to_string req.t_server ^ " unknown")
                        | Some { key; _ } -> Ok key)
                  with
                  | Error e -> err err_principal_unknown e
                  | Ok seal_key ->
                      issue_for ~server_principal:req.t_server ~seal_key
                        ~server_for_client:req.t_server)))

(* ------------------------------------------------------------------ *)
(* Service loop                                                        *)
(* ------------------------------------------------------------------ *)

(* The reply is an error exactly when it parses as one; map its code to the
   shared outcome vocabulary, otherwise the exchange succeeded. *)
let outcome_of_reply v =
  match Messages.err_of_value v with
  | e -> Ap_check.outcome_of_code ~code:e.Messages.e_code ~text:e.Messages.e_text
  | exception Wire.Codec.Decode_error _ -> "ok"

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

(* Was this source's recent request rate past the suspect threshold?
   Counted on every arrival while admission is on; a suspect source is
   not refused outright — it is demoted to the lowest priority class, so
   a flood queues behind legitimate work instead of ahead of it. *)
let note_arrival t ~now src =
  match t.admission with
  | None -> false
  | Some a -> Telemetry.Rates.arrive t.rates src ~now > a.suspect_rate

(* Strict priority: TGS holders (and anything else in the high class)
   drain before fresh AS logins, which drain before suspect sources. *)
let aq_pop t =
  if not (Queue.is_empty t.aq_high) then Some (Queue.pop t.aq_high)
  else if not (Queue.is_empty t.aq_norm) then Some (Queue.pop t.aq_norm)
  else if not (Queue.is_empty t.aq_low) then Some (Queue.pop t.aq_low)
  else None

(* How long the shed client should stay away: the measured time to drain
   what is queued ahead of it, clamped to something a client will
   actually wait. Deterministic — EWMA state and queue depth only. *)
let retry_hint t ~depth =
  Float.min 30.0 (Float.max 0.01 (float_of_int (depth + 1) *. t.aq_avg_service))

(* The virtual single server: pop the highest-priority request, shed it
   for free if its propagated deadline has already passed (the caller
   stopped waiting — processing it would burn service time on a reply
   nobody reads), otherwise run it, charge the measured cost, and come
   back when the service completes. *)
let rec aq_drain t net =
  if not t.running then t.aq_draining <- false
  else begin
    let eng = Sim.Net.engine net in
    let now = Sim.Engine.now eng in
    if now < t.aq_busy_until then ()  (* the completion event re-drains *)
    else
      match aq_pop t with
      | None -> t.aq_draining <- false
      | Some p -> (
          match p.pq_deadline with
          | Some d when now > d ->
              Telemetry.Metrics.incr t.c_ov_deadline;
              if Telemetry.Collector.wants_events t.tel then
                Telemetry.Collector.event t.tel ~component:"kdc"
                  ~kind:"overload.deadline_shed" p.pq_attrs;
              aq_drain t net
          | _ ->
              p.pq_run ();
              let cost = t.service_base +. t.read_delay in
              t.aq_avg_service <-
                (0.8 *. t.aq_avg_service) +. (0.2 *. cost);
              Telemetry.Metrics.incr t.c_ov_processed;
              if cost > 0.0 then begin
                t.aq_busy_until <- now +. cost;
                Sim.Engine.schedule_after eng cost (fun () -> aq_drain t net)
              end
              else aq_drain t net)
  end

let serve t net host port =
  let tel = t.tel in
  let encode v = Wire.Encoding.encode t.profile.Profile.encoding v in
  (* Both endpoints (datagram and framed stream) feed this handler; a
     datagram reply that cannot fit the return path is replaced by the
     RESPONSE-TOO-BIG refusal, telling the client to redo over TCP. *)
  let endpoint =
    Sim.Transport.serve net host ~port
      ~too_big:(fun ~mtu:_ ->
        encode (err Messages.err_response_too_big "response exceeds path MTU"))
      (fun ~peer payload ~reply:send_raw ->
      let reply v = send_raw (encode v) in
      let src_addr = peer.Sim.Transport.p_addr in
      (* The source and the request's attributes are rendered only where
         they are read: in a span's attributes, an event, or an admission
         queue entry. *)
      let src () = Sim.Addr.to_string src_addr in
      (* One span per exchange, nested under the request's packet span; the
         reply is transmitted inside the span's context so the reply packet
         nests under it in turn. *)
      let traced name ~attrs handler =
        let span =
          Telemetry.Collector.span_begin tel ~component:"kdc" name
            ~attrs:(fun () -> ("realm", t.realm) :: ("src", src ()) :: attrs ())
        in
        t.read_delay <- 0.0;
        let outcome =
          Telemetry.Collector.with_context tel span (fun () ->
              let v = handler () in
              let outcome = outcome_of_reply v in
              (* Replica-routed reads accumulated queueing delay: hold the
                 reply until the serving units would actually have finished,
                 so overload surfaces as client-visible latency. Under
                 admission control the request's own service time is added
                 — the reply leaves when the virtual server finishes it.
                 The no-router, no-admission path replies inline, exactly
                 as before. *)
              let delay = t.read_delay +. t.service_base in
              if delay > 0.0 then
                Sim.Engine.schedule_after (Sim.Net.engine net) delay
                  (fun () -> reply v)
              else reply v;
              outcome)
        in
        if name = "kdc.as_req" then
          Telemetry.Rates.record_as t.rates src_addr
            ~time:(Sim.Net.local_time net host) ~outcome;
        (* The detection-plane hook: one event per exchange with the fields
           the anomaly rules key on. Guarded so the million-user fast path
           skips the attribute list when nothing is listening. *)
        if Telemetry.Collector.wants_events tel then
          Telemetry.Collector.event tel ~component:"kdc"
            ~kind:(if name = "kdc.as_req" then "auth.as_req" else "auth.tgs_req")
            (("src", src ()) :: ("outcome", outcome) :: attrs ());
        if outcome = "replay-detected" then Telemetry.Metrics.incr t.c_replay_hits;
        Telemetry.Collector.span_finish tel ~outcome span
      in
      (* Admission: with no configuration, [run] executes inline — the
         pre-overload-plane behaviour, bit for bit. With one, the request
         joins its priority class's share of the bounded queue or is shed
         with KRB_ERR_BUSY + retry-after; brownout additionally sheds
         expensive work (cross-realm chases, preauth-heavy logins) while
         the queue is merely deep, keeping cheap renewals alive. Every
         shed is counted and answered (busy) or counted and traced
         (deadline) — never silent. *)
      let admit ~cls ~expensive ~deadline ~kind ~attrs ~run =
        match t.admission with
        | None -> run ()
        | Some ad ->
            Telemetry.Metrics.incr t.c_ov_arrived;
            (* [classes = false] collapses the scheduler to one FIFO class
               — the pre-priority KDC whose queue treats a login storm and
               a calm renewal identically. The overload experiment's naive
               arm runs this way. *)
            let cls = if ad.classes then cls else `Norm in
            let depth = admission_queue_depth t in
            let shed c hint_depth =
              Telemetry.Metrics.incr c;
              reply
                (err Messages.err_busy
                   (Messages.busy_text ~retry_after:(retry_hint t ~depth:hint_depth)))
            in
            if expensive && ad.brownout_at > 0 && depth >= ad.brownout_at then
              shed t.c_ov_brownout ad.brownout_at
            else begin
              let threshold =
                if not ad.classes then ad.queue_limit
                else
                  match cls with
                  | `High -> ad.queue_limit
                  | `Norm -> ad.queue_limit * 3 / 4
                  | `Low -> ad.queue_limit / 4
              in
              if depth >= threshold then shed t.c_ov_busy depth
              else begin
                let q =
                  match cls with
                  | `High -> t.aq_high
                  | `Norm -> t.aq_norm
                  | `Low -> t.aq_low
                in
                Queue.push
                  { pq_deadline = deadline;
                    pq_attrs = ("kind", kind) :: ("src", src ()) :: attrs ();
                    pq_run = run }
                  q;
                if not t.aq_draining then begin
                  t.aq_draining <- true;
                  aq_drain t net
                end
              end
            end
      in
      match Wire.Encoding.decode_result t.profile.Profile.encoding payload with
      | Error e -> reply (err Messages.err_generic e)
      | Ok v -> (
          match Messages.split_deadline v with
          | exception Wire.Codec.Decode_error e -> reply (err Messages.err_generic e)
          | deadline, v -> (
              let suspect =
                note_arrival t ~now:(Sim.Engine.now (Sim.Net.engine net)) src_addr
              in
              (* Try AS first, then TGS; under Der the tag disambiguates,
                 under V4 the structural parse does. *)
              match Messages.as_req_of_value v with
              | q ->
                  let attrs () = [ ("client", Principal.to_string q.Messages.q_client) ] in
                  (* Preauth-heavy logins are the AS path's expensive work:
                     a preauth decrypt or a DH exponentiation per request. *)
                  let expensive =
                    List.exists
                      (function
                        | Messages.Pa_preauth _ | Messages.Pa_dh _ -> true
                        | Messages.Pa_handheld -> false)
                      q.Messages.q_padata
                  in
                  admit
                    ~cls:(if suspect then `Low else `Norm)
                    ~expensive ~deadline ~kind:"as_req" ~attrs
                    ~run:(fun () ->
                      traced "kdc.as_req" ~attrs (fun () ->
                          handle_as t net host q ~src_addr))
              | exception Wire.Codec.Decode_error _ -> (
                  match Messages.tgs_req_of_value v with
                  | req ->
                      let attrs () =
                        [ ("server", Principal.to_string req.Messages.t_server) ]
                      in
                      (* A TGS request proves the sender once held a TGT:
                         renewals ride the high class (unless the source is
                         suspect). Cross-realm chases are the expensive
                         work brownout sheds first. *)
                      let expensive =
                        req.Messages.t_server.Principal.realm <> t.realm
                      in
                      admit
                        ~cls:(if suspect then `Low else `High)
                        ~expensive ~deadline ~kind:"tgs_req" ~attrs
                        ~run:(fun () ->
                          traced "kdc.tgs_req" ~attrs (fun () ->
                              handle_tgs t net host req ~src_addr))
                  | exception Wire.Codec.Decode_error e ->
                      reply (err Messages.err_generic e)))))
  in
  t.endpoint <- Some endpoint

let install net host t ?(port = default_port) () =
  t.installed <- Some (net, host, port);
  t.running <- true;
  serve t net host port

let running t = t.running
let last_recovery t = t.last_recovery
let recoveries t = Telemetry.Metrics.value t.c_recoveries

(* A crash loses everything in memory: the principal database, the TGS
   replay cache, both per-source rules' windows, the port (the operator
   view's counts stay: the operator saw them). What survives is the disk
   image the durability plane maintained — checkpoint plus WAL, captured
   here exactly as the instant of death left them (the WAL may well end
   mid-mutation; recovery's CRC framing deals with that). Without
   {!enable_durability} there is no disk and a restart comes back empty —
   the pre-PR behaviour, now opt-out instead of inevitable. *)
let crash t =
  match t.installed with
  | Some (net, host, _port) when t.running ->
      t.running <- false;
      (match t.endpoint with
      | Some ep -> Sim.Transport.shutdown ep
      | None -> ());
      t.endpoint <- None;
      t.disk <-
        Option.map
          (fun (dk_checkpoint, dk_wal) ->
            { dk_checkpoint; dk_wal;
              dk_replay = Replay_cache.to_bytes t.tgs_cache })
          (Kdb.disk_image t.db);
      Kdb.wipe t.db;
      t.tgs_cache <- empty_tgs_cache t.c_replay_evicted;
      Telemetry.Rates.forget_windows t.rates;
      (* Queued work dies with the process; the clients' retry machinery
         is what carries those requests across the crash. *)
      Queue.clear t.aq_high;
      Queue.clear t.aq_norm;
      Queue.clear t.aq_low;
      t.aq_busy_until <- 0.0;
      t.aq_draining <- false;
      Sim.Net.note net
        (Printf.sprintf "%s: KDC for realm %s crashed%s" host.Sim.Host.name
           t.realm
           (if t.disk = None then " (no durable state: database lost)" else ""))
  | _ -> ()

let restart t =
  match t.installed with
  | Some (net, host, port) when not t.running ->
      (match t.disk with
      | Some d ->
          let r = Kdb.recover ~checkpoint:d.dk_checkpoint ~wal:d.dk_wal in
          Kdb.restore t.db r;
          (match t.durability_every with
          | Some every -> Kdb.enable_durability ~checkpoint_every:every t.db
          | None -> ());
          let now = Sim.Net.local_time net host in
          let cache =
            Replay_cache.of_bytes ~now
              ~on_evict:(fun () -> Telemetry.Metrics.incr t.c_replay_evicted)
              d.dk_replay
          in
          t.tgs_cache <- cache;
          t.last_recovery <-
            Some
              { wal_applied = r.Kdb.applied;
                wal_skipped = r.Kdb.skipped;
                wal_discarded_bytes = r.Kdb.discarded_bytes;
                replay_entries = Replay_cache.size cache };
          Telemetry.Metrics.incr t.c_recoveries;
          Sim.Net.note net
            (Printf.sprintf
               "%s: KDC for realm %s recovered (checkpoint + %d WAL records, \
                %d stale bytes dropped, %d replay entries live)"
               host.Sim.Host.name t.realm r.Kdb.applied r.Kdb.discarded_bytes
               (Replay_cache.size cache))
      | None ->
          Sim.Net.note net
            (Printf.sprintf "%s: KDC for realm %s restarted cold (empty database)"
               host.Sim.Host.name t.realm));
      t.disk <- None;
      t.running <- true;
      serve t net host port
  | _ -> ()
