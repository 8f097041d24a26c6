(* The overload-control plane, unit by unit: KDC admission control
   (busy + retry-after, class thresholds, brownout, deadline shedding at
   the queue head, suspect demotion) and client storm hygiene (circuit
   breaker state machine, retry-budget exhaustion, honored retry-after
   hints). The metastable-failure campaign itself lives in
   `experiments overload` / bench --overload-smoke; these tests pin the
   mechanisms it composes. *)

open Kerberos

let realm = "ATHENA"
let quad = Sim.Addr.of_quad

(* Pa_preauth on every AS_REQ: the "expensive work" shape brownout sheds
   first. *)
let preauth_profile =
  { Profile.v5_draft3 with Profile.name = "v5-draft3+preauth"; preauth = true }

type bed = {
  eng : Sim.Engine.t;
  net : Sim.Net.t;
  kdc : Kdc.t;
  kdc_host : Sim.Host.t;
  profile : Profile.t;
}

(* A KDC under admission control, [n_users] principals (pw "pw<i>"), one
   registered service. Per-test knobs pick the queue geometry; the
   service clock is deliberately slow so tests can park requests in the
   queue and probe the policy at known depths. *)
let mk ?(profile = Profile.v5_draft3) ~admission ?(n_users = 16) () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let kdc_host = Sim.Host.create ~name:"kdc" ~ips:[ quad 10 0 0 1 ] () in
  Sim.Net.attach net kdc_host;
  let db = Kdb.create () in
  let rng = Util.Rng.create 0x0eadL in
  Kdb.add_service db (Principal.tgs ~realm) ~key:(Crypto.Des.random_key rng);
  Kdb.add_service db
    (Principal.service ~realm "fs" ~host:"h")
    ~key:(Crypto.Des.random_key rng);
  for i = 0 to n_users - 1 do
    Kdb.add_user db
      (Principal.user ~realm (Printf.sprintf "u%d" i))
      ~password:(Printf.sprintf "pw%d" i)
  done;
  let kdc = Kdc.create ~realm ~profile ~lifetime:3600.0 ~admission db in
  Kdc.install net kdc_host kdc ();
  { eng; net; kdc; kdc_host; profile }

let fs = Principal.service ~realm "fs" ~host:"h"

(* One workstation per client so each has its own source address — the
   suspect tracker keys on it. *)
let ws b i =
  let h =
    Sim.Host.create ~name:(Printf.sprintf "ws%d" i) ~ips:[ quad 10 0 1 i ] ()
  in
  Sim.Net.attach b.net h;
  h

let plain_client ?(timeout = 30.0) b i =
  Client.create ~seed:(Int64.of_int (100 + i)) ~kdc_timeout:timeout
    ~kdc_retries:0 b.net (ws b i) ~profile:b.profile
    ~kdcs:[ (realm, Sim.Host.primary_ip b.kdc_host) ]
    (Principal.user ~realm (Printf.sprintf "u%d" i))

let pw i = Printf.sprintf "pw%d" i

let is_busy_error e = Astring.String.is_infix ~affix:"busy" e

(* The accounting identity every test closes with: nothing vanishes. *)
let check_no_silent_drops b =
  Alcotest.(check int) "no silent drops"
    (Kdc.admission_arrived b.kdc)
    (Kdc.admission_processed b.kdc + Kdc.busy_rejections b.kdc
    + Kdc.brownout_sheds b.kdc + Kdc.deadline_sheds b.kdc
    + Kdc.admission_queue_depth b.kdc);
  Alcotest.(check int) "queue drained" 0 (Kdc.admission_queue_depth b.kdc)

(* ------------------------------------------------------------------ *)
(* KDC admission                                                       *)
(* ------------------------------------------------------------------ *)

(* The retry-after hint survives its trip through the error text. *)
let busy_text_roundtrip () =
  Alcotest.(check (option (float 1e-9)))
    "hint round-trips" (Some 0.25)
    (Messages.retry_after_of_text (Messages.busy_text ~retry_after:0.25));
  Alcotest.(check (option (float 1e-9)))
    "ordinary error text carries no hint" None
    (Messages.retry_after_of_text "no such principal")

(* Past the queue bound a login is answered KRB_ERR_BUSY with a
   parseable retry-after — counted, never silently dropped. *)
let busy_shed_with_hint () =
  let b =
    mk
      ~admission:
        { Kdc.queue_limit = 4; base_service_time = 1.0; brownout_at = 0;
          suspect_rate = max_int; classes = true }
      ()
  in
  (* Norm threshold is 3/4 of 4 = 3: of ten simultaneous logins, one is
     in service, three queue, six shed (the in-service request has left
     the queue, so depth counts the waiters only). *)
  let oks = ref 0 and busy = ref [] in
  for i = 0 to 9 do
    let c = plain_client b i in
    Client.login c ~password:(pw i) (function
      | Ok _ -> incr oks
      | Error e -> busy := e :: !busy)
  done;
  Sim.Engine.run b.eng;
  Alcotest.(check int) "one serving + three queued served" 4 !oks;
  Alcotest.(check int) "six shed" 6 (List.length !busy);
  Alcotest.(check int) "sheds counted" 6 (Kdc.busy_rejections b.kdc);
  List.iter
    (fun e ->
      Alcotest.(check bool) "error names the condition" true (is_busy_error e);
      match Messages.retry_after_of_text e with
      | Some hint ->
          Alcotest.(check bool)
            (Printf.sprintf "hint positive and clamped (%.3f)" hint)
            true
            (hint > 0.0 && hint <= 30.0)
      | None -> Alcotest.failf "busy error carries no retry-after: %S" e)
    !busy;
  check_no_silent_drops b

(* Strict-priority classes: at a depth where a fresh AS_REQ sheds, a TGS
   exchange from a TGT holder still queues — renewals stay alive. *)
let class_thresholds () =
  let b =
    mk
      ~admission:
        { Kdc.queue_limit = 8; base_service_time = 1.0; brownout_at = 0;
          suspect_rate = max_int; classes = true }
      ()
  in
  (* Client 0 logs in while the queue is empty. *)
  let holder = plain_client b 0 in
  let tgt = ref false in
  Client.login holder ~password:(pw 0) (fun r -> tgt := Result.is_ok r);
  Sim.Engine.run b.eng;
  Alcotest.(check bool) "TGT acquired" true !tgt;
  (* The first run drains every scheduled timer, so rebase on the
     engine's clock. Seven fresh logins put one in service and six in
     the queue — the Norm threshold (6 = 3/4 of 8); an eighth sheds; the
     TGT holder's TGS request rides the High class into the two slots
     the Norm class cannot use. *)
  let t0 = Sim.Engine.now b.eng in
  let oks = ref 0 and shed = ref [] and ticket = ref None in
  for i = 1 to 7 do
    let c = plain_client b i in
    Sim.Engine.schedule b.eng ~at:(t0 +. 10.0) (fun () ->
        Client.login c ~password:(pw i) (function
          | Ok _ -> incr oks
          | Error e -> shed := e :: !shed))
  done;
  Sim.Engine.schedule b.eng ~at:(t0 +. 10.1) (fun () ->
      let c = plain_client b 8 in
      Client.login c ~password:(pw 8) (function
        | Ok _ -> incr oks
        | Error e -> shed := e :: !shed);
      Client.get_ticket holder ~service:fs (fun r -> ticket := Some r));
  Sim.Engine.run b.eng;
  Alcotest.(check int) "seven fresh logins served" 7 !oks;
  Alcotest.(check int) "the eighth shed" 1 (List.length !shed);
  Alcotest.(check bool) "shed as busy" true (is_busy_error (List.hd !shed));
  (match !ticket with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "TGS under pressure failed: %s" e
  | None -> Alcotest.fail "TGS under pressure stalled");
  check_no_silent_drops b

(* Brownout: when the queue is merely deep (not full), expensive work —
   a preauth-carrying AS_REQ — sheds while cheap TGS work still
   queues. *)
let brownout_sheds_expensive () =
  let b =
    mk ~profile:preauth_profile
      ~admission:
        { Kdc.queue_limit = 16; base_service_time = 1.0; brownout_at = 2;
          suspect_rate = max_int; classes = true }
      ()
  in
  let holder = plain_client b 0 in
  let tgt = ref false in
  Client.login holder ~password:(pw 0) (fun r -> tgt := Result.is_ok r);
  Sim.Engine.run b.eng;
  Alcotest.(check bool) "TGT acquired before the rush" true !tgt;
  (* Three TGS requests put one in service and two in the queue —
     exactly brownout_at = 2, far below every class threshold. *)
  let t0 = Sim.Engine.now b.eng in
  let tickets = ref 0 and login_err = ref None in
  Sim.Engine.schedule b.eng ~at:(t0 +. 10.0) (fun () ->
      for _ = 1 to 3 do
        Client.get_ticket holder ~service:fs (fun r ->
            if Result.is_ok r then incr tickets)
      done);
  Sim.Engine.schedule b.eng ~at:(t0 +. 10.1) (fun () ->
      (* Depth 2 >= brownout_at: the preauth login sheds... *)
      let c = plain_client b 1 in
      Client.login c ~password:(pw 1) (function
        | Ok _ -> ()
        | Error e -> login_err := Some e);
      (* ...while a fourth (cheap) TGS request queues behind the
         others. *)
      Client.get_ticket holder ~service:fs (fun r ->
          if Result.is_ok r then incr tickets));
  Sim.Engine.run b.eng;
  Alcotest.(check int) "cheap TGS work all served" 4 !tickets;
  (match !login_err with
  | Some e ->
      Alcotest.(check bool) "expensive login shed as busy" true (is_busy_error e)
  | None -> Alcotest.fail "expensive login was not shed");
  Alcotest.(check int) "brownout counted" 1 (Kdc.brownout_sheds b.kdc);
  Alcotest.(check int) "no hard busy sheds" 0 (Kdc.busy_rejections b.kdc);
  check_no_silent_drops b

(* Deadline propagation: a queued request whose caller has given up is
   shed at the queue head — traced and counted, with no reply sent. *)
let deadline_shed_at_head () =
  let b =
    mk
      ~admission:
        { Kdc.queue_limit = 8; base_service_time = 2.0; brownout_at = 0;
          suspect_rate = max_int; classes = true }
      ()
  in
  (* Client 0's login occupies the server for 2 s. Client 1 stamps a 1 s
     deadline: by the time the drain loop reaches its request the caller
     has moved on, so the KDC sheds it instead of doing dead work. *)
  let first = ref None and second = ref None in
  let c0 = plain_client b 0 in
  Client.login c0 ~password:(pw 0) (fun r -> first := Some r);
  Sim.Engine.schedule b.eng ~at:0.05 (fun () ->
      let c1 =
        Client.create ~seed:201L ~kdc_timeout:1.0 ~kdc_retries:0
          ~kdc_deadline:1.0 b.net (ws b 1) ~profile:b.profile
          ~kdcs:[ (realm, Sim.Host.primary_ip b.kdc_host) ]
          (Principal.user ~realm "u1")
      in
      Client.login c1 ~password:(pw 1) (fun r -> second := Some r));
  Sim.Engine.run b.eng;
  (match !first with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "head-of-line login should succeed");
  (match !second with
  | Some (Error e) ->
      Alcotest.(check bool)
        (Printf.sprintf "caller saw its deadline (%S)" e)
        true
        (Astring.String.is_infix ~affix:"deadline" e
        || Astring.String.is_infix ~affix:"timeout" e)
  | Some (Ok _) -> Alcotest.fail "dead request was answered"
  | None -> Alcotest.fail "deadline login stalled");
  Alcotest.(check int) "shed at the head, counted" 1 (Kdc.deadline_sheds b.kdc);
  Alcotest.(check int) "only the live request was processed" 1
    (Kdc.admission_processed b.kdc);
  check_no_silent_drops b

(* Suspect demotion: a source hammering past [suspect_rate] is demoted
   to the low class (1/4 of the queue) — not refused outright — while a
   polite source keeps its full Norm share. *)
let suspect_demoted_not_refused () =
  let b =
    mk
      ~admission:
        { Kdc.queue_limit = 40; base_service_time = 1.0; brownout_at = 0;
          suspect_rate = 10; classes = true }
      ()
  in
  let hammer_ok = ref 0 and hammer_busy = ref 0 in
  let hammer = plain_client b 0 in
  (* Twelve logins from one address inside a tenth of a second: arrival
     11 crosses the rate but still fits the Low class (depth 9 < 10 =
     40 / 4 — demotion is not refusal); arrival 12 finds the Low share
     full and sheds. *)
  for j = 0 to 11 do
    Sim.Engine.schedule b.eng
      ~at:(0.01 *. float_of_int j)
      (fun () ->
        Client.login hammer ~password:(pw 0) (function
          | Ok _ -> incr hammer_ok
          | Error e ->
              Alcotest.(check bool) "demoted shed is busy" true (is_busy_error e);
              incr hammer_busy))
  done;
  (* The polite source arrives once after the burst: Norm class, depth
     10 < 30 — admitted despite the flood. *)
  let polite = ref None in
  let c1 = plain_client b 1 in
  Sim.Engine.schedule b.eng ~at:0.5 (fun () ->
      Client.login c1 ~password:(pw 1) (fun r -> polite := Some r));
  Sim.Engine.run b.eng;
  Alcotest.(check int) "eleven hammer logins served" 11 !hammer_ok;
  Alcotest.(check int) "suspect overflow shed" 1 !hammer_busy;
  (match !polite with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "polite source must ride the Norm class through");
  check_no_silent_drops b

(* ------------------------------------------------------------------ *)
(* Client storm hygiene                                                *)
(* ------------------------------------------------------------------ *)

(* Count the datagrams the client actually puts on the wire toward the
   KDC port. *)
let count_kdc_sends net counter =
  Sim.Net.set_interceptor net (fun pkt ->
      if pkt.Sim.Packet.dport = Kdc.default_port then incr counter;
      Sim.Net.Deliver)

(* The breaker's full state machine against one dead, then resurrected,
   KDC: closed -> (threshold consecutive timeouts) -> open (requests
   fail without sending) -> half-open probe -> failure re-trips
   immediately -> second probe succeeds -> closed. *)
let breaker_state_machine () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let kdc_host = Sim.Host.create ~name:"kdc" ~ips:[ quad 10 0 0 1 ] () in
  let wsh = Sim.Host.create ~name:"ws" ~ips:[ quad 10 0 1 1 ] () in
  Sim.Net.attach net kdc_host;
  Sim.Net.attach net wsh;
  let db = Kdb.create () in
  let rng = Util.Rng.create 0xb4ea3L in
  Kdb.add_service db (Principal.tgs ~realm) ~key:(Crypto.Des.random_key rng);
  Kdb.add_user db (Principal.user ~realm "u0") ~password:"pw0";
  let kdc =
    Kdc.create ~realm ~profile:Profile.v5_draft3 ~lifetime:3600.0 db
  in
  (* Not installed yet: the KDC address is dark until t = 18. *)
  let sends = ref 0 in
  count_kdc_sends net sends;
  let c =
    Client.create ~seed:301L ~kdc_timeout:1.0 ~kdc_retries:0
      ~breaker_threshold:2 ~breaker_cooldown:5.0 net wsh
      ~profile:Profile.v5_draft3
      ~kdcs:[ (realm, Sim.Host.primary_ip kdc_host) ]
      (Principal.user ~realm "u0")
  in
  let results = ref [] in
  let login_at t =
    Sim.Engine.schedule eng ~at:t (fun () ->
        Client.login c ~password:"pw0" (fun r ->
            results := (t, r, !sends, Client.breaker_trips c) :: !results))
  in
  login_at 0.0;  (* timeout 1: one consecutive failure *)
  login_at 2.0;  (* timeout 2: trips the breaker (open until ~8) *)
  login_at 4.0;  (* open: fails instantly, nothing sent *)
  login_at 10.0; (* half-open probe: sent, times out, re-trips at once *)
  login_at 12.0; (* re-tripped (open until ~16): nothing sent *)
  Sim.Engine.schedule eng ~at:18.0 (fun () -> Kdc.install net kdc_host kdc ());
  login_at 20.0; (* half-open probe against a live KDC: closes *)
  login_at 22.0; (* closed: ordinary exchange *)
  Sim.Engine.run eng;
  let at t =
    match List.find_opt (fun (t', _, _, _) -> t' = t) !results with
    | Some (_, r, s, trips) -> (r, s, trips)
    | None -> Alcotest.failf "login at t=%.0f never resolved" t
  in
  let expect_err t fragment sends_now trips_now =
    let r, s, trips = at t in
    (match r with
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "t=%.0f error %S mentions %S" t e fragment)
          true
          (Astring.String.is_infix ~affix:fragment e)
    | Ok _ -> Alcotest.failf "t=%.0f unexpectedly succeeded" t);
    Alcotest.(check int) (Printf.sprintf "t=%.0f wire sends" t) sends_now s;
    Alcotest.(check int) (Printf.sprintf "t=%.0f trips" t) trips_now trips
  in
  expect_err 0.0 "timeout" 1 0;
  expect_err 2.0 "timeout" 2 1;          (* second failure trips *)
  expect_err 4.0 "circuit-open" 2 1;     (* open: no packet left the host *)
  expect_err 10.0 "timeout" 3 2;         (* probe sent; failure re-trips *)
  expect_err 12.0 "circuit-open" 3 2;
  (match at 20.0 with
  | Ok _, s, trips ->
      Alcotest.(check int) "probe success closes after one wire send" 4 s;
      Alcotest.(check int) "no further trips" 2 trips
  | Error e, _, _ -> Alcotest.failf "t=20 probe against live KDC failed: %s" e);
  (match at 22.0 with
  | Ok _, _, trips -> Alcotest.(check int) "breaker stays closed" 2 trips
  | Error e, _, _ -> Alcotest.failf "t=22 with closed breaker failed: %s" e)

(* Retry-budget exhaustion: with every KDC dark and a two-token bucket,
   the failover walk charges one token per hop and stops when the bucket
   is dry — three addresses tried, the fourth never contacted. *)
let budget_exhaustion_stops_failover () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let wsh = Sim.Host.create ~name:"ws" ~ips:[ quad 10 0 1 1 ] () in
  Sim.Net.attach net wsh;
  let kdcs =
    List.init 4 (fun i ->
        let h =
          Sim.Host.create ~name:(Printf.sprintf "kdc%d" i)
            ~ips:[ quad 10 0 0 (i + 1) ] ()
        in
        Sim.Net.attach net h;
        (realm, Sim.Host.primary_ip h))
  in
  let sends = ref 0 in
  count_kdc_sends net sends;
  let c =
    Client.create ~seed:401L ~kdc_timeout:1.0 ~kdc_retries:0 ~retry_budget:2
      net wsh ~profile:Profile.v5_draft3 ~kdcs
      (Principal.user ~realm "u0")
  in
  let result = ref None in
  Client.login c ~password:"pw0" (fun r -> result := Some r);
  Sim.Engine.run eng;
  (match !result with
  | Some (Error e) ->
      Alcotest.(check bool)
        (Printf.sprintf "failure names the dry budget (%S)" e)
        true
        (Astring.String.is_infix ~affix:"budget" e)
  | Some (Ok _) -> Alcotest.fail "no KDC exists to answer"
  | None -> Alcotest.fail "login stalled");
  Alcotest.(check int) "first address free, two budgeted hops" 3 !sends;
  Alcotest.(check int) "exhaustion counted" 1 (Client.budget_exhausted c);
  Alcotest.(check (float 1e-9)) "bucket empty" 0.0 (Client.retry_tokens c)

(* Honoring retry-after: a busy answer becomes a scheduled retry after
   the KDC's own hint, the retry succeeds once the queue drains, and the
   success refills the spent token. *)
let honored_hint_then_refill () =
  let b =
    mk
      ~admission:
        { Kdc.queue_limit = 4; base_service_time = 0.5; brownout_at = 0;
          suspect_rate = max_int; classes = true }
      ()
  in
  (* Four naive logins: one in service, three queued — the Norm
     threshold (3). *)
  let fill_ok = ref 0 in
  for i = 0 to 3 do
    let c = plain_client ~timeout:5.0 b i in
    Client.login c ~password:(pw i) (fun r ->
        if Result.is_ok r then incr fill_ok)
  done;
  (* The hygienic client arrives at depth 3: busy, waits the hinted
     interval, retries into an empty queue. *)
  let result = ref None in
  Sim.Engine.schedule b.eng ~at:0.05 (fun () ->
      let c =
        Client.create ~seed:501L ~kdc_timeout:5.0 ~kdc_retries:0
          ~retry_budget:4 ~honor_retry_after:true b.net (ws b 9)
          ~profile:b.profile
          ~kdcs:[ (realm, Sim.Host.primary_ip b.kdc_host) ]
          (Principal.user ~realm "u9")
      in
      Client.login c ~password:(pw 9) (fun r -> result := Some r);
      Sim.Engine.schedule b.eng ~at:30.0 (fun () ->
          Alcotest.(check int) "one busy answer received" 1
            (Client.busy_received c);
          Alcotest.(check (float 1e-9)) "success refilled the spent token" 4.0
            (Client.retry_tokens c)));
  Sim.Engine.run b.eng;
  Alcotest.(check int) "queue fillers all served" 4 !fill_ok;
  (match !result with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "hint-honoring login failed: %s" e
  | None -> Alcotest.fail "hint-honoring login stalled");
  Alcotest.(check int) "exactly one busy shed at the KDC" 1
    (Kdc.busy_rejections b.kdc);
  check_no_silent_drops b

(* The retry-after hint rides an unauthenticated error text. A forged
   BUSY whose hint is 400 nines parses to infinity; honoured, it would
   park the retry at +infinity, and the engine's clock with it. A hint
   that is not finite is no hint: the client waits its default, a tenth
   of [kdc_timeout]. *)
let endless_hint_is_no_hint () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let forger = Sim.Host.create ~name:"kdc" ~ips:[ quad 10 0 0 1 ] () in
  Sim.Net.attach net forger;
  let profile = Profile.v5_draft3 in
  let busy =
    Wire.Encoding.encode profile.Profile.encoding
      (Messages.err_to_value
         { Messages.e_code = Messages.err_busy;
           e_text = "server busy; retry-after=" ^ String.make 400 '9' })
  in
  Sim.Net.listen net forger ~port:Kdc.default_port (fun pkt ->
      Sim.Net.send net ~sport:Kdc.default_port ~dst:pkt.Sim.Packet.src
        ~dport:pkt.Sim.Packet.sport forger busy);
  let wsh = Sim.Host.create ~name:"ws" ~ips:[ quad 10 0 1 1 ] () in
  Sim.Net.attach net wsh;
  let c =
    Client.create ~seed:601L ~kdc_timeout:1.0 ~kdc_retries:0 ~retry_budget:2
      ~honor_retry_after:true net wsh ~profile
      ~kdcs:[ (realm, Sim.Host.primary_ip forger) ]
      (Principal.user ~realm "u0")
  in
  let result = ref None in
  Client.login c ~password:"pw0" (fun r -> result := Some (Sim.Engine.now eng, r));
  Sim.Engine.run eng;
  (match !result with
  | Some (at, Error e) ->
      Alcotest.(check bool) (Printf.sprintf "the busy error surfaces (%S)" e) true
        (is_busy_error e);
      (* Three round trips of 10 ms and two default waits of 0.1 s. *)
      Alcotest.(check (float 1e-9)) "settled after the default waits" 0.23 at
  | Some (_, Ok _) -> Alcotest.fail "a forged BUSY issued a ticket"
  | None -> Alcotest.fail "login never settled");
  Alcotest.(check int) "three answers, two budgeted waits" 3
    (Client.busy_received c);
  Alcotest.(check bool) "the clock stays finite" true
    (Float.is_finite (Sim.Engine.now eng))

(* [~kdc_deadline] under every profile. The envelope is a tagged wrapper
   and V4's encoding drops tags, so a V4 client would fail every exchange
   ("tgs_req: wrong arity"): [create] refuses the combination instead.
   Under the tagged encodings a login and a TGS exchange complete with the
   deadline stamped. *)
let deadline_under_every_profile () =
  List.iter
    (fun (profile : Profile.t) ->
      let b =
        mk ~profile
          ~admission:
            { Kdc.queue_limit = 64; base_service_time = 0.001; brownout_at = 0;
              suspect_rate = max_int; classes = true }
          ()
      in
      let create () =
        Client.create ~seed:601L ~kdc_deadline:5.0 b.net (ws b 1) ~profile
          ~kdcs:[ (realm, Sim.Host.primary_ip b.kdc_host) ]
          (Principal.user ~realm "u1")
      in
      match profile.Profile.encoding with
      | Wire.Encoding.V4_adhoc -> (
          match create () with
          | _ -> Alcotest.failf "%s: create accepted a deadline" profile.name
          | exception Invalid_argument _ -> ())
      | Wire.Encoding.Der_typed -> (
          let c = create () in
          let got = ref None in
          Client.login c ~password:(pw 1) (function
            | Error e -> got := Some (Error ("login: " ^ e))
            | Ok _ ->
                Client.get_ticket c ~service:fs (fun r ->
                    got := Some (Result.map ignore r)));
          Sim.Engine.run b.eng;
          match !got with
          | Some (Ok ()) -> ()
          | Some (Error e) -> Alcotest.failf "%s: %s" profile.name e
          | None -> Alcotest.failf "%s: exchange stalled" profile.name))
    Profile.all

(* A deadline is honoured to the instant: two silent KDCs, a 1 s
   per-attempt timeout and a 1.5 s deadline. The first attempt times out
   near 1.03 s; the failover hop may only use the 0.47 s left, so the
   login fails at 1.5 s — not a whole attempt later, as it did when each
   hop ran its full timeout. *)
let deadline_clamps_the_failover_hop () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let wsh = Sim.Host.create ~name:"ws" ~ips:[ quad 10 0 1 1 ] () in
  Sim.Net.attach net wsh;
  let kdcs =
    List.init 2 (fun i ->
        let h =
          Sim.Host.create ~name:(Printf.sprintf "kdc%d" i) ~ips:[ quad 10 0 0 (i + 1) ] ()
        in
        Sim.Net.attach net h;
        (realm, Sim.Host.primary_ip h))
  in
  let c =
    Client.create ~seed:701L ~kdc_timeout:1.0 ~kdc_retries:0 ~kdc_deadline:1.5 net wsh
      ~profile:Profile.v5_draft3 ~kdcs (Principal.user ~realm "u0")
  in
  let failed_at = ref None in
  Client.login c ~password:"pw0" (function
    | Ok _ -> Alcotest.fail "no KDC exists to answer"
    | Error _ -> failed_at := Some (Sim.Engine.now eng));
  Sim.Engine.run eng;
  match !failed_at with
  | Some at -> Alcotest.(check (float 1e-9)) "login fails at the deadline" 1.5 at
  | None -> Alcotest.fail "login stalled"

(* ------------------------------------------------------------------ *)
(* The KDC's per-source table                                          *)
(* ------------------------------------------------------------------ *)

(* A KDC with [rate_limit] 5 and default admission on its own collector,
   so its one per-source table is the collector's only one. *)
let ratelimited_kdc () =
  let eng = Sim.Engine.create () in
  let tel = Telemetry.Collector.create ~lightweight:true () in
  let net = Sim.Net.create ~telemetry:tel eng in
  let kdc_host = Sim.Host.create ~name:"kdc" ~ips:[ quad 10 0 0 1 ] () in
  Sim.Net.attach net kdc_host;
  let db = Kdb.create () in
  Kdb.add_service db (Principal.tgs ~realm)
    ~key:(Crypto.Des.random_key (Util.Rng.create 0x0eadL));
  Kdb.add_user db (Principal.user ~realm "u0") ~password:"pw0";
  let kdc =
    Kdc.create ~rate_limit:5 ~admission:Kdc.default_admission ~telemetry:tel ~realm
      ~profile:Profile.v5_draft3 ~lifetime:3600.0 db
  in
  Kdc.enable_durability kdc;
  Kdc.install net kdc_host kdc ();
  let table =
    match Telemetry.Collector.rates tel with
    | [ r ] -> r
    | _ -> Alcotest.fail "one per-source table a KDC"
  in
  (eng, net, kdc_host, kdc, table)

(* An AS_REQ for [client] sent from [src], which nobody answers to. *)
let spoofed_as net kdc_host ~src ~client =
  let q =
    { Messages.q_client = Principal.user ~realm client; q_server = Principal.tgs ~realm;
      q_nonce = Int64.of_int src; q_addr = src; q_padata = [] }
  in
  Sim.Net.inject net
    { Sim.Packet.src; sport = 4000; dst = Sim.Host.primary_ip kdc_host;
      dport = Kdc.default_port; uid = 0;
      payload =
        Wire.Encoding.encode Profile.v5_draft3.Profile.encoding (Messages.as_req_to_value q) }

let hammer = quad 10 0 9 9

(* The hammer's line of the operator view, split into its fields
   (source, reqs, ok, preauth-, ratelim, other-, req/min, the flag). *)
let hammer_line table =
  Telemetry.Rates.report ~addr:Sim.Addr.to_string [ table ] (Telemetry.Metrics.create ())
  |> String.split_on_char '\n'
  |> List.find_opt (String.starts_with ~prefix:("  " ^ Sim.Addr.to_string hammer ^ " "))
  |> Option.map (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))

(* [n] one-shot spoofed sources, one every 2 ms for an unknown user, with
   a source over [rate_limit] mixed in: 200 logins as u0, one every 50 ms.
   Returns the table's rows and words, and the hammer's line. *)
let flood n =
  let eng, net, kdc_host, _kdc, table = ratelimited_kdc () in
  let rec spoof i =
    if i < n then begin
      spoofed_as net kdc_host ~src:(quad 11 (i lsr 16) ((i lsr 8) land 255) (i land 255))
        ~client:"nobody";
      Sim.Engine.schedule_after eng 0.002 (fun () -> spoof (i + 1))
    end
  in
  spoof 0;
  for j = 0 to 199 do
    Sim.Engine.schedule eng
      ~at:(0.001 +. (0.05 *. float_of_int j))
      (fun () -> spoofed_as net kdc_host ~src:hammer ~client:"u0")
  done;
  Sim.Engine.run eng;
  (Telemetry.Rates.size table, Obj.reachable_words (Obj.repr table), hammer_line table)

(* Ten thousand spoofed sources fill the table, and ten times as many
   leave it no bigger; the source over the limit keeps the operator-view
   line it has without the flood. *)
let flood_stays_bounded () =
  let _, _, alone = flood 0 in
  (match alone with
  | Some [ _; reqs; ok; _; ratelim; _; _; "<--"; "suspicious" ] ->
      Alcotest.(check (list string)) "the hammer alone (reqs, ok, ratelim)"
        [ "200"; "5"; "195" ] [ reqs; ok; ratelim ]
  | _ -> Alcotest.fail "the hammer alone is missing or not suspicious");
  let bound = 32 * Telemetry.Rates.capacity in
  List.iter
    (fun n ->
      let rows, words, view = flood n in
      Alcotest.(check int) (Printf.sprintf "%d sources: table at capacity" n)
        Telemetry.Rates.capacity rows;
      Alcotest.(check bool)
        (Printf.sprintf "%d sources: %d words under %d" n words bound)
        true (words < bound);
      Alcotest.(check (option (list string)))
        (Printf.sprintf "%d sources: the hammer's line" n)
        alone view)
    [ 10_000; 100_000 ]

(* A crash empties the rules' windows and keeps the operator's counts:
   the source the limiter refused is admitted again after the restart. *)
let crash_forgets_windows () =
  let eng, net, kdc_host, kdc, table = ratelimited_kdc () in
  let login at =
    Sim.Engine.schedule eng ~at (fun () -> spoofed_as net kdc_host ~src:hammer ~client:"u0")
  in
  List.iter login [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ];
  Sim.Engine.schedule eng ~at:1.0 (fun () -> Kdc.crash kdc);
  Sim.Engine.schedule eng ~at:2.0 (fun () -> Kdc.restart kdc);
  login 3.0;
  Sim.Engine.run eng;
  (match hammer_line table with
  | Some [ _; reqs; ok; _; ratelim; _; _; _; _ ] ->
      Alcotest.(check (list string)) "(reqs, ok, ratelim) across the crash"
        [ "7"; "6"; "1" ] [ reqs; ok; ratelim ]
  | _ -> Alcotest.fail "the hammer's line is missing");
  Alcotest.(check int) "one refusal" 1 (Kdc.rate_limited_requests kdc)

let () =
  Alcotest.run "overload"
    [ ( "admission",
        [ Alcotest.test_case "busy text round-trip" `Quick busy_text_roundtrip;
          Alcotest.test_case "busy shed carries a hint" `Quick
            busy_shed_with_hint;
          Alcotest.test_case "class thresholds" `Quick class_thresholds;
          Alcotest.test_case "brownout sheds expensive work" `Quick
            brownout_sheds_expensive;
          Alcotest.test_case "deadline shed at the queue head" `Quick
            deadline_shed_at_head;
          Alcotest.test_case "suspect demoted, not refused" `Quick
            suspect_demoted_not_refused ] );
      ( "hygiene",
        [ Alcotest.test_case "breaker state machine" `Quick
            breaker_state_machine;
          Alcotest.test_case "budget exhaustion stops failover" `Quick
            budget_exhaustion_stops_failover;
          Alcotest.test_case "honored retry-after then refill" `Quick
            honored_hint_then_refill;
          Alcotest.test_case "an endless retry-after is no hint" `Quick
            endless_hint_is_no_hint;
          Alcotest.test_case "deadline under every profile" `Quick
            deadline_under_every_profile;
          Alcotest.test_case "deadline clamps the failover hop" `Quick
            deadline_clamps_the_failover_hop ] );
      ( "per-source table",
        [ Alcotest.test_case "a spoofed flood stays bounded" `Quick flood_stays_bounded;
          Alcotest.test_case "a crash forgets the windows" `Quick crash_forgets_windows ] ) ]
