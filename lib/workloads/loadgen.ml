open Kerberos

type config = {
  users : int;
  shards : int;
  kdcs : int;
  services : int;
  active_clients : int;
  requests_per_client : int;
  think_time : float;
  ramp : float;
  ccache : bool;
  zipf_exponent : float;
  seed : int64;
  profile : Profile.t;
  lifetime : float;
  lightweight : bool;
  lazy_users : bool;
}

let default =
  { users = 1000; shards = 2; kdcs = 2; services = 10; active_clients = 200;
    requests_per_client = 150; think_time = 0.2; ramp = 20.0; ccache = true;
    zipf_exponent = 1.3; seed = 0x10adL; profile = Profile.v4;
    lifetime = 28800.0; lightweight = false; lazy_users = false }

type percentiles = { p50 : float; p90 : float; p99 : float }

type report = {
  r_config : config;
  sim_seconds : float;
  completed : int;
  errors : int;
  as_requests : int;
  tgs_requests : int;
  ap_exchanges : int;
  ccache_hits : int;
  ccache_misses : int;
  as_latency : percentiles;
  tgs_latency : percentiles;
  ap_latency : percentiles;
  shard_lookups : int array;
  shard_entries : int array;
  throughput : float;
  span_breakdown : (string * int * float) list;
}

type timing = {
  setup_seconds : float;
  run_seconds : float;
  events : int;
  events_per_second : float;
}

let realm = "LOAD"
let weak_fraction = 0.4

(* Quantiles straight from the telemetry histograms — interpolated inside
   the bucket the rank falls in and clamped to the observed min/max (see
   {!Telemetry.Metrics.quantile}), so the report's percentiles are the
   same numbers the registry's text/JSON export prints. *)
let percentiles_of_hist h =
  { p50 = Telemetry.Metrics.quantile h 0.50;
    p90 = Telemetry.Metrics.quantile h 0.90;
    p99 = Telemetry.Metrics.quantile h 0.99 }

(* Service popularity: zipf-ish weights 1/rank^s, sampled by inverse CDF.
   A couple of services carry most of the traffic — which is exactly what
   makes the credential cache pay off at steady state. *)
let zipf_sampler cfg =
  let w =
    Array.init cfg.services (fun i ->
        1.0 /. Float.pow (float_of_int (i + 1)) cfg.zipf_exponent)
  in
  let cum = Array.make cfg.services 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun i x ->
      total := !total +. x;
      cum.(i) <- !total)
    w;
  fun rng ->
    let u = Util.Rng.float rng !total in
    let rec find i = if i >= cfg.services - 1 || u < cum.(i) then i else find (i + 1) in
    find 0

let validate cfg =
  if cfg.users < 1 then invalid_arg "Loadgen: users must be >= 1";
  if cfg.kdcs < 1 || cfg.kdcs > 200 then invalid_arg "Loadgen: kdcs out of range";
  if cfg.services < 1 || cfg.services > 200 then
    invalid_arg "Loadgen: services out of range";
  if cfg.active_clients < 1 || cfg.active_clients > 30_000 then
    invalid_arg "Loadgen: active_clients out of range";
  if cfg.active_clients > cfg.users then
    invalid_arg "Loadgen: more active clients than users";
  if cfg.requests_per_client < 1 then
    invalid_arg "Loadgen: requests_per_client must be >= 1";
  if cfg.shards < 1 then invalid_arg "Loadgen: shards must be >= 1"

(* User [i] of this run's population — derived from (seed, i) alone, so
   the registration path, the lazy provider and the client all agree
   without sharing a generator (see {!Passwords.user_at}). *)
let user_of cfg i = Passwords.user_at ~seed:cfg.seed ~weak_fraction i

(* The per-span breakdown: every "span.<name>.seconds" histogram's count
   and summed simulated time, largest first. Sim-time sums are
   deterministic, so this lives inside the report (unlike wall time). *)
let breakdown_of tel =
  let m = Telemetry.Collector.metrics tel in
  List.filter_map
    (fun (name, h) ->
      let n = String.length name in
      if n > 13 && String.sub name 0 5 = "span." && String.sub name (n - 8) 8 = ".seconds"
      then
        Some (String.sub name 5 (n - 13), Telemetry.Metrics.hist_count h,
              Telemetry.Metrics.hist_sum h)
      else None)
    (Telemetry.Metrics.histograms m)
  |> List.filter (fun (_, c, _) -> c > 0)
  |> List.sort (fun (na, _, sa) (nb, _, sb) -> compare (sb, na) (sa, nb))

(* Benign client [i]'s one source address — shared by the traffic loop,
   the attack world (replay victims) and the benign scoring set. *)
let client_addr i = Sim.Addr.of_quad 10 (2 + (i / 250)) (i mod 250) 1

(* How many clients have an address: 10.2.0.1 up to 10.255.249.1. *)
let client_addr_plan = 254 * 250

(* A spike wave takes the indices after the calm actives. *)
let check_spike_addrs ~active ~spike =
  if active + spike > client_addr_plan then
    invalid_arg "Loadgen: spike wave runs past the client address plan"

(* --- the world every campaign runs in --------------------------------- *)

type world = {
  cfg : config;
  tel : Telemetry.Collector.t;
  engine : Sim.Engine.t;
  net : Sim.Net.t;
  rng : Util.Rng.t;
  db : Kdb.t;
  reads : Replication.t option;
  kdcs : Kdc.t list;
  kdc_addrs : (string * Sim.Addr.t) list;
  services : (Principal.t * bytes * Sim.Addr.t) array;
  pick : Util.Rng.t -> int;  (* a zipf draw over [services] *)
  mutable completed : int;
  mutable errors : int;
}

(* One realm on one simulated network: the TGS key, a pool of KDCs over
   one sharded database, one echo service per host, and the population.
   It draws from the seed in this order — the TGS key, each KDC's seed,
   then each service's key and AP-server seed — and every campaign's
   clients draw after it. [reads] builds the replica-aware read router
   every KDC reads through; [admission] is every KDC's admission queue. *)
let build ?reads ?admission cfg =
  validate cfg;
  (* A private collector: latency histograms and KDC counters for this run
     only, clocked on this run's engine. Lightweight mode keeps exactly
     the metrics the reports read and skips the trace machinery. *)
  let tel = Telemetry.Collector.create ~lightweight:cfg.lightweight () in
  let engine = Sim.Engine.create () in
  let net = Sim.Net.create ~telemetry:tel engine in
  let rng = Util.Rng.create cfg.seed in
  let db = Kdb.create ~shards:cfg.shards () in
  Kdb.add_service db (Principal.tgs ~realm) ~key:(Crypto.Des.random_key rng);
  let reads = Option.map (fun f -> f tel db) reads in
  (* The KDC pool: every member serves the same sharded database. *)
  let kdcs =
    List.init cfg.kdcs (fun i ->
        let host =
          Sim.Host.create ~name:(Printf.sprintf "kdc%02d" i)
            ~ips:[ Sim.Addr.of_quad 10 0 0 (i + 1) ] ()
        in
        Sim.Net.attach net host;
        let kdc =
          Kdc.create ~seed:(Util.Rng.next_int64 rng) ~telemetry:tel ?reads
            ?admission ~realm ~profile:cfg.profile ~lifetime:cfg.lifetime db
        in
        Kdc.install net host kdc ();
        (kdc, (realm, Sim.Host.primary_ip host)))
  in
  (* Application services, one host each, echo handlers. *)
  let services =
    Array.init cfg.services (fun i ->
        let host =
          Sim.Host.create ~name:(Printf.sprintf "svc%02d" i)
            ~ips:[ Sim.Addr.of_quad 10 1 (i / 200) ((i mod 200) + 1) ] ()
        in
        Sim.Net.attach net host;
        let principal =
          Principal.service ~realm (Printf.sprintf "app%02d" i)
            ~host:host.Sim.Host.name
        in
        let key = Crypto.Des.random_key rng in
        Kdb.add_service db principal ~key;
        let (_ : Apserver.t) =
          Apserver.install ~seed:(Util.Rng.next_int64 rng) net host
            ~profile:cfg.profile ~principal ~key ~port:600
            ~handler:(fun ~client:_ data -> Some data)
            ()
        in
        (principal, key, Sim.Host.primary_ip host))
  in
  (* The population. Eager mode registers every principal up front —
     deriving each key from its password, exactly the work a realm-sized
     user community costs. Lazy mode registers nobody: a principal's
     entry is derived at its first AS request, so a million-user realm
     costs only its authenticating fraction. *)
  if cfg.lazy_users then
    Kdb.set_lazy_provider db (fun name ->
        match Principal.of_string name with
        | { Principal.name = n; instance = ""; realm = r }
          when r = realm && String.length n > 1 && n.[0] = 'u' -> (
            match int_of_string_opt (String.sub n 1 (String.length n - 1)) with
            | Some i when i >= 0 && i < cfg.users ->
                let u = user_of cfg i in
                if String.equal u.Passwords.name n then
                  Some { Kdb.key = Crypto.Str2key.derive u.Passwords.password;
                         kind = Kdb.User }
                else None
            | _ -> None)
        | _ -> None
        | exception Invalid_argument _ -> None)
  else
    for i = 0 to cfg.users - 1 do
      let u = user_of cfg i in
      Kdb.add_user db (Principal.user ~realm u.Passwords.name)
        ~password:u.Passwords.password
    done;
  { cfg; tel; engine; net; rng; db; reads; kdcs = List.map fst kdcs;
    kdc_addrs = List.map snd kdcs; services; pick = zipf_sampler cfg;
    completed = 0; errors = 0 }

let failed w = w.errors <- w.errors + 1

(* The world's client: key rotation over the pool, the configured cache. *)
let client ?ccache w ~seed ~password host principal =
  let ccache = Option.value ccache ~default:w.cfg.ccache in
  Client.create ~seed ~password ~ccache ~kdc_rotation:true w.net host
    ~profile:w.cfg.profile ~kdcs:w.kdc_addrs principal

(* What each request of a wave does. *)
type request =
  | Echo of string * int option
      (* a ticket, the AP exchange and one KRB_PRIV echo of the payload,
         the channel closed once its reply is in; to the given service,
         or to a zipf draw from a generator of the client's own *)
  | Ticket of ((Client.credentials * Client.source, string) result -> unit)
      (* a ticket for a zipf-drawn service, and nothing more *)
  | Login  (* an AS exchange *)

(* Each operation ends in [settled], once, whatever its outcome. *)
let login w c ~password ~settled =
  Client.login c ~password (fun r ->
      if Result.is_error r then failed w;
      settled ())

let echo w c (principal, _, addr) payload ~settled =
  let fail () =
    failed w;
    settled ()
  in
  Client.get_ticket c ~service:principal (function
    | Error _ -> fail ()
    | Ok creds ->
        Client.ap_exchange c creds ~dst:addr ~dport:600 (function
          | Error _ -> fail ()
          | Ok chan ->
              Client.call_priv c chan (Bytes.of_string payload) ~k:(fun r ->
                  Client.close chan;
                  (match r with
                  | Error _ -> failed w
                  | Ok _ -> w.completed <- w.completed + 1);
                  settled ())))

(* Client [j] of a wave: [Waiting] until its start builds it, then, until
   it is counted, the client with what it still owes: one while requests
   remain to fire, plus one per operation in flight. *)
type slot =
  | Waiting
  | Counted
  | Owing of { client : Client.t; mutable owed : int }

(* What a wave's callers read of its clients: their counters, summed. *)
type tally = {
  mutable hits : int;  (* credential-cache hits *)
  mutable misses : int;
  mutable busy : int;  (* KRB_ERR_BUSY answers received *)
  mutable trips : int;  (* circuit breakers opened *)
  mutable exhausted : int;  (* steps refused by a dry retry budget *)
  slots : slot array;
}

let count t j =
  match t.slots.(j) with
  | Counted -> ()
  | Waiting -> t.slots.(j) <- Counted
  | Owing { client = c; _ } ->
      t.slots.(j) <- Counted;
      t.hits <- t.hits + Client.ccache_hits c;
      t.misses <- t.misses + Client.ccache_misses c;
      t.busy <- t.busy + Client.busy_received c;
      t.trips <- t.trips + Client.breaker_trips c;
      t.exhausted <- t.exhausted + Client.budget_exhausted c

let owe t j ~by =
  match t.slots.(j) with
  | Waiting | Counted -> ()
  | Owing r ->
      r.owed <- r.owed + by;
      if r.owed = 0 then count t j

(* The tally once the engine has run dry: a client with an operation that
   never settled is counted now, and each such operation is an error (an
   echo to a down server sets no deadline, so nothing else settles it). A
   client that never started owes its one unfired step. *)
let counted w t =
  Array.iteri
    (fun j slot ->
      (match slot with
      | Owing { owed; _ } -> w.errors <- w.errors + owed
      | Waiting -> w.errors <- w.errors + 1
      | Counted -> ());
      count t j)
    t.slots;
  t

(* One wave of open-loop clients; the defaults are the configured calm
   load. Client [j] is user [first + j] on host [prefix ^ j] and starts at
   [at] plus up to [jitter] seconds. It logs in there and fires request
   [k] at [start + 1 + k * think] — a wave of logins fires its first at
   [start] itself — whether or not earlier requests completed: arrival is
   not gated on service. Request [k] schedules request [k+1] when it
   fires (the same instants as scheduling the whole chain up front,
   without holding clients*requests closures in the heap at once), and
   the starts go in as one bulk {!Sim.Engine.schedule_batch}, the list
   dropped at once. Per client, set-up draws the client's seed, the
   request generator if the requests draw services, then the start.

   What a client keeps, and for how long. Until its start, a client is
   only those draws, held by its start event: no user, host or
   [Client.t] exists yet. The start event derives the user, attaches a
   host, builds the client with the seed drawn for it and runs its first
   step at once, so the engine sees the events it would see had set-up
   built the client. Between requests, only its [fire] closure holds it.
   Once its last request has fired and every operation it started has
   settled, its counters go into the wave's tally and the wave lets go of
   it: nothing then holds the client, its wallet, its TGT or its host with
   the ticket file ([Sim.Host] cache) its logins wrote. The network keeps
   only the host's address, so that no later host takes it. At 20,000
   clients each word a client keeps costs 0.15 MiB. *)
let wave w ?(make = client w) ?(first = 0) ?(prefix = "c")
    ?(clients = w.cfg.active_clients) ?(at = 0.0) ?(jitter = w.cfg.ramp)
    ?(think = w.cfg.think_time) ?(requests = w.cfg.requests_per_client)
    request =
  let tally =
    { hits = 0; misses = 0; busy = 0; trips = 0; exhausted = 0;
      slots = Array.make clients Waiting }
  in
  let logins = match request with Login -> true | _ -> false in
  let lead = if logins then 0.0 else 1.0 in
  (* Client [j] at its start, built from what set-up drew for it. *)
  let start_client j ~seed ~crng ~start =
    let i = first + j in
    let u = user_of w.cfg i in
    let host =
      Sim.Host.create ~name:(Printf.sprintf "%s%05d" prefix j)
        ~ips:[ client_addr i ] ()
    in
    Sim.Net.attach w.net host;
    let password = u.Passwords.password in
    let c = make ~seed ~password host (Principal.user ~realm u.Passwords.name) in
    tally.slots.(j) <- Owing { client = c; owed = 1 };
    (* Step [k] of the client: its login at [-1], then request [k]. *)
    let rec fire k () =
      owe tally j ~by:1;
      let settled () = owe tally j ~by:(-1) in
      if k < 0 then begin
        login w c ~password ~settled;
        Sim.Engine.schedule w.engine ~at:(start +. lead) (fire 0)
      end
      else begin
        (match request with
        | Echo (payload, Some s) -> echo w c w.services.(s) payload ~settled
        | Echo (payload, None) ->
            echo w c w.services.(w.pick crng) payload ~settled
        | Ticket on_ticket ->
            let principal, _, _ = w.services.(w.pick crng) in
            Client.get_ticket_ex c ~service:principal (fun r ->
                on_ticket r;
                settled ())
        | Login -> login w c ~password ~settled);
        if k + 1 < requests then
          Sim.Engine.schedule w.engine
            ~at:(start +. lead +. (float_of_int (k + 1) *. think))
            (fire (k + 1))
        else owe tally j ~by:(-1)
      end
    in
    fire (if logins then 0 else -1) ()
  in
  let starts = ref [] in
  for j = 0 to clients - 1 do
    let seed = Util.Rng.next_int64 w.rng in
    (* Only zipf draws need a generator; the others never read it. *)
    let crng =
      match request with
      | Echo (_, None) | Ticket _ -> Util.Rng.split w.rng
      | Echo (_, Some _) | Login -> w.rng
    in
    let start = at +. Util.Rng.float w.rng jitter in
    starts := (start, fun () -> start_client j ~seed ~crng ~start) :: !starts
  done;
  Sim.Engine.schedule_batch w.engine (List.rev !starts);
  tally

let run_timed ?on_world cfg =
  let t0 = Sys.time () in
  let w = build cfg in
  let tally = wave w (Echo ("PING", None)) in
  (* The attack plane, if any, schedules itself into the same engine now —
     after the benign clients' starts are scheduled (splitting the
     generator here perturbs nothing: the benign run draws no more from
     [rng], its clients built at their starts included). *)
  (match on_world with
  | None -> ()
  | Some f ->
      f
        { Attack_mix.w_net = w.net; w_engine = w.engine;
          w_rng = Util.Rng.split w.rng; w_profile = cfg.profile;
          w_realm = realm; w_kdcs = List.map snd w.kdc_addrs;
          w_services = w.services;
          w_client_addrs = Array.init cfg.active_clients client_addr;
          w_user = user_of cfg; w_users = cfg.users; w_active = cfg.active_clients }
        w.tel);
  let setup_seconds = Sys.time () -. t0 in
  let t1 = Sys.time () in
  Sim.Engine.run w.engine;
  let run_seconds = Sys.time () -. t1 in
  let m = Telemetry.Collector.metrics w.tel in
  let hist name = Telemetry.Metrics.histogram m name in
  let count name = Telemetry.Metrics.hist_count (hist name) in
  let tally = counted w tally in
  let sim_seconds = Sim.Engine.now w.engine in
  let events = Sim.Engine.executed w.engine in
  ( { r_config = cfg; sim_seconds; completed = w.completed; errors = w.errors;
      as_requests = count "span.kdc.as_req.seconds";
      tgs_requests = count "span.kdc.tgs_req.seconds";
      ap_exchanges = count "span.client.ap_exchange.seconds";
      ccache_hits = tally.hits; ccache_misses = tally.misses;
      as_latency = percentiles_of_hist (hist "span.kdc.as_req.seconds");
      tgs_latency = percentiles_of_hist (hist "span.client.tgs_exchange.seconds");
      ap_latency = percentiles_of_hist (hist "span.client.ap_exchange.seconds");
      shard_lookups = Kdb.shard_lookups w.db;
      shard_entries = Kdb.shard_sizes w.db;
      throughput =
        (if sim_seconds > 0.0 then float_of_int w.completed /. sim_seconds else 0.0);
      span_breakdown = breakdown_of w.tel },
    { setup_seconds; run_seconds; events;
      events_per_second =
        (if run_seconds > 0.0 then float_of_int events /. run_seconds else 0.0) } )

let run cfg = fst (run_timed cfg)

let max_over_mean a =
  let n = Array.length a in
  if n = 0 then 1.0
  else begin
    let total = Array.fold_left ( + ) 0 a in
    if total = 0 then 1.0
    else
      let mean = float_of_int total /. float_of_int n in
      let mx = Array.fold_left max 0 a in
      float_of_int mx /. mean
  end

let shard_balance r = max_over_mean r.shard_entries
let lookup_balance r = max_over_mean r.shard_lookups

let json_percentiles p =
  Telemetry.Json.Obj
    [ ("p50", Telemetry.Json.Float p.p50); ("p90", Telemetry.Json.Float p.p90);
      ("p99", Telemetry.Json.Float p.p99) ]

let json_config (c : config) =
  let open Telemetry.Json in
  Obj
    [ ("users", Int c.users); ("shards", Int c.shards); ("kdcs", Int c.kdcs);
      ("services", Int c.services); ("active_clients", Int c.active_clients);
      ("requests_per_client", Int c.requests_per_client);
      ("think_time", Float c.think_time); ("ramp", Float c.ramp);
      ("ccache", Bool c.ccache); ("zipf_exponent", Float c.zipf_exponent);
      ("seed", Str (Int64.to_string c.seed));
      ("profile", Str c.profile.Profile.name); ("lifetime", Float c.lifetime);
      ("lightweight", Bool c.lightweight); ("lazy_users", Bool c.lazy_users) ]

let timing_to_json t =
  let open Telemetry.Json in
  Obj
    [ ("setup_seconds", Float t.setup_seconds);
      ("run_seconds", Float t.run_seconds); ("sim_events", Int t.events);
      ("sim_events_per_wall_second", Float t.events_per_second) ]

let report_to_json r =
  let open Telemetry.Json in
  Obj
    [ ("config", json_config r.r_config);
      ("sim_seconds", Float r.sim_seconds); ("completed", Int r.completed);
      ("errors", Int r.errors); ("as_requests", Int r.as_requests);
      ("tgs_requests", Int r.tgs_requests); ("ap_exchanges", Int r.ap_exchanges);
      ("ccache_hits", Int r.ccache_hits); ("ccache_misses", Int r.ccache_misses);
      ("as_latency", json_percentiles r.as_latency);
      ("tgs_latency", json_percentiles r.tgs_latency);
      ("ap_latency", json_percentiles r.ap_latency);
      ("shard_lookups",
       List (Array.to_list (Array.map (fun n -> Int n) r.shard_lookups)));
      ("shard_entries",
       List (Array.to_list (Array.map (fun n -> Int n) r.shard_entries)));
      ("shard_balance", Float (shard_balance r));
      ("lookup_balance", Float (lookup_balance r));
      ("throughput_per_sim_second", Float r.throughput);
      ("span_breakdown",
       List
         (List.map
            (fun (name, count, sum) ->
              Obj
                [ ("span", Str name); ("count", Int count);
                  ("sim_seconds", Float sum) ])
            r.span_breakdown)) ]

(* --- blended attack campaign ----------------------------------------- *)

type campaign = {
  ca_report : report;
  ca_timing : timing;
  ca_mix : Attack_mix.mix;
  ca_policy : Telemetry.Detect.policy;
  ca_events : int;
  ca_alerts : Telemetry.Detect.alert list;
  ca_labels : Telemetry.Detect.label list;
  ca_score : Telemetry.Detect.score;
}

(* The benign scoring population: every active client's source address and
   principal, minus whatever the mix touched (replay victims, targeted
   principals) — a subject the attack borrowed is neither benign nor an
   attacker, so it scores as neither. *)
let benign_subjects cfg ~excluded =
  let ex = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ex s ()) excluded;
  let acc = ref [] in
  for i = cfg.active_clients - 1 downto 0 do
    let pr = "principal:" ^ (user_of cfg i).Passwords.name in
    if not (Hashtbl.mem ex pr) then acc := pr :: !acc;
    let src = "src:" ^ Sim.Addr.to_string (client_addr i) in
    if not (Hashtbl.mem ex src) then acc := src :: !acc
  done;
  !acc

let run_campaign ?policy ?(mix = Attack_mix.default_mix) cfg =
  let policy =
    match policy with
    | Some p -> p
    | None ->
        (* Realm policy is what the run actually enforces: the configured
           ticket lifetime and the profile's address binding. *)
        { Telemetry.Detect.default_policy with
          Telemetry.Detect.max_lifetime = cfg.lifetime;
          expect_addr = cfg.profile.Profile.addr_in_ticket }
  in
  let det = Telemetry.Detect.create ~policy () in
  let ground = ref (fun () -> ([], [])) in
  let report, timing =
    run_timed cfg ~on_world:(fun w tel ->
        Telemetry.Detect.attach det tel;
        ground := Attack_mix.inject w mix)
  in
  let labels, excluded = !ground () in
  let score =
    Telemetry.Detect.score det ~labels ~benign:(benign_subjects cfg ~excluded)
  in
  ( det,
    { ca_report = report; ca_timing = timing; ca_mix = mix; ca_policy = policy;
      ca_events = Telemetry.Detect.observed det;
      ca_alerts = Telemetry.Detect.alerts det; ca_labels = labels;
      ca_score = score } )

(* Everything in this object is a function of (config, mix, policy, seed):
   no wall-clock numbers, so two runs at the same seed serialize to the
   same bytes — the determinism [experiments detect --quick] byte-compares. *)
let campaign_to_json c =
  let open Telemetry.Json in
  Obj
    [ ("config", json_config c.ca_report.r_config);
      ("mix", Attack_mix.mix_to_json c.ca_mix);
      ("policy", Telemetry.Detect.policy_to_json c.ca_policy);
      ("report", report_to_json c.ca_report);
      ("detector_events", Int c.ca_events);
      ("labels",
       List
         (List.map
            (fun (l : Telemetry.Detect.label) ->
              Obj
                [ ("class", Str l.Telemetry.Detect.lb_class);
                  ("subject", Str l.lb_subject); ("start", Float l.lb_start) ])
            c.ca_labels));
      ("alerts", Telemetry.Detect.alerts_to_json c.ca_alerts);
      ("score", Telemetry.Detect.score_to_json c.ca_score) ]

type perf_row = {
  p_label : string;
  p_schedule_cache : bool;
  p_lightweight : bool;
  p_timing : timing;
}

type suite = {
  main : report;
  main_timing : timing;
  cache_off : report;
  shard_ablation : report list;
  perf : perf_row list;
}

(* Shard counts for the sweep: powers of two up to the configured count,
   always ending at the configured count itself. *)
let ablation_shards cfg =
  let rec go acc s = if s >= cfg.shards then List.rev (cfg.shards :: acc) else go (s :: acc) (2 * s) in
  go [] 1

(* The fast-path ablation measures engine cost, so it must be honest
   about the baseline: eager population and full telemetry, exactly the
   pre-fast-path configuration, at traffic every cell can afford. *)
let perf_config cfg =
  { cfg with
    users = min cfg.users 10_000;
    active_clients = min cfg.active_clients 1_000;
    requests_per_client = min cfg.requests_per_client 40;
    lazy_users = false }

let perf_ablation cfg =
  let base = perf_config cfg in
  let row p_label ~cache ~lightweight =
    Crypto.Des.set_schedule_cache cache;
    Fun.protect
      ~finally:(fun () -> Crypto.Des.set_schedule_cache true)
      (fun () ->
        (* Best of two, behind a major collection: a cell timed right
           after a realm-sized main run would otherwise inherit its heap
           and read as slower than an identical cell timed cold. *)
        let timed () =
          Gc.full_major ();
          snd (run_timed { base with lightweight })
        in
        let t1 = timed () in
        let t2 = timed () in
        let t = if t2.run_seconds < t1.run_seconds then t2 else t1 in
        { p_label; p_schedule_cache = cache; p_lightweight = lightweight;
          p_timing = t })
  in
  [ row "baseline" ~cache:false ~lightweight:false;
    row "schedule-cache" ~cache:true ~lightweight:false;
    row "lightweight-telemetry" ~cache:false ~lightweight:true;
    row "fast-path" ~cache:true ~lightweight:true ]

let run_suite cfg =
  let main, main_timing = run_timed cfg in
  let cache_off = run { cfg with ccache = false } in
  (* The sweep runs reduced traffic: it measures partition balance and
     scaling shape, not absolute throughput. *)
  let small =
    { cfg with
      active_clients = max 10 (cfg.active_clients / 4);
      requests_per_client = max 5 (cfg.requests_per_client / 5) }
  in
  let shard_ablation =
    List.map (fun s -> run { small with shards = s }) (ablation_shards cfg)
  in
  { main; main_timing; cache_off; shard_ablation; perf = perf_ablation cfg }

let tgs_reduction s =
  if s.main.tgs_requests = 0 then Float.of_int s.cache_off.tgs_requests
  else float_of_int s.cache_off.tgs_requests /. float_of_int s.main.tgs_requests

let fast_path_speedup s =
  let find f = List.find_opt f s.perf in
  match
    ( find (fun r -> r.p_schedule_cache && r.p_lightweight),
      find (fun r -> (not r.p_schedule_cache) && not r.p_lightweight) )
  with
  | Some fast, Some base when base.p_timing.events_per_second > 0.0 ->
      fast.p_timing.events_per_second /. base.p_timing.events_per_second
  | _ -> 1.0

(* --- "one service goes viral" replication campaign -------------------- *)

(* The rebalancing experiment behind BENCH_replication.json. Three runs at
   one seed: [calm] (no spike — the latency baseline), [unreplicated]
   (a second open-loop wave of cache-less clients hammers one service
   through the primary alone — the overload), and [replicated] (the same
   spike against a primary + replica pool with WAL shipping, bounded-lag
   routing, background password churn, and a replica crash + rejoin in
   the middle of the storm). Every run routes reads through a
   {!Replication.t} with the same per-lookup service time, so the three
   rows differ only in pool size and traffic — the comparison is fair. *)

type viral_config = {
  v_base : config;          (* the calm world: population, shards, KDCs *)
  v_replicas : int;         (* pool size in the replicated run *)
  v_service_time : float;   (* simulated cost of one lookup at a unit *)
  v_max_lag : int;          (* bounded-lag eligibility, in WAL records *)
  v_ship_every : float;     (* WAL shipping cadence (seconds) *)
  v_spike_at : float;       (* when the service goes viral *)
  v_spike_clients : int;    (* size of the viral wave *)
  v_spike_requests : int;   (* requests per viral client *)
  v_spike_think : float;    (* viral wave think time *)
  v_spike_service : int;    (* which service goes viral *)
  v_churn_every : float;    (* password-change cadence; 0 = no churn *)
  v_crash_replica : bool;   (* crash + rejoin replica 0 mid-spike *)
}

let default_viral =
  { v_base =
      { default with
        users = 400; shards = 8; kdcs = 2; services = 10; active_clients = 60;
        requests_per_client = 15; think_time = 0.3; ramp = 5.0;
        seed = 0x7e91caL; lightweight = true };
    v_replicas = 3; v_service_time = 0.0005; v_max_lag = 8;
    v_ship_every = 0.1; v_spike_at = 8.0; v_spike_clients = 80;
    v_spike_requests = 40; v_spike_think = 0.05; v_spike_service = 0;
    v_churn_every = 0.4; v_crash_replica = true }

type viral_row = {
  vr_label : string;
  vr_completed : int;
  vr_errors : int;
  vr_as_requests : int;
  vr_tgs_requests : int;
  vr_tgs_latency : percentiles;
  vr_shard_lookup_balance : float;  (* per-shard skew seen by the primary *)
  vr_unit_reads : (string * int) list;
  vr_unit_balance : float;          (* max/mean over serving units *)
  vr_fresh_fallbacks : int;
  vr_stale_fallbacks : int;
  vr_shipped_records : int;
  vr_catchups : int;
  vr_max_lag_seen : int;
  vr_replica_crashes : int;
  vr_converged : bool;  (* digests + version vectors equal at quiesce *)
  vr_sim_seconds : float;
}

let validate_viral v =
  if v.v_replicas < 0 || v.v_replicas > 16 then
    invalid_arg "Loadgen: v_replicas out of range";
  if v.v_service_time < 0.0 then invalid_arg "Loadgen: negative service time";
  if v.v_ship_every <= 0.0 then invalid_arg "Loadgen: ship cadence must be > 0";
  if v.v_spike_service < 0 || v.v_spike_service >= v.v_base.services then
    invalid_arg "Loadgen: v_spike_service out of range";
  if v.v_spike_clients < 1 || v.v_spike_requests < 1 then
    invalid_arg "Loadgen: spike size out of range";
  (* Base actives, the viral wave and the churn pool draw on disjoint
     user index ranges. *)
  if v.v_base.active_clients + v.v_spike_clients + 50 > v.v_base.users then
    invalid_arg "Loadgen: users must cover actives + spike wave + churn pool";
  check_spike_addrs ~active:v.v_base.active_clients ~spike:v.v_spike_clients

let run_viral_one v ~label ~replicas ~spike =
  let cfg = v.v_base in
  let w =
    build cfg ~reads:(fun tel db ->
        Replication.create ~service_time:v.v_service_time ~max_lag:v.v_max_lag
          ~telemetry:tel db)
  in
  let router = Option.get w.reads in
  (* Population first, durability second: the initial checkpoint then
     covers the whole registered realm and replicas bootstrap from it
     instead of replaying one Put per principal. *)
  Kdb.enable_durability ~checkpoint_every:500 w.db;
  let pool_replicas =
    List.init replicas (fun i ->
        let r =
          Kdb.attach_replica ~telemetry:w.tel w.db
            ~name:(Printf.sprintf "replica%d" i)
        in
        Replication.add_replica router r;
        r)
  in
  (* The calm background: the same open-loop clients as {!run_timed}. *)
  let calm = wave w (Echo ("PING", None)) in
  (* The viral wave: cache-less clients, all aimed at one service, open
     loop at a much hotter think time. Cache-less is the realistic shape —
     a service suddenly popular is popular with *new* clients, who all
     need tickets. *)
  let viral =
    if spike then
      [ wave w ~make:(client ~ccache:false w) ~first:cfg.active_clients
          ~prefix:"v" ~clients:v.v_spike_clients ~at:v.v_spike_at ~jitter:1.0
          ~think:v.v_spike_think ~requests:v.v_spike_requests
          (Echo ("VIRAL", Some v.v_spike_service)) ]
    else []
  in
  let base_end =
    cfg.ramp +. 1.0
    +. (float_of_int cfg.requests_per_client *. cfg.think_time)
  in
  let spike_end =
    if spike then
      v.v_spike_at +. 2.0
      +. (float_of_int v.v_spike_requests *. v.v_spike_think)
    else 0.0
  in
  let horizon = Float.max base_end spike_end +. 3.0 in
  (* The replication daemon, self-tuning: check lag on the (cheap)
     cadence but ship only once some live replica has fallen behind by
     half the staleness bound ({!Replication.ship_if_lagged}). The check
     cadence is fast relative to the write rate, so lag stays strictly
     inside [max_lag] and bounded-staleness routing never observes a
     replica at the bound — asserted by test_replication's bursty-write
     case — while idle stretches ship nothing. *)
  let max_lag_seen = ref 0 in
  let shipped = ref 0 in
  if replicas > 0 then begin
    let rec ship_tick at () =
      let lag = Replication.max_lag_live router in
      if lag > !max_lag_seen then max_lag_seen := lag;
      shipped := !shipped + Replication.ship_if_lagged ~fraction:0.5 router;
      if at < horizon then
        Sim.Engine.schedule w.engine ~at:(at +. v.v_ship_every)
          (ship_tick (at +. v.v_ship_every))
    in
    Sim.Engine.schedule w.engine ~at:v.v_ship_every (ship_tick v.v_ship_every)
  end;
  (* Background password churn on a user pool nobody logs in as: write
     traffic for the WAL to ship, and the reason the freshness floor
     exists. *)
  if v.v_churn_every > 0.0 then begin
    let churn_base = cfg.active_clients + (if spike then v.v_spike_clients else 0) in
    let rec churn_tick n at () =
      let i = churn_base + (n mod 50) in
      let u = user_of cfg i in
      Kdb.add_user w.db (Principal.user ~realm u.Passwords.name)
        ~password:(Printf.sprintf "%s#%d" u.Passwords.password n);
      if at < horizon then
        Sim.Engine.schedule w.engine ~at:(at +. v.v_churn_every)
          (churn_tick (n + 1) (at +. v.v_churn_every))
    in
    Sim.Engine.schedule w.engine ~at:1.0 (churn_tick 0 1.0)
  end;
  (* A replica dies in the middle of the storm and rejoins through the
     reconcile machinery while writes keep flowing. *)
  let crashes = ref 0 in
  (match (v.v_crash_replica && spike, pool_replicas) with
  | true, r0 :: _ ->
      let mid = v.v_spike_at +. 1.0 in
      Sim.Engine.schedule w.engine ~at:mid (fun () ->
          incr crashes;
          Kdb.replica_crash r0);
      Sim.Engine.schedule w.engine ~at:(mid +. 0.6) (fun () ->
          ignore (Kdb.replica_rejoin r0 : int))
  | _ -> ());
  Sim.Engine.run w.engine;
  List.iter (fun t -> ignore (counted w t : tally)) (calm :: viral);
  (* Quiesce: one final shipping round, then convergence is digest +
     version-vector equality on every subscribed shard. *)
  shipped := !shipped + Replication.ship_all router;
  let converged =
    List.for_all
      (fun r ->
        let rdb = Kdb.replica_db r in
        Kdb.version_vector rdb = Kdb.version_vector w.db
        && Kdb.digests rdb = Kdb.digests w.db)
      pool_replicas
  in
  let m = Telemetry.Collector.metrics w.tel in
  let hist name = Telemetry.Metrics.histogram m name in
  let unit_reads = Replication.unit_reads router in
  { vr_label = label;
    vr_completed = w.completed;
    vr_errors = w.errors;
    vr_as_requests = Telemetry.Metrics.hist_count (hist "span.kdc.as_req.seconds");
    vr_tgs_requests = Telemetry.Metrics.hist_count (hist "span.kdc.tgs_req.seconds");
    vr_tgs_latency = percentiles_of_hist (hist "span.client.tgs_exchange.seconds");
    vr_shard_lookup_balance = max_over_mean (Kdb.shard_lookups w.db);
    vr_unit_reads = unit_reads;
    vr_unit_balance =
      max_over_mean (Array.of_list (List.map snd unit_reads));
    vr_fresh_fallbacks = Replication.fresh_fallbacks router;
    vr_stale_fallbacks = Replication.stale_fallbacks router;
    vr_shipped_records = !shipped;
    vr_catchups =
      List.fold_left (fun a r -> a + Kdb.replica_catchups r) 0 pool_replicas;
    vr_max_lag_seen = !max_lag_seen;
    vr_replica_crashes = !crashes;
    vr_converged = converged;
    vr_sim_seconds = Sim.Engine.now w.engine }

type viral_suite = {
  vs_config : viral_config;
  vs_calm : viral_row;
  vs_unreplicated : viral_row;
  vs_replicated : viral_row;
}

let run_viral v =
  validate_viral v;
  { vs_config = v;
    vs_calm = run_viral_one v ~label:"calm" ~replicas:0 ~spike:false;
    vs_unreplicated =
      run_viral_one v ~label:"viral-unreplicated" ~replicas:0 ~spike:true;
    vs_replicated =
      run_viral_one v ~label:"viral-replicated" ~replicas:v.v_replicas
        ~spike:true }

let viral_p99_ratio s =
  if s.vs_calm.vr_tgs_latency.p99 > 0.0 then
    s.vs_replicated.vr_tgs_latency.p99 /. s.vs_calm.vr_tgs_latency.p99
  else 1.0

let viral_overload_ratio s =
  if s.vs_calm.vr_tgs_latency.p99 > 0.0 then
    s.vs_unreplicated.vr_tgs_latency.p99 /. s.vs_calm.vr_tgs_latency.p99
  else 1.0

(* The gates BENCH_replication.json and [experiments replicate] enforce.
   Returns human-readable violations; [] is a pass. *)
let viral_floor_failures s =
  let fails = ref [] in
  let check cond msg = if not cond then fails := msg :: !fails in
  check
    (viral_overload_ratio s >= 2.0)
    (Printf.sprintf
       "unreplicated spike shows no overload (p99 ratio %.2f < 2.0)"
       (viral_overload_ratio s));
  check
    (viral_p99_ratio s <= 1.2)
    (Printf.sprintf "replicated p99 not flat (ratio %.2f > 1.2)"
       (viral_p99_ratio s));
  check
    (s.vs_unreplicated.vr_shard_lookup_balance >= 2.0)
    (Printf.sprintf "expected hot-shard skew missing (balance %.2f < 2.0)"
       s.vs_unreplicated.vr_shard_lookup_balance);
  check
    (s.vs_replicated.vr_unit_balance <= 1.5)
    (Printf.sprintf "replicated pool unbalanced (max/mean %.2f > 1.5)"
       s.vs_replicated.vr_unit_balance);
  check s.vs_replicated.vr_converged
    "replica state did not converge to the primary at quiesce";
  check
    ((not s.vs_config.v_crash_replica)
    || s.vs_replicated.vr_replica_crashes >= 1)
    "replica crash was configured but never injected";
  List.rev !fails

let json_viral_config (v : viral_config) =
  let open Telemetry.Json in
  Obj
    [ ("base", json_config v.v_base); ("replicas", Int v.v_replicas);
      ("service_time", Float v.v_service_time); ("max_lag", Int v.v_max_lag);
      ("ship_every", Float v.v_ship_every); ("spike_at", Float v.v_spike_at);
      ("spike_clients", Int v.v_spike_clients);
      ("spike_requests", Int v.v_spike_requests);
      ("spike_think", Float v.v_spike_think);
      ("spike_service", Int v.v_spike_service);
      ("churn_every", Float v.v_churn_every);
      ("crash_replica", Bool v.v_crash_replica) ]

let json_viral_row r =
  let open Telemetry.Json in
  Obj
    [ ("label", Str r.vr_label); ("completed", Int r.vr_completed);
      ("errors", Int r.vr_errors); ("as_requests", Int r.vr_as_requests);
      ("tgs_requests", Int r.vr_tgs_requests);
      ("tgs_latency", json_percentiles r.vr_tgs_latency);
      ("shard_lookup_balance", Float r.vr_shard_lookup_balance);
      ("unit_reads",
       Obj (List.map (fun (n, c) -> (n, Int c)) r.vr_unit_reads));
      ("unit_balance", Float r.vr_unit_balance);
      ("fresh_fallbacks", Int r.vr_fresh_fallbacks);
      ("stale_fallbacks", Int r.vr_stale_fallbacks);
      ("shipped_records", Int r.vr_shipped_records);
      ("catchups", Int r.vr_catchups);
      ("max_lag_seen", Int r.vr_max_lag_seen);
      ("replica_crashes", Int r.vr_replica_crashes);
      ("converged", Bool r.vr_converged);
      ("sim_seconds", Float r.vr_sim_seconds) ]

(* Deterministic: every field is a function of (viral_config, seed) in
   simulated time — two runs at one seed serialize byte-identically. *)
let viral_suite_to_json s =
  let open Telemetry.Json in
  Obj
    [ ("config", json_viral_config s.vs_config);
      ("calm", json_viral_row s.vs_calm);
      ("unreplicated", json_viral_row s.vs_unreplicated);
      ("replicated", json_viral_row s.vs_replicated);
      ("overload_p99_ratio", Float (viral_overload_ratio s));
      ("replicated_p99_ratio", Float (viral_p99_ratio s));
      ("floor_failures",
       List (List.map (fun f -> Str f) (viral_floor_failures s))) ]

(* --- metastable-failure overload campaign ----------------------------- *)

(* The overload plane's proof: one world, three rows at one seed.

   [calm] never spikes — the goodput baseline. [naive] aims a login storm
   at the KDC pool while every client retransmits on a fixed schedule,
   never honors retry-after, and has neither budget nor breaker: the
   classic metastable failure. Once queueing delay crosses the client
   timeout, every logical request turns into its full retransmit fan
   (per-address retries, then failover to the other KDC), the offered
   packet rate times the amplification exceeds the pool's service rate,
   and the queues stay saturated long after the spike ends — goodput
   collapses and *stays* collapsed, pinned near zero by work whose
   callers gave up listening. [controlled] runs the same spike against
   the deployed overload plane: bounded admission queues with priority
   classes and brownout at the KDCs, and budgeted, breaker-guarded,
   hint-honoring, deadline-stamping clients. Goodput dips during the
   spike and recovers within a bounded number of sim-seconds.

   The naive KDCs still run the admission queue/service-time model —
   with an effectively unbounded single-FIFO queue ([classes = false])
   and brownout off — so the two spike rows share one capacity model and
   differ only in policy: what the bound, the classes, the hints and the
   client hygiene buy. *)

type overload_config = {
  o_base : config;          (* population, KDC pool, calm open-loop load *)
  o_service_time : float;   (* KDC work per request (the admission clock) *)
  o_queue_limit : int;      (* controlled rows: admission queue bound *)
  o_brownout_at : int;      (* controlled rows: expensive-work shed depth *)
  o_suspect_rate : int;     (* controlled rows: per-source demotion rate *)
  o_spike_at : float;       (* when the login storm starts *)
  o_spike_clients : int;
  o_spike_requests : int;   (* logins per spike client *)
  o_spike_think : float;
  o_retries : int;          (* per-address UDP retransmits, every row *)
  o_retry_budget : int;     (* controlled clients: token-bucket capacity *)
  o_breaker_threshold : int;
  o_breaker_cooldown : float;
  o_deadline : float;       (* controlled clients: per-exchange deadline *)
  o_window : float;         (* goodput bucketing (seconds) *)
  o_horizon : float;        (* measurement end (sim-seconds) *)
}

(* Preauth makes the spike's AS requests carry Pa_preauth — the
   "expensive work" shape brownout sheds first, without the hardened
   profile's per-login DH exponentiation inflating the run. *)
let overload_profile =
  { Profile.v5_draft3 with Profile.name = "v5-draft3+preauth"; preauth = true }

let default_overload =
  { o_base =
      { default with
        users = 400; shards = 4; kdcs = 2; services = 8; active_clients = 60;
        requests_per_client = 300; think_time = 0.1; ramp = 4.0;
        ccache = false; seed = 0x6f10adL; profile = overload_profile;
        lightweight = true };
    o_service_time = 0.002; o_queue_limit = 300; o_brownout_at = 150;
    o_suspect_rate = 600; o_spike_at = 12.0; o_spike_clients = 200;
    o_spike_requests = 50; o_spike_think = 0.02; o_retries = 3;
    o_retry_budget = 5; o_breaker_threshold = 4; o_breaker_cooldown = 2.0;
    o_deadline = 3.0; o_window = 1.0; o_horizon = 30.0 }

(* When the last spike login can have fired (starts are jittered over
   half a second) — recovery time is measured from here. *)
let overload_spike_end o =
  o.o_spike_at +. 0.5 +. (float_of_int o.o_spike_requests *. o.o_spike_think)

let validate_overload o =
  if o.o_service_time < 0.0 then invalid_arg "Loadgen: negative service time";
  if o.o_queue_limit < 1 then invalid_arg "Loadgen: queue limit out of range";
  if o.o_spike_clients < 1 || o.o_spike_requests < 1 then
    invalid_arg "Loadgen: spike size out of range";
  if o.o_window <= 0.0 then invalid_arg "Loadgen: window must be > 0";
  if o.o_base.active_clients + o.o_spike_clients > o.o_base.users then
    invalid_arg "Loadgen: users must cover actives + spike wave";
  check_spike_addrs ~active:o.o_base.active_clients ~spike:o.o_spike_clients;
  if o.o_spike_at <= o.o_base.ramp +. 3.0 then
    invalid_arg "Loadgen: spike must start after the calm baseline window";
  if overload_spike_end o >= o.o_horizon then
    invalid_arg "Loadgen: horizon must extend past the spike";
  (* Every calm client's schedule must outlive the horizon — including
     the one starting at ramp offset 0 — or offered load decays in the
     last windows and post-spike goodput measures the schedule, not the
     KDCs. *)
  if
    1.0 +. (float_of_int o.o_base.requests_per_client *. o.o_base.think_time)
    < o.o_horizon
  then invalid_arg "Loadgen: calm schedule ends before the horizon"

type overload_row = {
  or_label : string;
  or_completed : int;       (* calm requests a KDC answered (goodput) *)
  or_errors : int;
  or_degraded : int;        (* calm requests served from the wallet *)
  or_goodput_baseline : float;  (* calm completions/s before the spike *)
  or_goodput_post : float;      (* mean completions/s after spike end *)
  or_goodput_final : float;     (* mean over the last 5 windows *)
  or_recovery_s : float option;
      (* sim-seconds from spike end to the first window back at >= 90%
         of this row's own baseline; [None] = never within the horizon *)
  or_windows : int list;    (* calm completions per window, in order *)
  or_busy_received : int;   (* summed over every client in the row *)
  or_breaker_trips : int;
  or_budget_exhausted : int;
  or_arrived : int;         (* summed over the KDC pool *)
  or_processed : int;
  or_busy_rejections : int;
  or_brownout_sheds : int;
  or_deadline_sheds : int;
  or_residual_queue : int;  (* still queued at quiesce (0 once drained) *)
  or_silent_drops : int;    (* arrived minus every accounted outcome *)
  or_sim_seconds : float;
}

let run_overload_one o ~label ~spike ~hygiene =
  let cfg = o.o_base in
  let admission =
    if hygiene then
      { Kdc.queue_limit = o.o_queue_limit;
        base_service_time = o.o_service_time;
        brownout_at = o.o_brownout_at;
        suspect_rate = o.o_suspect_rate;
        classes = true }
    else
      (* The naive pool: same service clock, no policy. One FIFO class
         (a login storm queues ahead of calm renewals, as V4 did), the
         queue bound set far above any reachable backlog so nothing is
         ever shed — overload expresses itself purely as queueing
         delay. *)
      { Kdc.queue_limit = 1_000_000;
        base_service_time = o.o_service_time;
        brownout_at = 0;
        suspect_rate = max_int;
        classes = false }
  in
  (* The campaign measures ticket goodput: nobody runs an AP exchange, so
     the echo services stand idle. *)
  let w = build ~admission cfg in
  let make ~seed ~password host principal =
    if hygiene then
      Client.create ~seed ~password ~ccache:false ~kdc_rotation:true
        ~kdc_retries:o.o_retries ~retry_budget:o.o_retry_budget
        ~breaker_threshold:o.o_breaker_threshold
        ~breaker_cooldown:o.o_breaker_cooldown ~honor_retry_after:true
        ~kdc_deadline:o.o_deadline w.net host ~profile:cfg.profile
        ~kdcs:w.kdc_addrs principal
    else
      Client.create ~seed ~password ~ccache:false ~kdc_rotation:true
        ~kdc_retries:o.o_retries w.net host ~profile:cfg.profile
        ~kdcs:w.kdc_addrs principal
  in
  let nwin = int_of_float (o.o_horizon /. o.o_window) in
  let windows = Array.make (max nwin 1) 0 in
  let degraded = ref 0 in
  let record_completion () =
    w.completed <- w.completed + 1;
    let i = int_of_float (Sim.Engine.now w.engine /. o.o_window) in
    if i >= 0 && i < nwin then windows.(i) <- windows.(i) + 1
  in
  (* The calm population: open-loop TGS traffic, the goodput being
     defended. Only [From_kdc] answers count — wallet fallbacks keep the
     client alive but are not KDC goodput. *)
  let calm =
    wave w ~make
      (Ticket
         (function
         | Ok (_, Client.From_kdc) -> record_completion ()
         | Ok (_, Client.From_cache) -> ()
         | Ok (_, Client.Degraded) -> incr degraded
         | Error _ -> failed w))
  in
  (* The spike: a wave of fresh clients all logging in at once — the
     morning-rush AS storm, open loop. Their padata makes each request
     expensive in the brownout sense. *)
  let storm =
    if spike then
      [ wave w ~make ~first:cfg.active_clients ~prefix:"s"
          ~clients:o.o_spike_clients ~at:o.o_spike_at ~jitter:0.5
          ~think:o.o_spike_think ~requests:o.o_spike_requests Login ]
    else []
  in
  Sim.Engine.run w.engine;
  let ksum f = List.fold_left (fun a k -> a + f k) 0 w.kdcs in
  let tallies = List.map (counted w) (calm :: storm) in
  let csum f = List.fold_left (fun a t -> a + f t) 0 tallies in
  let arrived = ksum Kdc.admission_arrived in
  let processed = ksum Kdc.admission_processed in
  let busy_rejections = ksum Kdc.busy_rejections in
  let brownout_sheds = ksum Kdc.brownout_sheds in
  let deadline_sheds = ksum Kdc.deadline_sheds in
  let residual = ksum Kdc.admission_queue_depth in
  let mean_rate lo hi =
    if hi <= lo then 0.0
    else begin
      let s = ref 0 in
      for w = lo to hi - 1 do s := !s + windows.(w) done;
      float_of_int !s /. (float_of_int (hi - lo) *. o.o_window)
    end
  in
  let spike_end = overload_spike_end o in
  (* Baseline: full windows between the end of the ramp (plus margin for
     the logins) and the spike. The same interval in every row. *)
  let baseline_lo = int_of_float (Float.ceil ((cfg.ramp +. 2.0) /. o.o_window)) in
  let baseline_hi = int_of_float (o.o_spike_at /. o.o_window) in
  let post_lo = int_of_float (Float.ceil (spike_end /. o.o_window)) in
  let baseline = mean_rate baseline_lo baseline_hi in
  let post = mean_rate post_lo nwin in
  let final = mean_rate (max post_lo (nwin - 5)) nwin in
  let recovery =
    if not spike then Some 0.0
    else begin
      let rec find w =
        if w >= nwin then None
        else if
          float_of_int windows.(w) /. o.o_window >= 0.9 *. baseline
        then Some ((float_of_int w *. o.o_window) -. spike_end)
        else find (w + 1)
      in
      find post_lo
    end
  in
  { or_label = label;
    or_completed = w.completed;
    or_errors = w.errors;
    or_degraded = !degraded;
    or_goodput_baseline = baseline;
    or_goodput_post = post;
    or_goodput_final = final;
    or_recovery_s = recovery;
    or_windows = Array.to_list windows;
    or_busy_received = csum (fun t -> t.busy);
    or_breaker_trips = csum (fun t -> t.trips);
    or_budget_exhausted = csum (fun t -> t.exhausted);
    or_arrived = arrived;
    or_processed = processed;
    or_busy_rejections = busy_rejections;
    or_brownout_sheds = brownout_sheds;
    or_deadline_sheds = deadline_sheds;
    or_residual_queue = residual;
    or_silent_drops =
      arrived
      - (processed + busy_rejections + brownout_sheds + deadline_sheds
       + residual);
    or_sim_seconds = Sim.Engine.now w.engine }

type overload_suite = {
  os_config : overload_config;
  os_calm : overload_row;
  os_naive : overload_row;
  os_controlled : overload_row;
}

let run_overload o =
  validate_overload o;
  { os_config = o;
    os_calm = run_overload_one o ~label:"calm" ~spike:false ~hygiene:true;
    os_naive = run_overload_one o ~label:"spike-naive" ~spike:true ~hygiene:false;
    os_controlled =
      run_overload_one o ~label:"spike-controlled" ~spike:true ~hygiene:true }

(* The gates BENCH_overload.json and [experiments overload] enforce. *)
let overload_floor_failures s =
  let fails = ref [] in
  let check cond msg = if not cond then fails := msg :: !fails in
  let base = s.os_calm.or_goodput_baseline in
  check (base > 0.0) "calm baseline goodput is zero";
  check
    (s.os_naive.or_goodput_post < 0.5 *. base)
    (Printf.sprintf
       "naive run did not collapse (post-spike %.1f/s >= 50%% of calm %.1f/s)"
       s.os_naive.or_goodput_post base);
  check
    (s.os_naive.or_recovery_s = None)
    "naive run recovered within the horizon (expected metastable collapse)";
  check
    (match s.os_controlled.or_recovery_s with
    | Some r -> r <= 8.0
    | None -> false)
    (Printf.sprintf
       "controlled run did not recover to >=90%% of baseline within 8s (%s)"
       (match s.os_controlled.or_recovery_s with
       | Some r -> Printf.sprintf "took %.1fs" r
       | None -> "never"));
  (* Final-window goodput is compared row-to-row over the same windows:
     the calm row shares the controlled row's client schedule, so it is
     the exact no-spike counterfactual. *)
  check
    (s.os_controlled.or_goodput_final >= 0.9 *. s.os_calm.or_goodput_final)
    (Printf.sprintf
       "controlled final goodput %.1f/s < 90%% of calm %.1f/s"
       s.os_controlled.or_goodput_final s.os_calm.or_goodput_final);
  check
    (s.os_controlled.or_busy_rejections + s.os_controlled.or_brownout_sheds > 0)
    "controlled KDCs never shed (busy + brownout = 0)";
  List.iter
    (fun r ->
      check (r.or_silent_drops = 0)
        (Printf.sprintf "%s: %d requests unaccounted for (silent drops)"
           r.or_label r.or_silent_drops))
    [ s.os_calm; s.os_naive; s.os_controlled ];
  List.rev !fails

let json_overload_config (o : overload_config) =
  let open Telemetry.Json in
  Obj
    [ ("base", json_config o.o_base);
      ("service_time", Float o.o_service_time);
      ("queue_limit", Int o.o_queue_limit);
      ("brownout_at", Int o.o_brownout_at);
      ("suspect_rate", Int o.o_suspect_rate);
      ("spike_at", Float o.o_spike_at);
      ("spike_clients", Int o.o_spike_clients);
      ("spike_requests", Int o.o_spike_requests);
      ("spike_think", Float o.o_spike_think);
      ("retries", Int o.o_retries);
      ("retry_budget", Int o.o_retry_budget);
      ("breaker_threshold", Int o.o_breaker_threshold);
      ("breaker_cooldown", Float o.o_breaker_cooldown);
      ("deadline", Float o.o_deadline);
      ("window", Float o.o_window);
      ("horizon", Float o.o_horizon) ]

let json_overload_row r =
  let open Telemetry.Json in
  Obj
    [ ("label", Str r.or_label);
      ("completed", Int r.or_completed);
      ("errors", Int r.or_errors);
      ("degraded", Int r.or_degraded);
      ("goodput_baseline", Float r.or_goodput_baseline);
      ("goodput_post", Float r.or_goodput_post);
      ("goodput_final", Float r.or_goodput_final);
      ("recovery_s",
       match r.or_recovery_s with Some x -> Float x | None -> Null);
      ("windows", List (List.map (fun c -> Int c) r.or_windows));
      ("busy_received", Int r.or_busy_received);
      ("breaker_trips", Int r.or_breaker_trips);
      ("budget_exhausted", Int r.or_budget_exhausted);
      ("arrived", Int r.or_arrived);
      ("processed", Int r.or_processed);
      ("busy_rejections", Int r.or_busy_rejections);
      ("brownout_sheds", Int r.or_brownout_sheds);
      ("deadline_sheds", Int r.or_deadline_sheds);
      ("residual_queue", Int r.or_residual_queue);
      ("silent_drops", Int r.or_silent_drops);
      ("sim_seconds", Float r.or_sim_seconds) ]

(* Deterministic: every field is a function of (overload_config, seed) in
   simulated time — two runs at one seed serialize byte-identically. *)
let overload_suite_to_json s =
  let open Telemetry.Json in
  Obj
    [ ("config", json_overload_config s.os_config);
      ("calm", json_overload_row s.os_calm);
      ("naive", json_overload_row s.os_naive);
      ("controlled", json_overload_row s.os_controlled);
      ("floor_failures",
       List (List.map (fun f -> Str f) (overload_floor_failures s))) ]

let suite_to_json s =
  let open Telemetry.Json in
  Obj
    [ ("main", report_to_json s.main);
      ("main_timing", timing_to_json s.main_timing);
      ("cache_off", report_to_json s.cache_off);
      ("tgs_reduction_factor", Float (tgs_reduction s));
      ("shard_ablation", List (List.map report_to_json s.shard_ablation));
      ("perf_ablation",
       List
         (List.map
            (fun r ->
              Obj
                [ ("label", Str r.p_label);
                  ("schedule_cache", Bool r.p_schedule_cache);
                  ("lightweight", Bool r.p_lightweight);
                  ("timing", timing_to_json r.p_timing) ])
            s.perf));
      ("fast_path_speedup", Float (fast_path_speedup s)) ]
