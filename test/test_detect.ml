(* The detection plane: interpolated registry quantiles, EWMA warm-up
   edge cases, each anomaly rule against a hand-built labelled event
   stream with known detection and false-positive rates, alert folding,
   and determinism of the blended attack campaign (two runs at one seed
   must serialize identically). *)

open Kerberos
module T = Telemetry

(* --- interpolated quantiles (Metrics) -------------------------------- *)

let quantiles () =
  let m = T.Metrics.create () in
  let h = T.Metrics.histogram ~buckets:[| 10.0; 20.0; 30.0 |] m "q" in
  Alcotest.(check (float 0.0)) "empty histogram" 0.0 (T.Metrics.quantile h 0.5);
  (* 10 samples spread 1..10 land in the first bucket (0, 10]: the median
     rank is 5 of 10, interpolated halfway up the bucket. *)
  for i = 1 to 10 do
    T.Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "p50 interpolates" 5.0 (T.Metrics.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p100 clamps to max" 10.0 (T.Metrics.quantile h 1.0);
  Alcotest.(check (float 1e-9)) "p0 clamps to min" 1.0 (T.Metrics.quantile h 0.0);
  (* Push one sample beyond the last bound: the tail bucket interpolates
     toward the observed max, not infinity. *)
  T.Metrics.observe h 95.0;
  let p99 = T.Metrics.quantile h 0.99 in
  Alcotest.(check bool) "overflow bucket stays finite" true (p99 <= 95.0);
  (* A single observation answers every quantile with itself. *)
  let one = T.Metrics.histogram ~buckets:[| 10.0 |] m "one" in
  T.Metrics.observe one 4.0;
  Alcotest.(check (float 1e-9)) "single sample p50" 4.0 (T.Metrics.quantile one 0.5);
  Alcotest.(check (float 1e-9)) "single sample p99" 4.0 (T.Metrics.quantile one 0.99)

let quantiles_in_export () =
  let m = T.Metrics.create () in
  let h = T.Metrics.histogram ~buckets:[| 1.0 |] m "lat" in
  T.Metrics.observe h 0.5;
  let s = T.Json.to_string (T.Metrics.to_json m) in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " exported") true (Astring.String.is_infix ~affix:k s))
    [ "\"p50\""; "\"p95\""; "\"p99\"" ];
  Alcotest.(check bool) "text export carries quantiles" true
    (Astring.String.is_infix ~affix:"p95=" (T.Metrics.to_text m))

(* --- synthetic event streams ------------------------------------------ *)

let ev ?(component = "kdc") ~time ~kind attrs =
  { T.Trace.time; severity = T.Trace.Info; component; kind; attrs }

let as_req ~time ~src ~client ~outcome =
  ev ~time ~kind:"auth.as_req"
    [ ("src", src); ("client", client); ("outcome", outcome) ]

let ap_req ~time ~src ~outcome =
  ev ~component:"apserver" ~time ~kind:"auth.ap_req"
    [ ("src", src); ("service", "app00"); ("frame", "ap.req"); ("outcome", outcome) ]

let validated ~time ~src ~lifetime ~addr =
  ev ~component:"apserver" ~time ~kind:"ticket.validated"
    [ ("src", src); ("client", "u1@R"); ("service", "s@R");
      ("lifetime", Printf.sprintf "%g" lifetime); ("issued_at", "0");
      ("addr", addr) ]

(* A small policy so tests stay readable: warm up for 10 s, 5 s epochs. *)
let test_policy =
  { T.Detect.default_policy with
    T.Detect.warmup = 10.0; epoch = 5.0; burst_floor = 6; preauth_run = 3;
    harvest_min_clients = 5; max_lifetime = 3600.0 }

let warmup_and_baseline () =
  let d = T.Detect.create ~policy:test_policy () in
  (* A flood entirely inside the warm-up window must train, not alert. *)
  for i = 0 to 19 do
    T.Detect.observe d
      (as_req ~time:(0.1 *. float_of_int i) ~src:"10.0.0.1" ~client:"u1@R"
         ~outcome:"ok")
  done;
  Alcotest.(check int) "no alerts during warm-up" 0 (T.Detect.alert_count d);
  Alcotest.(check int) "events counted" 20 (T.Detect.observed d);
  (* Baselines: a source that spoke has one; silence is zero. *)
  T.Detect.observe d (as_req ~time:12.0 ~src:"10.0.0.1" ~client:"u1@R" ~outcome:"ok");
  Alcotest.(check bool) "active source learned a baseline" true
    (T.Detect.baseline d ~subject:"src:10.0.0.1" > 0.0);
  Alcotest.(check (float 0.0)) "zero-traffic principal baseline" 0.0
    (T.Detect.baseline d ~subject:"principal:ghost@R");
  Alcotest.(check (float 0.0)) "unknown subject kind" 0.0
    (T.Detect.baseline d ~subject:"nonsense");
  (* The zero-baseline subject still trips the absolute burst floor. *)
  for i = 0 to 9 do
    T.Detect.observe d
      (as_req ~time:(20.0 +. (0.1 *. float_of_int i)) ~src:"10.9.9.9"
         ~client:"ghost@R" ~outcome:"ok")
  done;
  Alcotest.(check bool) "cold subject bursts past the floor" true
    (T.Detect.first_alert d ~subject:"principal:ghost@R" ~rules:[ "as-burst" ]
    <> None)

let preauth_run_rule () =
  let d = T.Detect.create ~policy:test_policy () in
  T.Detect.observe d (as_req ~time:0.0 ~src:"10.0.0.2" ~client:"u2@R" ~outcome:"ok");
  (* Two failures, an ok (run resets), then three straight failures with a
     rate-limit in between (which must NOT reset the run). *)
  let t = ref 15.0 in
  let step outcome =
    T.Detect.observe d (as_req ~time:!t ~src:"10.0.0.2" ~client:"u2@R" ~outcome);
    t := !t +. 0.5
  in
  step "preauth-reject";
  step "preauth-failed";
  step "ok";
  Alcotest.(check int) "run reset by success" 0 (T.Detect.alert_count d);
  step "preauth-reject";
  step "rate-limited";
  step "preauth-reject";
  step "preauth-failed";
  Alcotest.(check bool) "dictionary run detected" true
    (T.Detect.first_alert d ~subject:"src:10.0.0.2" ~rules:[ "preauth-run" ]
    <> None)

let harvest_rule () =
  let d = T.Detect.create ~policy:test_policy () in
  T.Detect.observe d (as_req ~time:0.0 ~src:"10.0.0.3" ~client:"u0@R" ~outcome:"ok");
  (* Five distinct principals, no follow-up: the harvest signature. *)
  for i = 1 to 5 do
    T.Detect.observe d
      (as_req ~time:(14.0 +. float_of_int i) ~src:"10.0.0.3"
         ~client:(Printf.sprintf "u%d@R" i) ~outcome:"ok")
  done;
  Alcotest.(check bool) "harvester flagged" true
    (T.Detect.first_alert d ~subject:"src:10.0.0.3" ~rules:[ "harvest" ] <> None);
  (* The same spread WITH follow-up traffic is a busy multi-user gateway,
     not a harvester. *)
  let d2 = T.Detect.create ~policy:test_policy () in
  T.Detect.observe d2 (as_req ~time:0.0 ~src:"10.0.0.4" ~client:"u0@R" ~outcome:"ok");
  for i = 1 to 5 do
    T.Detect.observe d2
      (as_req ~time:(14.0 +. float_of_int i) ~src:"10.0.0.4"
         ~client:(Printf.sprintf "u%d@R" i) ~outcome:"ok");
    T.Detect.observe d2 (ap_req ~time:(14.2 +. float_of_int i) ~src:"10.0.0.4" ~outcome:"ok")
  done;
  Alcotest.(check bool) "gateway not flagged" true
    (T.Detect.first_alert d2 ~subject:"src:10.0.0.4" ~rules:[ "harvest" ] = None)

let shape_rules () =
  let d = T.Detect.create ~policy:test_policy () in
  T.Detect.observe d (as_req ~time:0.0 ~src:"10.0.0.5" ~client:"u1@R" ~outcome:"ok");
  (* Replay-cache hit: one is enough by default. *)
  T.Detect.observe d (ap_req ~time:15.0 ~src:"10.0.0.5" ~outcome:"replay-detected");
  Alcotest.(check bool) "replay hit flagged" true
    (T.Detect.first_alert d ~subject:"src:10.0.0.5" ~rules:[ "replay" ] <> None);
  (* Over-lifetime ticket: the golden-ticket shape. *)
  T.Detect.observe d (validated ~time:16.0 ~src:"10.0.0.6" ~lifetime:86400.0 ~addr:"bound");
  Alcotest.(check bool) "forged lifetime flagged" true
    (T.Detect.first_alert d ~subject:"src:10.0.0.6" ~rules:[ "forged-ticket" ]
    <> None);
  (* Address-free ticket in an address-binding realm. *)
  T.Detect.observe d (validated ~time:17.0 ~src:"10.0.0.7" ~lifetime:600.0 ~addr:"none");
  Alcotest.(check bool) "address-free ticket flagged" true
    (T.Detect.first_alert d ~subject:"src:10.0.0.7" ~rules:[ "forged-ticket" ]
    <> None);
  (* An in-policy, address-bound ticket is fine. *)
  T.Detect.observe d (validated ~time:18.0 ~src:"10.0.0.8" ~lifetime:600.0 ~addr:"bound");
  Alcotest.(check bool) "legitimate ticket not flagged" true
    (T.Detect.first_alert d ~subject:"src:10.0.0.8" ~rules:[ "forged-ticket" ]
    = None);
  (* Checksum anomalies need two hits (one could be line noise). *)
  T.Detect.observe d (ap_req ~time:19.0 ~src:"10.0.0.9" ~outcome:"bad-checksum");
  Alcotest.(check bool) "one checksum failure tolerated" true
    (T.Detect.first_alert d ~subject:"src:10.0.0.9" ~rules:[ "checksum-anomaly" ]
    = None);
  T.Detect.observe d (ap_req ~time:19.5 ~src:"10.0.0.9" ~outcome:"bad-integrity");
  Alcotest.(check bool) "second checksum failure flagged" true
    (T.Detect.first_alert d ~subject:"src:10.0.0.9" ~rules:[ "checksum-anomaly" ]
    <> None)

let alert_folding () =
  let d = T.Detect.create ~policy:test_policy () in
  T.Detect.observe d (as_req ~time:0.0 ~src:"10.0.0.1" ~client:"u1@R" ~outcome:"ok");
  for i = 0 to 4 do
    T.Detect.observe d
      (ap_req ~time:(15.0 +. float_of_int i) ~src:"10.0.0.1"
         ~outcome:"replay-detected")
  done;
  Alcotest.(check int) "five firings, one alert" 1 (T.Detect.alert_count d);
  match T.Detect.alerts d with
  | [ a ] ->
      Alcotest.(check int) "firings folded" 5 a.T.Detect.al_count;
      Alcotest.(check (float 0.0)) "first firing time kept" 15.0 a.T.Detect.al_time
  | l -> Alcotest.failf "expected exactly one alert, got %d" (List.length l)

(* A labelled stream with known ground truth: two attackers detected, one
   attacker invisible (its class's rules never fire), one benign subject
   deliberately tripped — so every rate the scorer reports is checkable
   by hand. *)
let scoring () =
  let d = T.Detect.create ~policy:test_policy () in
  T.Detect.observe d (as_req ~time:0.0 ~src:"10.0.0.1" ~client:"u1@R" ~outcome:"ok");
  (* Attacker A: dictionary run at t=20 (detected, TTD 1.0 from the third
     consecutive failure at 21.0). *)
  List.iter
    (fun (t, o) ->
      T.Detect.observe d (as_req ~time:t ~src:"10.8.0.1" ~client:"uA@R" ~outcome:o))
    [ (20.0, "preauth-reject"); (20.5, "preauth-failed"); (21.0, "preauth-reject") ];
  (* Attacker B: replay hit at t=30 (detected, TTD 0). *)
  T.Detect.observe d (ap_req ~time:30.0 ~src:"10.8.0.2" ~outcome:"replay-detected");
  (* Attacker C: a guesser whose traffic never reached the KDC — no
     events, undetectable by construction. *)
  (* Benign D flagged by a replay hit: one false positive. *)
  T.Detect.observe d (ap_req ~time:31.0 ~src:"10.0.0.4" ~outcome:"replay-detected");
  let labels =
    [ { T.Detect.lb_class = "password_guess"; lb_subject = "src:10.8.0.1";
        lb_start = 20.0 };
      { T.Detect.lb_class = "password_guess"; lb_subject = "src:10.8.0.3";
        lb_start = 20.0 };
      { T.Detect.lb_class = "replay_auth"; lb_subject = "src:10.8.0.2";
        lb_start = 30.0 } ]
  in
  let benign = [ "src:10.0.0.1"; "src:10.0.0.4"; "principal:u1@R" ] in
  let s = T.Detect.score d ~labels ~benign in
  let find cls =
    List.find (fun c -> c.T.Detect.cs_class = cls) s.T.Detect.sc_classes
  in
  let pg = find "password_guess" in
  Alcotest.(check int) "guessers labelled" 2 pg.T.Detect.cs_attackers;
  Alcotest.(check int) "one guesser detected" 1 pg.T.Detect.cs_detected;
  Alcotest.(check (float 1e-9)) "guess detection rate" 0.5 pg.T.Detect.cs_detection_rate;
  Alcotest.(check (float 1e-9)) "guess TTD" 1.0 pg.T.Detect.cs_mean_ttd;
  Alcotest.(check int) "no benign tripped guess rules" 0 pg.T.Detect.cs_benign_flagged;
  let rp = find "replay_auth" in
  Alcotest.(check (float 1e-9)) "replay detection rate" 1.0 rp.T.Detect.cs_detection_rate;
  (* The deliberate benign replay hit: 1 of 3 benign subjects, counted
     both per-class and overall. *)
  Alcotest.(check int) "benign replay FP" 1 rp.T.Detect.cs_benign_flagged;
  Alcotest.(check (float 1e-9)) "overall FPR" (1.0 /. 3.0)
    s.T.Detect.sc_false_positive_rate;
  Alcotest.(check int) "overall flagged" 1 s.T.Detect.sc_benign_flagged;
  (* JSON export mirrors the record. *)
  let js = T.Json.to_string (T.Detect.score_to_json s) in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " in score json") true
        (Astring.String.is_infix ~affix:k js))
    [ "\"password_guess\""; "\"replay_auth\""; "\"detection_rate\"";
      "\"false_positive_rate\""; "\"mean_ttd\"" ]

(* --- the campaign end to end ------------------------------------------ *)

let campaign_profile =
  { Profile.v4 with
    Profile.name = "v4+preauth+cache";
    preauth = true;
    ap_auth = Profile.Timestamp { skew = 300.0; replay_cache = true } }

let campaign_cfg =
  { Workloads.Loadgen.default with
    Workloads.Loadgen.users = 800; shards = 2; kdcs = 2; services = 4;
    active_clients = 120; requests_per_client = 15; think_time = 1.0;
    ramp = 8.0; seed = 0xD7EC7L; profile = campaign_profile;
    lightweight = true; lazy_users = true }

let campaign_mix =
  { Workloads.Attack_mix.default_mix with
    Workloads.Attack_mix.guessers = 2; guess_tries = 12; harvesters = 2;
    harvest_targets = 12; replayers = 2; forgers = 2; start = 16.0;
    stagger = 1.0 }

let campaign_policy =
  { T.Detect.default_policy with
    T.Detect.warmup = 12.0; epoch = 6.0;
    max_lifetime = campaign_cfg.Workloads.Loadgen.lifetime }

let campaign_detects () =
  let _, c =
    Workloads.Loadgen.run_campaign ~policy:campaign_policy ~mix:campaign_mix
      campaign_cfg
  in
  Alcotest.(check bool) "detector consumed events" true
    (c.Workloads.Loadgen.ca_events > 0);
  Alcotest.(check int) "all four classes labelled" 4
    (List.length c.Workloads.Loadgen.ca_score.T.Detect.sc_classes);
  let floor =
    List.filter
      (fun (cs : T.Detect.class_score) ->
        cs.T.Detect.cs_detection_rate >= 0.9
        && cs.T.Detect.cs_false_positive_rate <= 0.01)
      c.Workloads.Loadgen.ca_score.T.Detect.sc_classes
  in
  Alcotest.(check bool) "at least 3 classes over the floor" true
    (List.length floor >= 3);
  Alcotest.(check bool) "benign population scored" true
    (c.Workloads.Loadgen.ca_score.T.Detect.sc_benign > 0)

let campaign_deterministic () =
  let run () =
    T.Json.to_string
      (Workloads.Loadgen.campaign_to_json
         (snd
            (Workloads.Loadgen.run_campaign ~policy:campaign_policy
               ~mix:campaign_mix campaign_cfg)))
  in
  let a = run () in
  let b = run () in
  Alcotest.(check string) "same seed, same campaign bytes" a b;
  let c =
    T.Json.to_string
      (Workloads.Loadgen.campaign_to_json
         (snd
            (Workloads.Loadgen.run_campaign ~policy:campaign_policy
               ~mix:campaign_mix
               { campaign_cfg with Workloads.Loadgen.seed = 0x5EEDL })))
  in
  Alcotest.(check bool) "different seed, different bytes" false (String.equal a c)

let () =
  Alcotest.run "detect"
    [ ( "metrics",
        [ Alcotest.test_case "interpolated quantiles" `Quick quantiles;
          Alcotest.test_case "quantiles exported" `Quick quantiles_in_export ] );
      ( "rules",
        [ Alcotest.test_case "warm-up and baselines" `Quick warmup_and_baseline;
          Alcotest.test_case "preauth run" `Quick preauth_run_rule;
          Alcotest.test_case "harvest" `Quick harvest_rule;
          Alcotest.test_case "ticket shape and replay" `Quick shape_rules;
          Alcotest.test_case "alert folding" `Quick alert_folding ] );
      ( "scoring",
        [ Alcotest.test_case "labelled synthetic stream" `Quick scoring ] );
      ( "campaign",
        [ Alcotest.test_case "blended campaign detects" `Quick campaign_detects;
          Alcotest.test_case "byte-identical at a seed" `Quick
            campaign_deterministic ] ) ]
