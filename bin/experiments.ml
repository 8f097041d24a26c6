(* The experiment runner: regenerates every table of EXPERIMENTS.md.

   `experiments matrix`   — the attack x profile matrix (the headline table)
   `experiments e1`       — replay window sweep
   `experiments e3`       — password-crack sweep
   `experiments e13`      — discrete-log crack times and modexp costs
   `experiments e14`      — protocol overheads
   `experiments e15`      — encryption-box invariants
   `experiments all`      — everything *)

let yn = function true -> "yes" | false -> "no"

let print_matrix () =
  print_endline "== Attack x profile matrix (the paper's findings, reproduced) ==";
  print_endline "";
  let rows = Expframework.Matrix.run_all () in
  Expframework.Table.print ~header:Expframework.Matrix.header
    (Expframework.Matrix.to_cells rows);
  print_endline "";
  print_endline "Details:";
  List.iter
    (fun r ->
      Printf.printf "  %-4s %s  [%s]\n" r.Expframework.Matrix.id
        r.Expframework.Matrix.attack r.Expframework.Matrix.section;
      List.iter
        (fun (p, o) ->
          Printf.printf "       %-10s %-9s %s\n" p (Attacks.Outcome.label o)
            (Attacks.Outcome.detail o))
        r.Expframework.Matrix.outcomes)
    rows;
  (* Sanity: compare against the expected shape. *)
  let mismatches =
    List.concat_map
      (fun (id, shape) ->
        match Expframework.Matrix.run_row id rows with
        | None -> [ id ^ ": missing" ]
        | Some r ->
            List.concat
              (List.map2
                 (fun (p, o) expected ->
                   if Attacks.Outcome.is_broken o = expected then []
                   else [ Printf.sprintf "%s/%s: got %s" id p (Attacks.Outcome.label o) ])
                 r.outcomes shape))
      Expframework.Matrix.expected_shape
  in
  if mismatches = [] then
    print_endline "\nShape check: all outcomes match the paper's claims."
  else begin
    print_endline "\nShape check FAILED:";
    List.iter (fun m -> print_endline ("  " ^ m)) mismatches
  end

let print_e1 () =
  print_endline "== E1: authenticator replay vs. skew window (V4, no cache) ==";
  Expframework.Table.print
    ~header:[ "skew window (s)"; "replay delay (s)"; "replay accepted" ]
    (List.map
       (fun (skew, delay, ok) ->
         [ Printf.sprintf "%.0f" skew; Printf.sprintf "%.0f" delay; yn ok ])
       (Expframework.Sweeps.replay_window_sweep ()))

let print_e3 () =
  print_endline "== E3: offline cracking of recorded login dialogs ==";
  Expframework.Table.print
    ~header:[ "profile"; "users"; "weak"; "replies recorded"; "cracked" ]
    (List.map
       (fun (p, n, weak, rec_, cracked) ->
         [ p; string_of_int n; string_of_int weak; string_of_int rec_;
           string_of_int cracked ])
       (Expframework.Sweeps.crack_sweep ()))

let print_e13 () =
  print_endline "== E13a: discrete-log attacks on small exponential-exchange moduli ==";
  Expframework.Table.print
    ~header:[ "modulus bits"; "algorithm"; "cpu seconds"; "exponent recovered" ]
    (List.map
       (fun (b, alg, t, ok) ->
         [ string_of_int b; alg; Printf.sprintf "%.3f" t; yn ok ])
       (Expframework.Sweeps.dlog_sweep ()));
  print_endline "";
  print_endline "== E13b: cost of one modular exponentiation (the defender's side) ==";
  Expframework.Table.print ~header:[ "modulus bits"; "cpu seconds / modexp" ]
    (List.map
       (fun (b, t) -> [ string_of_int b; Printf.sprintf "%.5f" t ])
       (Expframework.Sweeps.modexp_cost ()))

let print_e14 () =
  print_endline "== E14: protocol overheads per profile ==";
  Expframework.Table.print
    ~header:
      [ "profile"; "messages/session"; "messages/AP exchange";
        "server words per session"; "cache entries after 25 auths";
        "authenticated datagrams" ]
    (List.map
       (fun (p, total, ap, words, cache, dg) ->
         [ p; string_of_int total; string_of_int ap; string_of_int words;
           string_of_int cache; yn dg ])
       (Expframework.Sweeps.overhead ()))

let print_validation () =
  print_endline "== Message-confusion analysis (SECURITY VALIDATION section) ==";
  List.iter
    (fun kind ->
      Format.printf "%a@." Expframework.Confusion_check.pp_matrix
        (Expframework.Confusion_check.run kind))
    [ Wire.Encoding.V4_adhoc; Wire.Encoding.Der_typed ];
  print_endline
    "Every V4 pair above is an analysis obligation a human must re-discharge\n\
     at every protocol change; the typed encoding discharges them all,\n\
     structurally, forever (recommendation b)."

let print_e15 () =
  print_endline "== E15: encryption-box design criteria ==";
  Expframework.Table.print ~header:[ "criterion"; "holds" ]
    (List.map (fun (c, ok) -> [ c; yn ok ]) (Expframework.Hardware_check.run ()))

(* What the operator's console showed while the attacks ran: each scenario
   gets a fresh default collector, so the report covers exactly that run. *)
let print_opsview () =
  print_endline "== Operator view: the telemetry the attacks left behind ==";
  let show title run =
    let tel = Telemetry.Collector.fresh_default () in
    run ();
    Printf.printf "\n-- %s --\n%s" title
      (Telemetry.Rates.report ~addr:Sim.Addr.to_string (Telemetry.Collector.rates tel)
         (Telemetry.Collector.metrics tel))
  in
  show "E4 ticket harvest, v4 (no preauth: every ask is served)" (fun () ->
      ignore
        (Attacks.Ticket_harvest.run ~n_users:10 ~dictionary_head:250
           ~profile:Kerberos.Profile.v4 ()));
  show "E4 ticket harvest, v4 + rate limit 5/min (the paper's partial fix)"
    (fun () ->
      ignore
        (Attacks.Ticket_harvest.run ~n_users:10 ~dictionary_head:250 ~rate_limit:5
           ~profile:Kerberos.Profile.v4 ()));
  show "E4 ticket harvest, hardened (preauth: rejects pile up instead)" (fun () ->
      ignore
        (Attacks.Ticket_harvest.run ~n_users:10 ~dictionary_head:250
           ~profile:Kerberos.Profile.hardened ()));
  show "E1 authenticator replay, v4 (no replay cache: zero replay hits — \
        the attack succeeds invisibly)" (fun () ->
      ignore (Attacks.Replay_auth.run ~profile:Kerberos.Profile.v4 ()));
  (* The cache V4 specified but never implemented: with it, the replay
     shows up on the console. *)
  let v4_cached =
    { Kerberos.Profile.v4 with
      Kerberos.Profile.name = "v4+cache";
      ap_auth = Kerberos.Profile.Timestamp { skew = 300.0; replay_cache = true } }
  in
  show "E1 authenticator replay, v4 + replay cache (the hit is recorded)"
    (fun () -> ignore (Attacks.Replay_auth.run ~profile:v4_cached ()));
  ignore (Telemetry.Collector.fresh_default ())

(* The fault drills share one loop: [seeds] consecutive seeds from
   [first], each printing its block and saying whether it held, then the
   drill's closing [checks]. Exit nonzero on any failure, so CI can gate
   on it. *)
let drill ~title ~name ~held ?(checks = fun () -> true) first seeds run =
  print_endline title;
  print_newline ();
  let failures = ref 0 in
  for i = 0 to seeds - 1 do
    if not (run (Int64.add first (Int64.of_int i))) then incr failures
  done;
  if not (checks ()) then incr failures;
  ignore (Telemetry.Collector.fresh_default ());
  if !failures = 0 then Printf.printf "%s: %s\n" name held
  else begin
    Printf.printf "%s: FAILURES in %d seed(s)\n" name !failures;
    exit 1
  end

let mutation_check () =
  let caught = Expframework.Session_fuzz.mutation_caught () in
  Printf.printf "  mutation check (replay cache off + duplicated AP datagrams): %s\n"
    (if caught then "caught" else "MISSED");
  caught

(* The chaos runbook: the chaos scheme at each fault seed, run twice to
   prove the fault plane is deterministic (byte-identical trace dumps); a
   failing seed is shrunk to the ops that matter. *)
let print_chaos fault_seed seeds =
  let open Expframework.Session_fuzz in
  drill ~title:"== Chaos: quickstart workload under randomized fault schedules =="
    ~name:"chaos"
    ~held:
      (Printf.sprintf "%d seed(s), all safety invariants held, all traces deterministic"
         seeds)
    ~checks:mutation_check fault_seed seeds
    (fun seed ->
      let sc = chaos seed in
      let r = run_scheme sc in
      let identical = String.equal r.r_trace (run_scheme sc).r_trace in
      print_string (summary r);
      Printf.printf "  determinism: %s\n"
        (if identical then
           Printf.sprintf "re-run produced a byte-identical trace (%d bytes)"
             (String.length r.r_trace)
         else "RE-RUN DIVERGED");
      let held = violations r = [] in
      if not held then Printf.printf "  shrunk: %s\n" (scheme_to_string (shrink sc));
      print_newline ();
      identical && held)

(* The session-fuzz runbook: generated operation schedules at randomized
   MTUs and weather, invariant-checked, with periodic determinism
   double-runs and a mutation check proving the harness catches a planted
   bug. A campaign that drew no chaos weather fails its floor. *)
let print_session_fuzz seed seeds schedules =
  let open Expframework.Session_fuzz in
  drill ~title:"== Session fuzz: generated op schedules at randomized path MTUs =="
    ~name:"session-fuzz"
    ~held:(Printf.sprintf "%d seed(s) x %d schedules, all invariants held" seeds schedules)
    ~checks:mutation_check seed seeds
    (fun seed ->
      let c = campaign ~schedules ~seed () in
      print_string (campaign_summary c);
      if c.c_weather = 0 then print_endline "  floor: no scheme ran under chaos weather";
      ok c && c.c_weather > 0)

(* The disaster-recovery drill: crash-equivalence against a golden twin,
   torn/bit-flipped WAL tails, anti-entropy reconciliation, graceful
   degradation. *)
let print_recovery seed seeds =
  drill ~title:"== Recovery: crash, torn logs, reconciliation, degradation =="
    ~name:"recovery"
    ~held:(Printf.sprintf "%d seed(s), all recovery invariants held" seeds)
    seed seeds
    (fun seed ->
      let r = Expframework.Recovery.run ~seed in
      print_string (Expframework.Recovery.summary r);
      print_newline ();
      Expframework.Recovery.violations r = [])

(* The capacity-planning run: stand up an N-user realm behind a sharded
   KDC pool, drive open-loop traffic, and persist the ablation suite
   (credential cache on/off, shard sweep) to BENCH_load.json. *)
let load_json_path = "BENCH_load.json"

let print_load users shards kdcs active requests services seed lightweight
    lazy_users quick =
  let cfg =
    { Workloads.Loadgen.default with
      Workloads.Loadgen.users; shards; kdcs; active_clients = active;
      requests_per_client = requests; services; seed = Int64.of_int seed;
      lightweight; lazy_users }
  in
  Printf.printf
    "== Load: %d users%s, %d shards, %d KDCs, %d services; %d active clients \
     x %d requests%s ==\n\n"
    users
    (if lazy_users then " (lazy)" else "")
    shards kdcs services active requests
    (if lightweight then "; lightweight telemetry" else "");
  if quick then begin
    (* One main run, no ablation suite, no JSON — for sizing a campaign
       before paying for the full suite. *)
    let blocks0 = Crypto.Des.blocks_performed () in
    let r, t = Workloads.Loadgen.run_timed cfg in
    let blocks = Crypto.Des.blocks_performed () - blocks0 in
    Printf.printf
      "quick: %d completed, %d errors; setup %.2fs, run %.2fs; %d sim events \
       => %.0f sim events / wall second (%d DES blocks, %.1f per event)\n"
      r.Workloads.Loadgen.completed r.Workloads.Loadgen.errors
      t.Workloads.Loadgen.setup_seconds t.Workloads.Loadgen.run_seconds
      t.Workloads.Loadgen.events t.Workloads.Loadgen.events_per_second blocks
      (float_of_int blocks /. float_of_int (max 1 t.Workloads.Loadgen.events));
    exit 0
  end;
  let started = Sys.time () in
  let suite = Workloads.Loadgen.run_suite cfg in
  let cpu = Sys.time () -. started in
  let row (label : string) (r : Workloads.Loadgen.report) =
    [ label;
      (if r.Workloads.Loadgen.r_config.Workloads.Loadgen.ccache then "on" else "off");
      string_of_int r.Workloads.Loadgen.as_requests;
      string_of_int r.Workloads.Loadgen.tgs_requests;
      string_of_int r.Workloads.Loadgen.completed;
      string_of_int r.Workloads.Loadgen.errors;
      Printf.sprintf "%.0f/%.0f"
        (r.Workloads.Loadgen.tgs_latency.Workloads.Loadgen.p50 *. 1000.)
        (r.Workloads.Loadgen.tgs_latency.Workloads.Loadgen.p99 *. 1000.);
      Printf.sprintf "%.0f/%.0f"
        (r.Workloads.Loadgen.ap_latency.Workloads.Loadgen.p50 *. 1000.)
        (r.Workloads.Loadgen.ap_latency.Workloads.Loadgen.p99 *. 1000.);
      Printf.sprintf "%.0f" r.Workloads.Loadgen.throughput ]
  in
  Expframework.Table.print
    ~header:
      [ "run"; "ccache"; "AS_REQ"; "TGS_REQ"; "completed"; "errors";
        "tgs p50/p99 (ms)"; "ap p50/p99 (ms)"; "req/sim-s" ]
    [ row "main" suite.Workloads.Loadgen.main;
      row "cache-off" suite.Workloads.Loadgen.cache_off ];
  let reduction = Workloads.Loadgen.tgs_reduction suite in
  Printf.printf
    "\nsteady-state TGS reduction from the credential cache: %.1fx %s\n"
    reduction
    (if reduction >= 10.0 then "(claim held: >= 10x)"
     else "(below the 10x claim at this traffic mix)");
  print_endline "\nShard ablation (reduced traffic):";
  Expframework.Table.print
    ~header:
      [ "shards"; "entry balance (max/mean)"; "lookup balance";
        "per-shard lookups" ]
    (List.map
       (fun (r : Workloads.Loadgen.report) ->
         [ string_of_int (Array.length r.Workloads.Loadgen.shard_lookups);
           Printf.sprintf "%.2f" (Workloads.Loadgen.shard_balance r);
           Printf.sprintf "%.2f" (Workloads.Loadgen.lookup_balance r);
           String.concat " "
             (Array.to_list
                (Array.map string_of_int r.Workloads.Loadgen.shard_lookups)) ])
       suite.Workloads.Loadgen.shard_ablation);
  print_endline
    "(entry balance = how evenly FNV-1a spread the population; lookup\n\
    \ balance follows the traffic, which concentrates on the TGS's own\n\
    \ entry and the popular services — hot keys no hash partition spreads)";
  let mt = suite.Workloads.Loadgen.main_timing in
  Printf.printf
    "\nmain run wall clock: setup %.2fs, run %.2fs; %d sim events => %.0f \
     sim events / wall second\n"
    mt.Workloads.Loadgen.setup_seconds mt.Workloads.Loadgen.run_seconds
    mt.Workloads.Loadgen.events mt.Workloads.Loadgen.events_per_second;
  print_endline "\nFast-path ablation (identical reduced traffic per cell):";
  Expframework.Table.print
    ~header:
      [ "cell"; "DES schedule cache"; "lightweight telemetry"; "setup (s)";
        "run (s)"; "events/wall-s" ]
    (List.map
       (fun (p : Workloads.Loadgen.perf_row) ->
         [ p.Workloads.Loadgen.p_label;
           (if p.Workloads.Loadgen.p_schedule_cache then "on" else "off");
           (if p.Workloads.Loadgen.p_lightweight then "on" else "off");
           Printf.sprintf "%.2f"
             p.Workloads.Loadgen.p_timing.Workloads.Loadgen.setup_seconds;
           Printf.sprintf "%.2f"
             p.Workloads.Loadgen.p_timing.Workloads.Loadgen.run_seconds;
           Printf.sprintf "%.0f"
             p.Workloads.Loadgen.p_timing.Workloads.Loadgen.events_per_second ])
       suite.Workloads.Loadgen.perf);
  Printf.printf "fast path over baseline: %.2fx sim events / wall second\n"
    (Workloads.Loadgen.fast_path_speedup suite);
  let json =
    match Workloads.Loadgen.suite_to_json suite with
    | Telemetry.Json.Obj fields ->
        Telemetry.Json.Obj
          (fields
          @ [ ( "wall",
                Telemetry.Json.Obj
                  [ ("suite_cpu_seconds", Telemetry.Json.Float cpu);
                    ( "sim_events_per_wall_second",
                      Telemetry.Json.Float mt.Workloads.Loadgen.events_per_second
                    ) ] ) ])
    | j -> j
  in
  let oc = open_out load_json_path in
  output_string oc (Telemetry.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nmachine-readable results: %s (%.1f cpu seconds)\n"
    (Filename.concat (Sys.getcwd ()) load_json_path)
    cpu

(* --- the campaign gates ---------------------------------------------

   Every deterministic campaign goes through one driver. A full run writes
   the campaign's BENCH file. [--quick] runs the runtest-sized campaign
   twice and fails unless the two JSON documents are byte-identical, the
   parsed document carries every schema key path and, at the committed
   configuration, its MD5 is the recorded one. Either way the floors must
   hold, or the command exits 1. *)
type 'a campaign = {
  name : string;
  file : string;  (* what a full run writes *)
  run : unit -> 'a;
  print : 'a -> unit;
  to_json : 'a -> Telemetry.Json.t;
  floors : 'a -> string list;
  schema : string list;  (* key paths, as Telemetry.Json.path reads them *)
}

let gate c ~quick ~pinned =
  let r = c.run () in
  c.print r;
  let json = Telemetry.Json.to_string (c.to_json r) in
  let fails = ref (List.map (( ^ ) "floor: ") (c.floors r)) in
  let fail fmt = Printf.ksprintf (fun s -> fails := !fails @ [ s ]) fmt in
  if quick then begin
    if String.equal json (Telemetry.Json.to_string (c.to_json (c.run ()))) then
      Printf.printf "\ndeterminism: re-run produced byte-identical JSON (%d bytes)\n"
        (String.length json)
    else fail "determinism: RE-RUN DIVERGED";
    (match Telemetry.Json.of_string json with
    | Ok j -> List.iter (fail "schema: %s missing") (Telemetry.Json.missing j c.schema)
    | Error e -> fail "schema: the JSON does not parse back (%s)" e);
    match pinned with
    | None -> ()
    | Some want ->
        let got = Digest.to_hex (Digest.string json) in
        if got = want then Printf.printf "digest: %s, as recorded\n" got
        else fail "digest: %s, recorded %s" got want
  end
  else begin
    let oc = open_out c.file in
    output_string oc json;
    output_char oc '\n';
    close_out oc;
    Printf.printf "\nmachine-readable results: %s\n"
      (Filename.concat (Sys.getcwd ()) c.file)
  end;
  List.iter print_endline !fails;
  if !fails <> [] then begin
    Printf.printf "%s: FAILED\n" c.name;
    exit 1
  end
  else Printf.printf "%s: all gates hold\n" c.name

(* Every key path [p.k] for [p] in [prefixes], [k] in [keys]. *)
let under prefixes keys =
  List.concat_map (fun p -> List.map (fun k -> p ^ "." ^ k) keys) prefixes

(* V4 plus the two fixes the rules lean on: preauthentication (so a
   guesser's wrong keys are visible as failures) and the replay cache V4
   specified but never shipped (so a replayed authenticator is an event,
   not a silent success). Address binding stays on, as in V4. *)
let detect_profile =
  { Kerberos.Profile.v4 with
    Kerberos.Profile.name = "v4+preauth+cache";
    preauth = true;
    ap_auth = Kerberos.Profile.Timestamp { skew = 300.0; replay_cache = true } }

let detect_floor_classes (score : Telemetry.Detect.score) =
  List.filter
    (fun (c : Telemetry.Detect.class_score) ->
      c.Telemetry.Detect.cs_detection_rate >= 0.9
      && c.Telemetry.Detect.cs_false_positive_rate <= 0.01)
    score.Telemetry.Detect.sc_classes

let print_campaign_score (score : Telemetry.Detect.score) =
  Expframework.Table.print
    ~header:
      [ "attack class"; "attackers"; "detected"; "rate"; "FPR"; "mean TTD (s)";
        "max TTD (s)" ]
    (List.map
       (fun (c : Telemetry.Detect.class_score) ->
         [ c.Telemetry.Detect.cs_class;
           string_of_int c.Telemetry.Detect.cs_attackers;
           string_of_int c.Telemetry.Detect.cs_detected;
           Printf.sprintf "%.2f" c.Telemetry.Detect.cs_detection_rate;
           Printf.sprintf "%.4f" c.Telemetry.Detect.cs_false_positive_rate;
           (if c.Telemetry.Detect.cs_detected = 0 then "-"
            else Printf.sprintf "%.1f" c.Telemetry.Detect.cs_mean_ttd);
           (if c.Telemetry.Detect.cs_detected = 0 then "-"
            else Printf.sprintf "%.1f" c.Telemetry.Detect.cs_max_ttd) ])
       score.Telemetry.Detect.sc_classes);
  Printf.printf
    "\nbenign subjects: %d, flagged by any rule: %d (overall FPR %.4f); %d alerts\n"
    score.Telemetry.Detect.sc_benign score.Telemetry.Detect.sc_benign_flagged
    score.Telemetry.Detect.sc_false_positive_rate score.Telemetry.Detect.sc_alerts

let detect_defaults = (100_000, 2_000, 60, 0xdefec7)

(* The blended attack campaign: hide the paper's attacks inside benign
   load, attach the detection plane, score against ground truth, persist
   BENCH_detect.json. Fails unless at least three attack classes clear
   detection rate >= 0.9 at false-positive rate <= 0.01, so CI can gate
   on detector quality. *)
let print_detect users active requests seed quick =
  let cfg, mix, policy =
    if quick then
      (* runtest-sized: a few hundred clients, an earlier campaign start
         and a shorter warm-up so the whole thing fits in seconds. *)
      let cfg =
        { Workloads.Loadgen.default with
          Workloads.Loadgen.users = min users 2_000; shards = 4; kdcs = 2;
          active_clients = min active 300; requests_per_client = min requests 30;
          think_time = 1.0; ramp = 10.0; seed = Int64.of_int seed;
          profile = detect_profile; lightweight = true; lazy_users = true }
      in
      ( cfg,
        { Workloads.Attack_mix.default_mix with
          Workloads.Attack_mix.start = 25.0; stagger = 1.0; guess_tries = 20 },
        Some
          { Telemetry.Detect.default_policy with
            Telemetry.Detect.warmup = 20.0; epoch = 10.0;
            max_lifetime = cfg.Workloads.Loadgen.lifetime } )
    else
      ( { Workloads.Loadgen.default with
          Workloads.Loadgen.users; shards = 8; kdcs = 4; active_clients = active;
          requests_per_client = requests; think_time = 2.0; ramp = 30.0;
          seed = Int64.of_int seed; profile = detect_profile; lightweight = true;
          lazy_users = true },
        Workloads.Attack_mix.default_mix,
        None )
  in
  Printf.printf
    "== Detect: %d-user realm, %d active clients x %d requests; %d guessers, \
     %d harvesters, %d replayers, %d forgers hidden in the mix ==\n\n"
    cfg.Workloads.Loadgen.users cfg.Workloads.Loadgen.active_clients
    cfg.Workloads.Loadgen.requests_per_client mix.Workloads.Attack_mix.guessers
    mix.Workloads.Attack_mix.harvesters mix.Workloads.Attack_mix.replayers
    mix.Workloads.Attack_mix.forgers;
  let score (_, c) = c.Workloads.Loadgen.ca_score in
  gate ~quick
    ~pinned:
      (if (users, active, requests, seed) = detect_defaults then
         Some "36b6f89aa7ecd544a6f1c492d2e97e20"
       else None)
    { name = "detect"; file = "BENCH_detect.json";
      run = (fun () -> Workloads.Loadgen.run_campaign ?policy ~mix cfg);
      print =
        (fun ((det, _) as r) ->
          print_string (Telemetry.Detect.report det);
          print_newline ();
          print_campaign_score (score r);
          Printf.printf
            "detection floor: %d/%d classes at rate >= 0.9 with FPR <= 0.01 \
             (need >= 3)\n"
            (List.length (detect_floor_classes (score r)))
            (List.length (score r).Telemetry.Detect.sc_classes));
      to_json = (fun (_, c) -> Workloads.Loadgen.campaign_to_json c);
      floors =
        (fun r ->
          if List.length (detect_floor_classes (score r)) >= 3 then []
          else [ "fewer than 3 attack classes at rate >= 0.9 with FPR <= 0.01" ]);
      schema =
        [ "config.profile"; "mix.guessers"; "policy.warmup"; "policy.burst_factor";
          "report.completed"; "detector_events"; "labels.0.class";
          "alerts.0.rule"; "alerts.0.subject"; "alerts.0.evidence";
          "score.benign_subjects"; "score.benign_flagged" ]
        @ under
            (List.map (( ^ ) "score.classes.")
               [ "password_guess"; "ticket_harvest"; "replay_auth"; "forged_ticket" ])
            [ "attackers"; "detected"; "detection_rate"; "false_positive_rate";
              "mean_ttd"; "max_ttd" ] }

(* The replication campaign: one service goes viral. Three same-seed runs
   (calm baseline, spike through the primary alone, spike against a
   WAL-shipped replica pool with a crash + rejoin mid-storm) and the
   floors BENCH_replication.json commits to: overload visible without
   replicas, p99 TGS flat (<= 1.2x calm) and the pool balanced (max/mean
   <= 1.5) with them, replica state converged at quiesce. *)
let print_viral_rows (s : Workloads.Loadgen.viral_suite) =
  let open Workloads.Loadgen in
  Expframework.Table.print
    ~header:
      [ "run"; "completed"; "errors"; "tgs"; "tgs p50 (s)"; "tgs p99 (s)";
        "shard bal"; "unit bal"; "shipped"; "max lag"; "converged" ]
    (List.map
       (fun r ->
         [ r.vr_label; string_of_int r.vr_completed; string_of_int r.vr_errors;
           string_of_int r.vr_tgs_requests;
           Printf.sprintf "%.4f" r.vr_tgs_latency.p50;
           Printf.sprintf "%.4f" r.vr_tgs_latency.p99;
           Printf.sprintf "%.2f" r.vr_shard_lookup_balance;
           Printf.sprintf "%.2f" r.vr_unit_balance;
           string_of_int r.vr_shipped_records;
           string_of_int r.vr_max_lag_seen;
           string_of_bool r.vr_converged ])
       [ s.vs_calm; s.vs_unreplicated; s.vs_replicated ]);
  Printf.printf
    "\np99 TGS vs calm: %.2fx unreplicated, %.2fx replicated; pool reads: %s\n"
    (viral_overload_ratio s) (viral_p99_ratio s)
    (String.concat ", "
       (List.map
          (fun (n, c) -> Printf.sprintf "%s=%d" n c)
          s.vs_replicated.vr_unit_reads))

let print_replicate seed quick =
  let open Workloads.Loadgen in
  let v =
    let dv = default_viral in
    let base = { dv.v_base with seed = Int64.of_int seed } in
    if quick then { dv with v_base = base }
    else
      { dv with
        v_base =
          { base with users = 2_000; active_clients = 200;
            requests_per_client = 25 };
        v_replicas = 4; v_spike_clients = 300; v_spike_requests = 60;
        v_spike_think = 0.1 }
  in
  Printf.printf
    "== Replicate: %d users, %d shards; service app%02d goes viral at t=%gs \
     (%d cache-less clients x %d requests); %d read replicas, ship every \
     %gs, max lag %d ==\n\n"
    v.v_base.users v.v_base.shards v.v_spike_service v.v_spike_at
    v.v_spike_clients v.v_spike_requests v.v_replicas v.v_ship_every
    v.v_max_lag;
  gate ~quick
    ~pinned:
      (if Int64.of_int seed = default_viral.v_base.seed then
         Some "95bfdd884d6cc8bdddb2b2b4b0ac7e15"
       else None)
    { name = "replicate"; file = "BENCH_replication.json";
      run = (fun () -> run_viral v); print = print_viral_rows;
      to_json = viral_suite_to_json; floors = viral_floor_failures;
      schema =
        [ "config.base.users"; "config.replicas"; "overload_p99_ratio";
          "replicated_p99_ratio"; "floor_failures" ]
        @ under
            [ "calm"; "unreplicated"; "replicated" ]
            [ "tgs_latency.p99"; "shard_lookup_balance"; "unit_reads.primary";
              "unit_balance"; "fresh_fallbacks"; "shipped_records"; "catchups";
              "max_lag_seen"; "replica_crashes"; "converged" ] }

let print_overload_rows (s : Workloads.Loadgen.overload_suite) =
  let open Workloads.Loadgen in
  Expframework.Table.print
    ~header:
      [ "run"; "base/s"; "post/s"; "final/s"; "recover"; "busy"; "brownout";
        "deadline"; "errors"; "silent" ]
    (List.map
       (fun r ->
         [ r.or_label;
           Printf.sprintf "%.1f" r.or_goodput_baseline;
           Printf.sprintf "%.1f" r.or_goodput_post;
           Printf.sprintf "%.1f" r.or_goodput_final;
           (match r.or_recovery_s with
           | Some x -> Printf.sprintf "%.1fs" x
           | None -> "never");
           string_of_int r.or_busy_rejections;
           string_of_int r.or_brownout_sheds;
           string_of_int r.or_deadline_sheds;
           string_of_int r.or_errors;
           string_of_int r.or_silent_drops ])
       [ s.os_calm; s.os_naive; s.os_controlled ])

let print_overload seed quick =
  let open Workloads.Loadgen in
  let o =
    let d = default_overload in
    { d with o_base = { d.o_base with seed = Int64.of_int seed } }
  in
  Printf.printf
    "== Overload: %d calm clients (think %gs) vs a %d-client login storm \
     at t=%gs (%d logins each, think %gs); %d KDCs, service time %gs, \
     queue limit %d, brownout at %d; naive retries=%d vs budget=%d + \
     breaker(%d, %gs) + retry-after + deadline %gs ==\n\n"
    o.o_base.active_clients o.o_base.think_time o.o_spike_clients o.o_spike_at
    o.o_spike_requests o.o_spike_think o.o_base.kdcs o.o_service_time
    o.o_queue_limit o.o_brownout_at o.o_retries o.o_retry_budget
    o.o_breaker_threshold o.o_breaker_cooldown o.o_deadline;
  gate ~quick
    ~pinned:
      (if Int64.of_int seed = default_overload.o_base.seed then
         Some "402ff3b4fcc9ad97a00dcaeef5fb5c8f"
       else None)
    { name = "overload"; file = "BENCH_overload.json";
      run = (fun () -> run_overload o); print = print_overload_rows;
      to_json = overload_suite_to_json; floors = overload_floor_failures;
      schema =
        [ "config.base.users"; "config.queue_limit"; "floor_failures" ]
        @ under
            [ "calm"; "naive"; "controlled" ]
            [ "goodput_baseline"; "goodput_post"; "goodput_final"; "recovery_s";
              "windows.0"; "busy_received"; "breaker_trips"; "budget_exhausted";
              "arrived"; "processed"; "busy_rejections"; "brownout_sheds";
              "deadline_sheds"; "residual_queue"; "silent_drops" ] }

let run_all () =
  print_matrix ();
  print_endline "";
  print_e1 ();
  print_endline "";
  print_e3 ();
  print_endline "";
  print_e13 ();
  print_endline "";
  print_e14 ();
  print_endline "";
  print_e15 ();
  print_endline "";
  print_validation ()

open Cmdliner

let cmd_of name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ const ())

(* The drills' shared options. *)
let first_seed name doc =
  Arg.(value & opt int64 1L & info [ name ] ~docv:"SEED" ~doc)

let seeds_opt default =
  Arg.(
    value & opt int default
    & info [ "seeds" ] ~docv:"N" ~doc:"Number of consecutive seeds to run.")

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the quickstart workload under seeded fault injection and check \
          the safety invariants (each seed is run twice to prove trace \
          determinism; exits nonzero on violation)")
    Term.(
      const print_chaos
      $ first_seed "fault-seed" "First fault-schedule seed."
      $ seeds_opt 1)

let recovery_cmd =
  Cmd.v
    (Cmd.info "recovery"
       ~doc:
         "Run the disaster-recovery drill: KDC crash + checkpoint/WAL \
          recovery checked byte-for-byte against an uncrashed twin, torn \
          and bit-flipped log tails, replica reconciliation, and client \
          degradation (exits nonzero on violation)")
    Term.(const print_recovery $ first_seed "seed" "First drill seed." $ seeds_opt 1)

let session_fuzz_cmd =
  let schedules =
    Arg.(
      value
      & opt int 100
      & info [ "schedules" ] ~docv:"N"
          ~doc:"Generated operation schedules per seed.")
  in
  Cmd.v
    (Cmd.info "session-fuzz"
       ~doc:
         "Property-based session fuzzing of the transport plane: generated \
          connect/login/read/crash/partition schedules at randomized path \
          MTUs, checked against the session invariants, with determinism \
          double-runs and a mutation check (exits nonzero on violation)")
    Term.(
      const print_session_fuzz
      $ first_seed "seed" "First campaign seed."
      $ seeds_opt 2 $ schedules)

let load_cmd =
  let opt_int name ~default ~doc =
    Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)
  in
  let d = Workloads.Loadgen.default in
  let users = opt_int "users" ~default:d.Workloads.Loadgen.users ~doc:"Principals registered in the realm." in
  let shards = opt_int "shards" ~default:d.Workloads.Loadgen.shards ~doc:"Database shard count." in
  let kdcs = opt_int "kdcs" ~default:d.Workloads.Loadgen.kdcs ~doc:"KDC pool size." in
  let active = opt_int "active" ~default:d.Workloads.Loadgen.active_clients ~doc:"Clients driving traffic." in
  let requests = opt_int "requests" ~default:d.Workloads.Loadgen.requests_per_client ~doc:"Requests per client." in
  let services = opt_int "services" ~default:d.Workloads.Loadgen.services ~doc:"Distinct application services." in
  let seed = opt_int "seed" ~default:(Int64.to_int d.Workloads.Loadgen.seed) ~doc:"Workload seed." in
  let lightweight =
    Arg.(
      value & flag
      & info [ "lightweight" ]
          ~doc:
            "Counters-and-histograms telemetry only (no trace machinery) — \
             the million-user fast path.")
  in
  let lazy_users =
    Arg.(
      value & flag
      & info [ "lazy" ]
          ~doc:
            "Materialize principals at first authentication instead of \
             registering the whole realm up front.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Run only the main configuration (no ablation suite, no \
             BENCH_load.json) and print its timing.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Capacity planning: drive open-loop AS/TGS/AP traffic against a \
          sharded KDC pool and write the ablation suite (credential cache \
          on/off, shard sweep, fast-path timing cells) to BENCH_load.json")
    Term.(
      const print_load $ users $ shards $ kdcs $ active $ requests $ services
      $ seed $ lightweight $ lazy_users $ quick)

(* The campaigns' shared options. *)
let seed_opt default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")

let quick_flag file =
  let doc =
    Printf.sprintf
      "Runtest-sized campaign, run twice: fails unless the two JSON \
       documents are byte-identical, carry every schema key path and, at \
       the committed options, match the recorded digest; no %s."
      file
  in
  Arg.(value & flag & info [ "quick" ] ~doc)

let detect_cmd =
  let opt_int name ~default ~doc =
    Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)
  in
  let users, active, requests, seed = detect_defaults in
  let users = opt_int "users" ~default:users ~doc:"Principals in the realm." in
  let active = opt_int "active" ~default:active ~doc:"Benign clients driving traffic." in
  let requests = opt_int "requests" ~default:requests ~doc:"Requests per benign client." in
  Cmd.v
    (Cmd.info "detect"
       ~doc:
         "Blended attack campaign: hide password guessing, ticket \
          harvesting, authenticator replay and forged tickets inside \
          benign load, score the detection plane against ground truth, \
          and write BENCH_detect.json (exits nonzero unless >= 3 attack \
          classes clear detection rate >= 0.9 at FPR <= 0.01)")
    Term.(
      const print_detect $ users $ active $ requests $ seed_opt seed
      $ quick_flag "BENCH_detect.json")

let replicate_cmd =
  Cmd.v
    (Cmd.info "replicate"
       ~doc:
         "One service goes viral: same-seed calm / primary-only / \
          replicated runs of a TGS read spike against WAL-shipped read \
          replicas, with a replica crash + rejoin mid-storm; writes \
          BENCH_replication.json and exits nonzero unless p99 stays flat, \
          the pool balances, and the replicas converge")
    Term.(
      const print_replicate
      $ seed_opt (Int64.to_int Workloads.Loadgen.default_viral.v_base.seed)
      $ quick_flag "BENCH_replication.json")

let overload_cmd =
  Cmd.v
    (Cmd.info "overload"
       ~doc:
         "Metastable failure: same-seed calm / naive / controlled runs of \
          a login storm against the KDC pool. Naive fixed-retry clients \
          push goodput into a collapse that outlives the spike; admission \
          control + retry budgets + circuit breakers + retry-after + \
          deadlines recover it within bounded sim-seconds; writes \
          BENCH_overload.json and exits nonzero unless the floors hold")
    Term.(
      const print_overload
      $ seed_opt (Int64.to_int Workloads.Loadgen.default_overload.o_base.seed)
      $ quick_flag "BENCH_overload.json")

let () =
  let default = Term.(const run_all $ const ()) in
  let info =
    Cmd.info "experiments"
      ~doc:
        "Reproduce the experiments from 'Limitations of the Kerberos \
         Authentication System' (Bellovin & Merritt, 1991)"
  in
  let cmds =
    [ cmd_of "matrix" "attack x profile matrix" print_matrix;
      cmd_of "e1" "replay window sweep" print_e1;
      cmd_of "e3" "password crack sweep" print_e3;
      cmd_of "e13" "discrete log sweep" print_e13;
      cmd_of "e14" "protocol overheads" print_e14;
      cmd_of "e15" "encryption box invariants" print_e15;
      cmd_of "validation" "message-confusion matrices" print_validation;
      cmd_of "opsview" "operator view of the attacks" print_opsview;
      chaos_cmd;
      session_fuzz_cmd;
      recovery_cmd;
      load_cmd;
      detect_cmd;
      replicate_cmd;
      overload_cmd;
      cmd_of "all" "run everything" run_all ]
  in
  let names = List.map Cmd.name cmds in
  let catalog = List.map fst Expframework.Catalog.experiments_subcommands in
  if names <> catalog then begin
    prerr_endline
      "experiments: subcommand list diverges from Expframework.Catalog \
       (update lib/expframework/catalog.ml and the docs)";
    exit 2
  end;
  exit (Cmd.eval (Cmd.group ~default info cmds))
