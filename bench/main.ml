(* Benchmark harness: one Bechamel test per performance-relevant row of
   EXPERIMENTS.md — cipher and checksum throughput, string-to-key cost (the
   unit of password-guessing work), modular exponentiation at the modulus
   sizes of E13, protocol exchange costs per profile, CRC forgery cost, and
   replay-cache operations. Results are printed as one table (nanoseconds
   per run, from an OLS fit) and persisted to BENCH_crypto.json so the perf
   trajectory is comparable across PRs. The fault-plane gate writes
   BENCH_faults.json and fails the run when the inert plane is over budget.

   With --smoke, every benchmark runs for one iteration on a tiny quota and
   no JSON is written: a compile-and-run guard wired into `dune runtest` so
   bench bit-rot is caught by tier-1. It also checks BENCH_faults.json's
   schema on the gate's object. *)

open Bechamel
open Toolkit
open Kerberos

let rng = Util.Rng.create 0xBE4CL

(* --- crypto primitives --- *)

let des_key = Crypto.Des.random_key rng
let sched = Crypto.Des.schedule des_key
let block8 = Util.Rng.bytes rng 8
let buf1k = Util.Rng.bytes rng 1024
let iv = Util.Rng.bytes rng 8

let t_des_block =
  Test.make ~name:"des/encrypt-block" (Staged.stage (fun () -> Crypto.Des.encrypt_block sched block8))

let t_ecb_1k =
  Test.make ~name:"des/ecb-1KiB" (Staged.stage (fun () -> Crypto.Mode.ecb_encrypt sched buf1k))

let t_cbc_1k =
  Test.make ~name:"des/cbc-1KiB" (Staged.stage (fun () -> Crypto.Mode.cbc_encrypt sched ~iv buf1k))

let t_pcbc_1k =
  Test.make ~name:"des/pcbc-1KiB" (Staged.stage (fun () -> Crypto.Mode.pcbc_encrypt sched ~iv buf1k))

let t_md4_1k =
  Test.make ~name:"checksum/md4-1KiB" (Staged.stage (fun () -> Crypto.Md4.digest buf1k))

let t_crc_1k =
  Test.make ~name:"checksum/crc32-1KiB" (Staged.stage (fun () -> Crypto.Crc32.bytes_digest buf1k))

let t_crc_forge =
  Test.make ~name:"checksum/crc32-forge"
    (Staged.stage (fun () -> Crypto.Crc32.forge ~prefix:buf1k ~target:0xDEADBEEF))

let t_str2key =
  Test.make ~name:"password/string-to-key"
    (Staged.stage (fun () -> Crypto.Str2key.derive "candidate.password7"))

(* The attacker's unit of work: derive a key and test it against a recorded
   AS_REP (one dictionary entry). *)
let guess_target =
  let key = Crypto.Str2key.derive "the.real.password" in
  let body =
    { Messages.b_session_key = Crypto.Des.random_key rng; b_nonce = 7L;
      b_server = Principal.tgs ~realm:"ATHENA"; b_issued_at = 0.0;
      b_lifetime = 3600.0; b_ticket = Bytes.make 48 't' }
  in
  Messages.seal_msg Profile.v4 rng ~key ~tag:Messages.tag_as_rep_body
    (Messages.rep_body_to_value ~tag:Messages.tag_as_rep_body body)

let t_guess =
  Test.make ~name:"password/test-one-guess"
    (Staged.stage (fun () ->
         Attacks.Password_guess.try_crack ~profile:Profile.v4
           ~candidates:[ "wrong.guess" ] ~sealed:guess_target ()))

(* --- modular exponentiation (E13b) --- *)

let modexp_test bits =
  let grp = Crypto.Dh.group ~bits in
  let e = Crypto.Bignum.random_below rng grp.Crypto.Dh.p in
  Test.make ~name:(Printf.sprintf "dh/modexp-%db" bits)
    (Staged.stage (fun () ->
         Crypto.Bignum.mod_pow ~base:grp.Crypto.Dh.g ~exp:e ~modulus:grp.Crypto.Dh.p))

let t_modexp_31 = modexp_test 31
let t_modexp_127 = modexp_test 127
let t_modexp_521 = modexp_test 521

(* --- replay cache --- *)

(* At steady state: the clock advances by a [live]th of the horizon per
   insert, so from the [live]th insert on one entry expires for every one
   that arrives and the cache stays at [live] entries however many runs
   the fit asks for. The warm-up fills it before the first timed run. *)
let t_cache =
  let horizon = 600.0 and live = 1024 in
  let cache = Replay_cache.create ~horizon () in
  let n = ref 0 in
  let insert () =
    incr n;
    Replay_cache.check_and_insert cache
      ~now:(float_of_int !n *. horizon /. float_of_int live)
      (Bytes.of_string (string_of_int !n))
  in
  for _ = 1 to live do ignore (insert ()) done;
  Test.make ~name:"server/replay-cache-insert" (Staged.stage insert)

(* --- durability: what the WAL costs on the mutation path --- *)

(* add_service with a fixed key isolates the write path (shard, version
   bump, log append) from string-to-key derivation, which would otherwise
   dominate both rows equally. The runs cycle over a fixed set of
   principals, registered once before timing, so every timed call
   re-registers into tables of the same size instead of growing them. *)
let kdb_add_test name ~wal =
  let db = Kdb.create ~shards:16 () in
  if wal then Kdb.enable_durability db;
  let key = Crypto.Des.random_key rng in
  let principals =
    Array.init 1024 (fun i -> Principal.service ~realm:"BENCH" (string_of_int i) ~host:"h")
  in
  Array.iter (fun p -> Kdb.add_service db p ~key) principals;
  let n = ref 0 in
  Test.make ~name:("kdb/" ^ name)
    (Staged.stage (fun () ->
         n := (!n + 1) land 1023;
         Kdb.add_service db principals.(!n) ~key))

let t_kdb_add = kdb_add_test "add-no-wal" ~wal:false
let t_kdb_add_wal = kdb_add_test "add-wal" ~wal:true

(* --- whole protocol exchanges per profile (simulated end-to-end) --- *)

let full_session ?(prepare = fun (_ : Attacks.Testbed.t) -> ())
    (profile : Profile.t) =
  let bed = Attacks.Testbed.make ~profile () in
  prepare bed;
  let ok = ref false in
  Client.login bed.victim ~password:bed.victim_password (fun r ->
      ignore (Attacks.Testbed.expect "login" r);
      Client.get_ticket bed.victim ~service:bed.file_principal (fun r ->
          let creds = Attacks.Testbed.expect "ticket" r in
          Client.ap_exchange bed.victim creds
            ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:bed.file_port
            (fun r ->
              let chan = Attacks.Testbed.expect "ap" r in
              Client.call_priv bed.victim chan (Bytes.of_string "LIST")
                ~k:(fun r ->
                  ignore (Attacks.Testbed.expect "priv" r);
                  ok := true))));
  Attacks.Testbed.run bed;
  assert !ok

let session_test (profile : Profile.t) =
  Test.make ~name:("protocol/full-session-" ^ profile.Profile.name)
    (Staged.stage (fun () -> full_session profile))

let t_session_v4 = session_test Profile.v4
let t_session_v5 = session_test Profile.v5_draft3
let t_session_hardened = session_test Profile.hardened

(* --- fault plane: the disabled plane must be free --- *)

let t_faults_none =
  Test.make ~name:"fault-plane/session-no-plane"
    (Staged.stage (fun () -> full_session Profile.v4))

let t_faults_inert =
  Test.make ~name:"fault-plane/session-inert-plane"
    (Staged.stage (fun () ->
         full_session Profile.v4 ~prepare:(fun bed ->
             Sim.Net.attach_faults bed.Attacks.Testbed.net (Sim.Faults.create ()))))

let t_faults_jitter =
  Test.make ~name:"fault-plane/session-jitter-plane"
    (Staged.stage (fun () ->
         full_session Profile.v4 ~prepare:(fun bed ->
             let plane = Sim.Faults.create () in
             Sim.Faults.add_jitter plane ~max_delay:0.002 ();
             Sim.Net.attach_faults bed.Attacks.Testbed.net plane)))

(* The inert plane's overhead is the difference of two fits, and one pair
   of fits moves by several times the 1 % budget from run to run. So the
   gate fits the two sessions [fault_fits] times under {!verdict}'s rule.
   The jitter row, fitted once, shows what a plane that fires costs, for
   scale. *)
let fault_fits = 7
let fault_budget_pct = 1.0
let faults_json_path = "BENCH_faults.json"

(* (name, ns per run, r^2) of every benchmark in [test], sorted by name:
   the OLS fit of monotonic clock against iteration count. *)
let fits cfg test =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  Hashtbl.fold
    (fun name ols acc ->
      let ns = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      (name, ns, r2) :: acc)
    (Analyze.all ols Instance.monotonic_clock raw)
    []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let fit cfg test = match fits cfg test with [ (_, ns, _) ] -> ns | _ -> nan

(* Median and interquartile range, quantiles interpolated between ranks. *)
let median_iqr xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let q p =
    let pos = p *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < Array.length a then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)
  in
  (q 0.5, q 0.75 -. q 0.25)

type overhead = {
  base : float;  (* median of the [base] measurements *)
  base_iqr : float;
  cand : float;  (* median of the [cand] measurements *)
  cand_iqr : float;
  pct : float;  (* median per-pair overhead of [cand] over [base], % *)
  iqr : float;  (* its interquartile range, percentage points *)
}

(* What [cand] costs over [base] when one pair of timings moves by more
   than the difference sought: [pairs] rounds, [base] measured first in
   even rounds and second in odd ones, and each round's overhead taken,
   so drift over the run hits both sides alike. *)
let paired ~pairs base cand =
  let round i =
    if i mod 2 = 0 then
      let b = base () in
      (b, cand ())
    else
      let c = cand () in
      (base (), c)
  in
  let rounds = List.init pairs round in
  let base, base_iqr = median_iqr (List.map fst rounds) in
  let cand, cand_iqr = median_iqr (List.map snd rounds) in
  let pct, iqr = median_iqr (List.map (fun (b, c) -> (c -. b) /. b *. 100.0) rounds) in
  { base; base_iqr; cand; cand_iqr; pct; iqr }

type verdict = Within | Over | Unresolved

(* A paired overhead held to [budget_pct] with its spread beside it: over
   budget only when median - IQR exceeds it, within it when median + IQR
   does not, and unresolved at this noise level in between. Only [Over]
   fails a gate. *)
let verdict ~budget_pct o =
  if o.pct -. o.iqr > budget_pct then Over
  else if o.pct +. o.iqr <= budget_pct then Within
  else Unresolved

let verdict_text = function
  | Within -> "within budget"
  | Over -> "over budget"
  | Unresolved -> "unresolved at this noise level"

let fault_gate cfg =
  let o =
    paired ~pairs:fault_fits
      (fun () -> fit cfg t_faults_none)
      (fun () -> fit cfg t_faults_inert)
  in
  let v = verdict ~budget_pct:fault_budget_pct o in
  let json =
    Telemetry.Json.(
      Obj
        [ ("fits", Int fault_fits);
          ("session_no_plane_ns", Float o.base);
          ("session_inert_plane_ns", Float o.cand);
          ("session_jitter_plane_ns", Float (fit cfg t_faults_jitter));
          ("overhead_disabled_pct", Float o.pct);
          ("overhead_disabled_iqr_pct", Float o.iqr);
          ("overhead_budget_pct", Float fault_budget_pct);
          ("verdict", Str (verdict_text v)) ])
  in
  (o, v, json)

(* Exit 1 from [guard] unless [text] parses as JSON carrying every key
   path (as {!Telemetry.Json.path} reads them). *)
let check_schema guard file text paths =
  let lost =
    match Telemetry.Json.of_string text with
    | Ok j -> Telemetry.Json.missing j paths
    | Error e -> [ "everything (" ^ e ^ ")" ]
  in
  if lost <> [] then begin
    List.iter (Printf.eprintf "%s: %s schema lost %s\n" guard file) lost;
    exit 1
  end

(* --- ablations: the cost of each recommended login mechanism, and of the
   two AP-exchange styles, measured as one whole simulated exchange --- *)

let login_test name (profile : Profile.t) =
  Test.make ~name:("login/" ^ name)
    (Staged.stage (fun () ->
         let bed = Attacks.Testbed.make ~profile () in
         let ok = ref false in
         Client.login bed.victim ~password:bed.victim_password (fun r ->
             ok := Result.is_ok r);
         Attacks.Testbed.run bed;
         assert !ok))

let t_login_password = login_test "password" Profile.v4

let t_login_preauth =
  login_test "password+preauth" { Profile.v4 with Profile.name = "v4p"; preauth = true }

let t_login_handheld =
  login_test "handheld"
    { Profile.v4 with Profile.name = "v4h"; login = Profile.Handheld_challenge }

let t_login_dh61 =
  login_test "dh-61bit"
    { Profile.v4 with Profile.name = "v4d61"; login = Profile.Dh_protected; dh_group_bits = 61 }

let t_login_dh127 =
  login_test "dh-127bit"
    { Profile.v4 with Profile.name = "v4d127"; login = Profile.Dh_protected; dh_group_bits = 127 }

let t_login_full_hardened = login_test "handheld+dh+preauth" Profile.hardened

let ap_test name (profile : Profile.t) =
  Test.make ~name:("ap-exchange/" ^ name)
    (Staged.stage (fun () ->
         (* Login + ticket once per run is unavoidable in a fresh bed; the
            relative difference between the two rows is the AP cost. *)
         let bed = Attacks.Testbed.make ~profile () in
         let ok = ref false in
         Client.login bed.victim ~password:bed.victim_password (fun r ->
             ignore (Attacks.Testbed.expect "login" r);
             Client.get_ticket bed.victim ~service:bed.file_principal (fun r ->
                 let creds = Attacks.Testbed.expect "ticket" r in
                 Client.ap_exchange bed.victim creds
                   ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:bed.file_port
                   (fun r -> ok := Result.is_ok r)));
         Attacks.Testbed.run bed;
         assert !ok))

let t_ap_timestamp = ap_test "timestamp" Profile.v4

let t_ap_cache =
  ap_test "timestamp+cache"
    { Profile.v4 with
      Profile.name = "v4c";
      ap_auth = Profile.Timestamp { skew = 300.0; replay_cache = true } }

let t_ap_challenge =
  ap_test "challenge-response"
    { Profile.v4 with Profile.name = "v4cr"; ap_auth = Profile.Challenge_response }

(* --- load smoke: BENCH_load.json schema guard --- *)

(* With --load-smoke, run the loadgen ablation suite at reduced traffic
   (1k users, but far fewer requests than `experiments load`) and check
   the parsed suite for every key path EXPERIMENTS.md tells operators to
   read. A schema drift in Loadgen then fails `dune runtest` instead of
   silently breaking downstream consumers of BENCH_load.json. *)
let load_light_pairs = 11
let load_light_budget_pct = 25.0

let load_smoke () =
  let module L = Workloads.Loadgen in
  let cfg = { L.default with L.active_clients = 50; requests_per_client = 20 } in
  let suite = L.run_suite cfg in
  let report =
    [ "config.lazy_users"; "sim_seconds"; "completed"; "errors"; "as_requests";
      "tgs_requests"; "ap_exchanges"; "ccache_hits"; "ccache_misses";
      "as_latency.p50"; "tgs_latency.p90"; "ap_latency.p99"; "shard_lookups.0";
      "shard_entries.0"; "shard_balance"; "lookup_balance";
      "throughput_per_sim_second"; "span_breakdown.0.sim_seconds" ]
  in
  let timing =
    [ "setup_seconds"; "run_seconds"; "sim_events"; "sim_events_per_wall_second" ]
  in
  let prefixed p = List.map (fun k -> p ^ "." ^ k) in
  let paths =
    [ "tgs_reduction_factor"; "perf_ablation.0.schedule_cache";
      "perf_ablation.0.lightweight"; "fast_path_speedup" ]
    @ prefixed "main" report @ prefixed "cache_off" report
    @ prefixed "shard_ablation.0" report @ prefixed "main_timing" timing
    @ prefixed "perf_ablation.0.timing" timing
  in
  check_schema "load smoke" "BENCH_load.json"
    (Telemetry.Json.to_string (L.suite_to_json suite)) paths;
  let r = suite.L.main in
  assert (r.L.completed > 0);
  assert (r.L.errors = 0);
  assert (L.tgs_reduction suite > 1.0);
  assert (suite.L.main_timing.L.events > 0);
  (* Lightweight telemetry must change nothing the report sees — same
     simulated world, same counts, same histograms — and must not cost
     more than the full collector it strips down. The claim is "inert",
     not "faster on every tiny run", so the budget is 25 % under the
     alternating-pairs rule ({!paired}, {!verdict}). *)
  let light = { cfg with L.lightweight = true } in
  let masked = { (L.run light) with L.r_config = cfg } in
  if
    not
      (String.equal
         (Telemetry.Json.to_string (L.report_to_json r))
         (Telemetry.Json.to_string (L.report_to_json masked)))
  then (
    Printf.eprintf
      "load smoke: lightweight telemetry changed the report — it must be \
       observationally inert\n";
    exit 1);
  let run_seconds c () = (snd (L.run_timed c)).L.run_seconds in
  let o = paired ~pairs:load_light_pairs (run_seconds cfg) (run_seconds light) in
  let v = verdict ~budget_pct:load_light_budget_pct o in
  Printf.printf
    "load smoke: suite ran (%d completed, tgs reduction %.1fx, fast-path \
     speedup %.2fx), schema has all %d key paths, reports identical; \
     lightweight vs full %+.1f%% median (IQR %.1f) over %d pairs: %s at %.0f%%\n"
    r.L.completed (L.tgs_reduction suite) (L.fast_path_speedup suite)
    (List.length paths) o.pct o.iqr load_light_pairs (verdict_text v)
    load_light_budget_pct;
  if v = Over then exit 1

(* --- recovery smoke: BENCH_recovery.json schema guard --- *)

(* With --recovery-smoke, measure what durability costs where it matters:
   the per-mutation WAL overhead against a WAL-less twin, and the
   checkpoint + WAL-replay recovery time as the log grows. Every timing
   carries its repeat count and spread: the two add paths are timed in
   [recovery_pairs] alternating pairs ({!paired}) and each replay
   [recovery_pairs] times, medians and IQRs recorded. Nothing here is
   held to a budget. The results are persisted to BENCH_recovery.json and
   the schema checked here, so a drift fails `dune runtest` instead of
   breaking downstream readers. *)
let recovery_json_path = "BENCH_recovery.json"
let recovery_pairs = 11
let num v = if Float.is_nan v then "null" else Printf.sprintf "%.6g" v

let recovery_smoke () =
  let key = Util.Rng.bytes (Util.Rng.create 0x52454342L) 8 in
  let adds = 2000 in
  let time_adds ~wal () =
    let db = Kdb.create ~shards:16 () in
    if wal then Kdb.enable_durability db;
    let t0 = Sys.time () in
    for i = 0 to adds - 1 do
      Kdb.add_service db
        (Kerberos.Principal.service ~realm:"BENCH" (string_of_int i) ~host:"h")
        ~key
    done;
    (Sys.time () -. t0) /. float_of_int adds *. 1e9
  in
  let o = paired ~pairs:recovery_pairs (time_adds ~wal:false) (time_adds ~wal:true) in
  let recovery_row records =
    let db = Kdb.create ~shards:16 () in
    Kdb.enable_durability db;
    for i = 0 to records - 1 do
      Kdb.add_service db
        (Kerberos.Principal.service ~realm:"BENCH" (string_of_int i) ~host:"h")
        ~key
    done;
    let checkpoint, wal = Option.get (Kdb.disk_image db) in
    let applied = ref 0 in
    let replay () =
      let t0 = Sys.time () in
      let r = Kdb.recover ~checkpoint ~wal in
      let dt = Sys.time () -. t0 in
      applied := r.Kdb.applied;
      assert (r.Kdb.discarded_bytes = 0);
      dt *. 1e3
    in
    let ms, iqr = median_iqr (List.init recovery_pairs (fun _ -> replay ())) in
    (records, !applied, ms, iqr)
  in
  let rows = List.map recovery_row [ 100; 1000; 5000 ] in
  List.iter
    (fun (records, applied, _, _) ->
      if applied <> records then (
        Printf.eprintf "recovery smoke: %d WAL records but %d applied\n" records
          applied;
        exit 1))
    rows;
  let oc = open_out recovery_json_path in
  Printf.fprintf oc
    "{\n\
    \  \"wal_overhead\": { \"pairs\": %d, \"add_ns_no_wal\": %s, \
     \"add_ns_no_wal_iqr\": %s, \"add_ns_wal\": %s, \"add_ns_wal_iqr\": %s, \
     \"overhead_pct\": %s, \"overhead_iqr_pct\": %s },\n\
    \  \"recovery_time\": [\n%s\n\
    \  ]\n\
     }\n"
    recovery_pairs (num o.base) (num o.base_iqr) (num o.cand) (num o.cand_iqr)
    (num o.pct) (num o.iqr)
    (String.concat ",\n"
       (List.map
          (fun (records, applied, ms, iqr) ->
            Printf.sprintf
              "    { \"wal_records\": %d, \"applied\": %d, \"repeats\": %d, \
               \"replay_ms\": %s, \"replay_iqr_ms\": %s }"
              records applied recovery_pairs (num ms) (num iqr))
          rows));
  close_out oc;
  (* Schema guard over what was actually written. *)
  check_schema "recovery smoke" recovery_json_path
    (In_channel.with_open_bin recovery_json_path In_channel.input_all)
    ([ "wal_overhead.pairs"; "wal_overhead.add_ns_no_wal";
       "wal_overhead.add_ns_no_wal_iqr"; "wal_overhead.add_ns_wal";
       "wal_overhead.add_ns_wal_iqr"; "wal_overhead.overhead_pct";
       "wal_overhead.overhead_iqr_pct" ]
    @ List.concat_map
        (fun i ->
          List.map
            (Printf.sprintf "recovery_time.%d.%s" i)
            [ "wal_records"; "applied"; "repeats"; "replay_ms"; "replay_iqr_ms" ])
        [ 0; 1; 2 ]);
  Printf.printf
    "recovery smoke: add %.0f -> %.0f ns/mutation with WAL (%+.1f%% median, \
     IQR %.1f, %d pairs), replay of %d-record log %.2f ms (median of %d); \
     schema intact\n"
    o.base o.cand o.pct o.iqr recovery_pairs
    (match List.rev rows with (r, _, _, _) :: _ -> r | [] -> 0)
    (match List.rev rows with (_, _, ms, _) :: _ -> ms | [] -> 0.0)
    recovery_pairs

(* --- transport smoke: UDP vs TCP-fallback latency, BENCH_transport.json --- *)

(* With --transport-smoke, run a fixed login->TGS->AP->sealed-read
   workload twice over: once with no MTU (every exchange rides a single
   datagram) and once with the path MTU pinned below the largest AS/TGS
   reply (every exchange is forced through the RESPONSE-TOO-BIG -> framed
   TCP fallback). Both runs must complete every exchange; the sim-time
   latency rows quantify what the fallback costs. The constrained run is
   repeated at the same seed and its serialized row must be
   byte-identical. Finally the armed-but-never-firing MTU check must not
   be over a 1 % wall budget against the unconfigured network, in the
   median of 21 alternating pairs less their IQR ({!verdict}), so the
   MTU model stays free when unused. *)
let transport_json_path = "BENCH_transport.json"
let transport_inert_pairs = 21
let transport_inert_budget_pct = 1.0

type transport_row = {
  tw_reads : int;
  tw_completed : int;
  tw_p50_ms : float;  (** sim milliseconds per full pipeline *)
  tw_max_ms : float;
  tw_udp_calls : int;
  tw_tcp_calls : int;
  tw_fallbacks : int;
  tw_rtb : int;  (** of which RESPONSE-TOO-BIG refusals *)
  tw_truncated : int;
  tw_packets : int;
  tw_wall_s : float;
}

let transport_workload ?mtu ~clients ~reads () =
  let wall0 = Sys.time () in
  let tel = Telemetry.Collector.fresh_default () in
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create ~seed:0x7E57L ~telemetry:tel eng in
  Sim.Net.set_mtu net mtu;
  let quad = Sim.Addr.of_quad in
  let kdc_host = Sim.Host.create ~name:"kdc" ~ips:[ quad 10 9 0 1 ] () in
  let fs_host = Sim.Host.create ~name:"fs" ~ips:[ quad 10 9 0 2 ] () in
  let ws =
    List.init clients (fun i ->
        Sim.Host.create ~name:(Printf.sprintf "tws%d" i)
          ~ips:[ quad 10 9 1 (1 + i) ] ())
  in
  List.iter (Sim.Net.attach net) (kdc_host :: fs_host :: ws);
  let profile = Profile.v5_draft3 in
  let rng = Util.Rng.create 0x7BE7CL in
  let db = Kdb.create () in
  Kdb.add_service db (Principal.tgs ~realm:"BENCHT") ~key:(Crypto.Des.random_key rng);
  let users =
    List.init clients (fun i ->
        ( Principal.user ~realm:"BENCHT" (Printf.sprintf "u%d" i),
          Printf.sprintf "pw.%d" i ))
  in
  List.iter (fun (p, pw) -> Kdb.add_user db p ~password:pw) users;
  let fileserv = Principal.service ~realm:"BENCHT" "fileserv" ~host:"fs" in
  let fs_key = Crypto.Des.random_key rng in
  Kdb.add_service db fileserv ~key:fs_key;
  let kdc = Kdc.create ~realm:"BENCHT" ~profile ~lifetime:28800.0 db in
  Kdc.install net kdc_host kdc ();
  let fsrv =
    Services.Fileserver.install net fs_host ~profile ~principal:fileserv
      ~key:fs_key ~port:600
  in
  Services.Fileserver.write_file fsrv ~owner:"seed" ~path:"/blob"
    (Bytes.make 1200 'x');
  let kdcs = [ ("BENCHT", Sim.Host.primary_ip kdc_host) ] in
  let lats = ref [] in
  let completed = ref 0 in
  List.iteri
    (fun i host ->
      let who, pw = List.nth users i in
      let c =
        Client.create ~seed:(Int64.of_int (0xB0B + i)) ~password:pw net host
          ~profile ~kdcs who
      in
      let rec pipeline n =
        if n < reads then begin
          let t0 = Sim.Engine.now eng in
          Client.login c ~password:pw (function
            | Error _ -> ()
            | Ok _ ->
                Client.get_ticket c ~service:fileserv (function
                  | Error _ -> ()
                  | Ok creds ->
                      Client.ap_exchange c creds ~deadline:5.0
                        ~dst:(Sim.Host.primary_ip fs_host) ~dport:600 (function
                        | Error _ -> ()
                        | Ok chan ->
                            Client.call_priv c chan ~deadline:5.0
                              (Bytes.of_string "READ /blob") ~k:(function
                              | Error _ -> ()
                              | Ok _ ->
                                  incr completed;
                                  lats := (Sim.Engine.now eng -. t0) :: !lats;
                                  pipeline (n + 1)))))
        end
      in
      Sim.Engine.schedule eng ~at:(0.01 *. float_of_int i) (fun () ->
          pipeline 0))
    ws;
  Sim.Engine.run eng;
  let counter name =
    Telemetry.Metrics.value
      (Telemetry.Metrics.counter (Telemetry.Collector.metrics tel) name)
  in
  let sorted = List.sort compare !lats in
  let nth_ms q =
    match sorted with
    | [] -> nan
    | l ->
        let n = List.length l in
        1000.0 *. List.nth l (min (n - 1) (int_of_float (q *. float_of_int n)))
  in
  { tw_reads = clients * reads;
    tw_completed = !completed;
    tw_p50_ms = nth_ms 0.5;
    tw_max_ms = (match List.rev sorted with [] -> nan | m :: _ -> 1000.0 *. m);
    tw_udp_calls = counter "transport.udp.calls";
    tw_tcp_calls = counter "transport.tcp.calls";
    tw_fallbacks =
      counter "transport.fallback.response_too_big"
      + counter "transport.fallback.request_too_big"
      + counter "transport.fallback.truncation";
    tw_rtb = counter "transport.fallback.response_too_big";
    tw_truncated = counter "net.packets.truncated";
    tw_packets = counter "net.packets.sent";
    tw_wall_s = Sys.time () -. wall0 }

(* The wall clock stays out of the serialized row so the determinism
   comparison is over sim-side bytes only. *)
let transport_row_json r =
  Printf.sprintf
    "{ \"reads\": %d, \"completed\": %d, \"p50_sim_ms\": %s, \"max_sim_ms\": \
     %s, \"udp_calls\": %d, \"tcp_calls\": %d, \"fallbacks\": %d, \
     \"response_too_big\": %d, \"truncated\": %d, \"packets\": %d }"
    r.tw_reads r.tw_completed (num r.tw_p50_ms) (num r.tw_max_ms) r.tw_udp_calls
    r.tw_tcp_calls r.tw_fallbacks r.tw_rtb r.tw_truncated r.tw_packets

let transport_smoke () =
  let clients = 12 and reads = 6 in
  (* 200 sits below the largest AS/TGS reply (between 200 and 230 encoded
     bytes under v5_draft3), so the KDC plane itself must refuse over UDP
     and the client must retry the exchange over the stream — not just the
     AP channel upgrading for the oversized sealed read. *)
  let constrained_mtu = 200 in
  let udp = transport_workload ~clients ~reads () in
  let tcp = transport_workload ~mtu:constrained_mtu ~clients ~reads () in
  let tcp2 = transport_workload ~mtu:constrained_mtu ~clients ~reads () in
  if not (String.equal (transport_row_json tcp) (transport_row_json tcp2)) then begin
    Printf.eprintf
      "transport smoke: two constrained runs at the same seed serialized \
       differently\n";
    exit 1
  end;
  List.iter
    (fun (label, r) ->
      if r.tw_completed <> r.tw_reads then begin
        Printf.eprintf "transport smoke: %s row completed %d/%d exchanges\n"
          label r.tw_completed r.tw_reads;
        exit 1
      end)
    [ ("udp", udp); ("tcp_fallback", tcp) ];
  if tcp.tw_rtb = 0 || tcp.tw_tcp_calls = 0 then begin
    Printf.eprintf
      "transport smoke: MTU %d forced no RESPONSE-TOO-BIG fallbacks \
       (fallbacks=%d, response_too_big=%d, tcp_calls=%d)\n"
      constrained_mtu tcp.tw_fallbacks tcp.tw_rtb tcp.tw_tcp_calls;
    exit 1
  end;
  if udp.tw_fallbacks <> 0 || udp.tw_truncated <> 0 then begin
    Printf.eprintf
      "transport smoke: unconfigured run fell back (%d) or truncated (%d)\n"
      udp.tw_fallbacks udp.tw_truncated;
    exit 1
  end;
  (* Inert-MTU gate: an MTU set above every packet is checked on every
     send and never fires; under the alternating-pairs rule ({!paired},
     {!verdict}) it must not cost more than 1 % wall over the
     unconfigured network. *)
  let wall mtu () = (transport_workload ?mtu ~clients ~reads ()).tw_wall_s in
  let o = paired ~pairs:transport_inert_pairs (wall None) (wall (Some 1_000_000)) in
  let v = verdict ~budget_pct:transport_inert_budget_pct o in
  let json =
    Printf.sprintf
      "{\n  \"udp\": %s,\n  \"tcp_fallback\": %s,\n  \"mtu\": %d,\n  \
       \"inert_overhead\": { \"baseline_s\": %s, \"armed_s\": %s, \"pairs\": \
       %d, \"overhead_pct\": %s, \"overhead_iqr_pct\": %s, \"budget_pct\": \
       %s, \"verdict\": %S }\n}\n"
      (transport_row_json udp) (transport_row_json tcp) constrained_mtu
      (num o.base) (num o.cand) transport_inert_pairs (num o.pct) (num o.iqr)
      (num transport_inert_budget_pct) (verdict_text v)
  in
  let oc = open_out transport_json_path in
  output_string oc json;
  close_out oc;
  check_schema "transport smoke" transport_json_path json
    ([ "mtu"; "inert_overhead.baseline_s"; "inert_overhead.armed_s";
       "inert_overhead.pairs"; "inert_overhead.overhead_pct";
       "inert_overhead.overhead_iqr_pct"; "inert_overhead.budget_pct";
       "inert_overhead.verdict" ]
    @ List.concat_map
        (fun row ->
          List.map (fun k -> row ^ "." ^ k)
            [ "reads"; "completed"; "p50_sim_ms"; "max_sim_ms"; "udp_calls";
              "tcp_calls"; "fallbacks"; "response_too_big"; "truncated";
              "packets" ])
        [ "udp"; "tcp_fallback" ]);
  Printf.printf
    "transport smoke: %d/%d udp exchanges (p50 %.1f sim-ms), %d/%d forced \
     through TCP fallback (p50 %.1f sim-ms, %d fallbacks), constrained row \
     deterministic, schema intact; inert MTU %+.1f%% median (IQR %.1f) over \
     %d pairs: %s at %.0f%%\n"
    udp.tw_completed udp.tw_reads udp.tw_p50_ms tcp.tw_completed tcp.tw_reads
    tcp.tw_p50_ms tcp.tw_fallbacks o.pct o.iqr transport_inert_pairs
    (verdict_text v) transport_inert_budget_pct;
  if v = Over then exit 1

(* --- perfbench digests (--digests SIZE BENCH_EXE EXPECTED_JSON) ---

   Every run of one size that perfbench/expected.json records (three
   workloads at 34 seeds) run once, untraced, by the repository
   benchmark's own binary: each report's digest, completed and error
   counts must be the recorded ones. The 102 toy-size runs take seconds
   and are a runtest rule; the 102 full-size ones take about ten minutes
   on two cores and are run by hand. Every run uses a private copy of
   BENCH_EXE, made before the first and removed at exit, so a build that
   replaces the binary meanwhile cannot mix two trees in one check. *)
let digests size exe expected =
  let module J = Telemetry.Json in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let parse path = Result.to_option (J.of_string (read path)) in
  let exe =
    let image = read exe in
    let dir = Filename.temp_dir "perfbench" "" in
    let copy = Filename.concat dir "bench.exe" in
    at_exit (fun () ->
        if Sys.file_exists copy then Sys.remove copy;
        Sys.rmdir dir);
    Out_channel.with_open_gen
      [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o700 copy (fun oc ->
        Out_channel.output_string oc image);
    copy
  in
  let out = Filename.temp_file "perfbench" ".json" in
  let runs = ref 0 and bad = ref 0 in
  let members = function J.Obj kvs -> kvs | _ -> [] in
  let recorded = Option.bind (parse expected) (J.member size) in
  List.iter
    (fun (workload, seeds) ->
      List.iter
        (fun (seed, want) ->
          incr runs;
          let cmd =
            Filename.quote_command exe ~stdout:out
              ((if size = "toy" then [ "run"; "--toy" ] else [ "run" ])
              @ [ "--workload"; workload; "--seed"; seed ])
          in
          let got = if Sys.command cmd = 0 then parse out else None in
          List.iter
            (fun k ->
              if Option.bind got (J.member k) <> J.member k want then begin
                incr bad;
                Printf.eprintf "digests: %s seed %s: %s differs from the recorded one\n"
                  workload seed k
              end)
            [ "digest"; "completed"; "errors" ])
        (members seeds))
    (Option.fold ~none:[] ~some:members recorded);
  Sys.remove out;
  if !runs = 0 || !bad > 0 then exit 1;
  Printf.printf
    "digests: %d %s-size perfbench runs reproduce their recorded digest, \
     completed and error counts\n"
    !runs size

(* --- docs check (--docs-check) ---

   Lint the documentation plane against Expframework.Catalog: every
   experiments subcommand must be named in EXPERIMENTS.md (as
   `experiments <name>`), every committed BENCH_*.json must be listed in
   the catalog AND carry a `### `<file>`` section in BENCH.md whose first
   `Regenerate: `<command>`` line is the catalog's command, and every
   catalog bench entry must exist on disk. Run from the repo root or as
   a dune rule (where the sources sit one directory up). *)
let docs_check () =
  let root = if Sys.file_exists "EXPERIMENTS.md" then "." else ".." in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let read name =
    let p = Filename.concat root name in
    if Sys.file_exists p then In_channel.with_open_bin p In_channel.input_all
    else (problem "%s missing" name; "")
  in
  let experiments_md = read "EXPERIMENTS.md" in
  let bench_md = String.split_on_char '\n' (read "BENCH.md") in
  let contains hay needle =
    let nl = String.length needle and sl = String.length hay in
    let rec go i = i + nl <= sl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (* The command on the first "Regenerate: `...`" line of [file]'s
     section, if it has one. *)
  let regenerate file =
    let rec section = function
      | [] -> None
      | l :: rest -> if l = Printf.sprintf "### `%s`" file then command rest else section rest
    and command = function
      | [] -> None
      | l :: rest -> (
          if String.starts_with ~prefix:"### " l then None
          else
            match String.split_on_char '`' l with
            | "Regenerate: " :: cmd :: _ -> Some cmd
            | _ -> command rest)
    in
    section bench_md
  in
  List.iter
    (fun (name, _) ->
      if not (contains experiments_md (Printf.sprintf "`experiments %s`" name))
      then
        problem "EXPERIMENTS.md has no section for `experiments %s`" name)
    Expframework.Catalog.experiments_subcommands;
  List.iter
    (fun (file, cmd) ->
      if not (Sys.file_exists (Filename.concat root file)) then
        problem "catalog lists %s but it is not committed" file;
      match regenerate file with
      | Some c when c = cmd -> ()
      | Some c ->
          problem "BENCH.md regenerates %s with `%s`, the catalog with `%s`" file c cmd
      | None -> problem "BENCH.md has no ### `%s` section with a Regenerate: line" file)
    Expframework.Catalog.bench_files;
  Array.iter
    (fun f ->
      if
        String.length f > 6
        && String.sub f 0 6 = "BENCH_"
        && Filename.check_suffix f ".json"
        && not (List.mem_assoc f Expframework.Catalog.bench_files)
      then
        problem "%s is committed but absent from Expframework.Catalog" f)
    (Sys.readdir root);
  match List.rev !problems with
  | [] ->
      Printf.printf
        "docs check: %d experiments subcommands and %d bench files all \
         documented, every Regenerate: line the catalog's command \
         (EXPERIMENTS.md, BENCH.md)\n"
        (List.length Expframework.Catalog.experiments_subcommands)
        (List.length Expframework.Catalog.bench_files)
  | ps ->
      List.iter (fun p -> Printf.eprintf "docs check: %s\n" p) ps;
      exit 1

(* --- harness --- *)

let tests =
  Test.make_grouped ~name:"kerblim"
    [ t_des_block; t_ecb_1k; t_cbc_1k; t_pcbc_1k; t_md4_1k; t_crc_1k; t_crc_forge;
      t_str2key; t_guess; t_modexp_31; t_modexp_127; t_modexp_521; t_cache;
      t_kdb_add; t_kdb_add_wal; t_session_v4; t_session_v5; t_session_hardened;
      t_login_password;
      t_login_preauth; t_login_handheld; t_login_dh61; t_login_dh127;
      t_login_full_hardened; t_ap_timestamp; t_ap_cache; t_ap_challenge ]

let json_path = "BENCH_crypto.json"
let telemetry_json_path = "BENCH_telemetry.json"

(* Hand-rolled serialization: the sealed environment has no JSON library,
   and the schema is one flat object. NaNs (an OLS fit that never
   converged) are encoded as null. *)
let write_json rows =
  let oc = open_out json_path in
  output_string oc "{\n";
  List.iteri
    (fun i (name, ns, r2) ->
      Printf.fprintf oc "  %S: { \"ns_per_run\": %s, \"r_square\": %s }%s\n" name
        (num ns) (num r2)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "}\n";
  close_out oc

let () =
  if Array.exists (( = ) "--load-smoke") Sys.argv then (load_smoke (); exit 0);
  if Array.exists (( = ) "--recovery-smoke") Sys.argv then
    (recovery_smoke (); exit 0);
  if Array.exists (( = ) "--transport-smoke") Sys.argv then
    (transport_smoke (); exit 0);
  if Array.exists (( = ) "--docs-check") Sys.argv then (docs_check (); exit 0);
  if Array.exists (( = ) "--digests") Sys.argv then begin
    match Sys.argv with
    | [| _; "--digests"; ("toy" | "full") as size; exe; expected |] ->
        digests size exe expected;
        exit 0
    | _ ->
        prerr_endline "usage: main.exe --digests toy|full BENCH_EXE EXPECTED_JSON";
        exit 2
  end;
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let cfg =
    if smoke then Benchmark.cfg ~limit:1 ~quota:(Time.second 0.001) ~kde:None ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let rows = fits cfg tests in
  let faults, faults_verdict, faults_json = fault_gate cfg in
  let faults_json = Telemetry.Json.to_string faults_json in
  if smoke then begin
    (* Schema guard for BENCH_faults.json: the gate's object, parsed back. *)
    check_schema "bench smoke" faults_json_path faults_json
      [ "fits"; "session_no_plane_ns"; "session_inert_plane_ns"; "session_jitter_plane_ns";
        "overhead_disabled_pct"; "overhead_disabled_iqr_pct"; "overhead_budget_pct"; "verdict" ];
    Printf.printf
      "bench smoke: %d benchmarks and %d fault-plane fit pairs ran (timings not meaningful)\n"
      (List.length rows) fault_fits
  end
  else begin
    print_endline "Benchmark results (OLS fit of monotonic clock vs. runs):";
    Expframework.Table.print ~header:[ "benchmark"; "time/run"; "r^2" ]
      (List.map
         (fun (name, ns, r2) ->
           let time =
             if Float.is_nan ns then "n/a"
             else if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
             else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
             else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
             else Printf.sprintf "%.1f ns" ns
           in
           [ name; time; Printf.sprintf "%.4f" r2 ])
         rows);
    write_json rows;
    Printf.printf "machine-readable results: %s\n"
      (Filename.concat (Sys.getcwd ()) json_path);
    let oc = open_out faults_json_path in
    output_string oc faults_json;
    output_char oc '\n';
    close_out oc;
    Printf.printf "fault-plane overhead:     %s (inert plane: %+.2f%% median, IQR %.2f)\n"
      (Filename.concat (Sys.getcwd ()) faults_json_path) faults.pct faults.iqr;
    (* Telemetry companion: one traced session per profile, each on its
       own fresh collector, exported as {profile: metrics}. Sharing one
       collector across the three sessions used to re-register every
       KDC/AP metric and export "name#2"/"name#3" duplicates — per-profile
       collectors give each metric exactly one stable key, which the '#'
       guard below enforces. *)
    let profile_metrics =
      List.map
        (fun (p : Profile.t) ->
          let tel = Telemetry.Collector.fresh_default () in
          full_session p;
          (p.Profile.name, Telemetry.Collector.metrics_json tel))
        [ Profile.v4; Profile.v5_draft3; Profile.hardened ]
    in
    ignore (Telemetry.Collector.fresh_default ());
    let telemetry_json =
      Telemetry.Json.to_string (Telemetry.Json.Obj profile_metrics)
    in
    let suffixed = function
      | Telemetry.Json.Obj kvs -> List.exists (fun (k, _) -> String.contains k '#') kvs
      | _ -> false
    in
    if List.exists (fun (_, m) -> suffixed m) profile_metrics then begin
      Printf.eprintf
        "telemetry companion: duplicate metric keys leaked into %s\n"
        telemetry_json_path;
      exit 1
    end;
    let oc = open_out telemetry_json_path in
    output_string oc telemetry_json;
    output_char oc '\n';
    close_out oc;
    Printf.printf "telemetry histograms:     %s\n"
      (Filename.concat (Sys.getcwd ()) telemetry_json_path);
    if faults_verdict = Over then begin
      Printf.eprintf
        "fault-plane gate: inert plane costs %.2f%% (IQR %.2f) over fits, above the \
         %.1f%% budget\n"
        faults.pct faults.iqr fault_budget_pct;
      exit 1
    end
  end
