(** The load generator: stand up a realm of [n] principals behind a pool
    of KDCs over a sharded database, then drive open-loop AS/TGS/AP
    traffic through the simulator and report throughput and latency from
    the telemetry histograms.

    This is the scale harness the paper's closing sections ask for: a KDC
    must survive "a fairly large user community" whose every login is
    "grist for password-guessing mills", so realm-sized populations have
    to be cheap to stand up and realistic to drive. Everything is seeded;
    the same configuration produces a byte-identical {!report_to_json}.

    The million-user fast path: [lazy_users] materializes principals at
    their first authentication instead of registering the whole realm up
    front (every user is derived from [(seed, index)] alone, so lazy and
    eager populations are byte-identical — see {!Passwords.user_at}), and
    [lightweight] creates the run's collector in counters-and-histograms
    mode ({!Telemetry.Collector.create}'s [~lightweight]). Neither changes a
    single simulated byte; both change what the wall clock sees.

    Every campaign below stands its realm up the same way and draws from
    the seed in one order: the TGS key, each KDC's seed, each service's
    key and AP-server seed, then its clients, wave by wave. A change to
    that order moves every campaign's bytes. *)

type config = {
  users : int;  (** principals in the realm (registered or derivable) *)
  shards : int;  (** {!Kerberos.Kdb} partition count *)
  kdcs : int;  (** pool size: KDCs sharing the one database *)
  services : int;  (** distinct application services *)
  active_clients : int;  (** how many users actually drive traffic *)
  requests_per_client : int;
  think_time : float;  (** simulated seconds between a client's requests *)
  ramp : float;  (** client start times are spread over this window *)
  ccache : bool;  (** clients reuse unexpired service tickets *)
  zipf_exponent : float;  (** service-popularity skew (1.0 = classic Zipf) *)
  seed : int64;
  profile : Kerberos.Profile.t;
  lifetime : float;  (** ticket lifetime the KDCs issue *)
  lightweight : bool;  (** counters/histograms only — no trace machinery *)
  lazy_users : bool;  (** materialize principals at first authentication *)
}

val default : config
(** 1000 users, 2 shards, a pool of 2 KDCs, 10 services, 200 active
    clients sending 150 requests each, credential cache on, eager
    population, full telemetry. *)

(** Latency percentiles, estimated from the fixed-bucket telemetry
    histograms by linear interpolation inside the quantile's bucket and
    clamped to the observed min/max ({!Telemetry.Metrics.quantile}), in
    simulated seconds. *)
type percentiles = { p50 : float; p90 : float; p99 : float }

type report = {
  r_config : config;
  sim_seconds : float;  (** simulated time when the event queue drained *)
  completed : int;  (** requests that finished the full TGS→AP→priv chain *)
  errors : int;
  as_requests : int;  (** AS exchanges served by the pool *)
  tgs_requests : int;  (** TGS exchanges served by the pool *)
  ap_exchanges : int;
  ccache_hits : int;
  ccache_misses : int;
  as_latency : percentiles;
  tgs_latency : percentiles;
  ap_latency : percentiles;
  shard_lookups : int array;  (** per-shard database accesses *)
  shard_entries : int array;  (** per-shard registered principals *)
  throughput : float;  (** completed requests per simulated second *)
  span_breakdown : (string * int * float) list;
      (** Per-span (name, count, total simulated seconds), largest first —
          where the run's simulated time went. Deterministic: durations
          are sim-time, not wall time. *)
}

(** Where the run's {e wall-clock} time went — the non-deterministic
    companion to the report. [events] is {!Sim.Engine.executed};
    [events_per_second] is the load plane's headline
    [sim_events_per_wall_second]. *)
type timing = {
  setup_seconds : float;
      (** world building: hosts, database, and each client's draws and
          start event. A client itself is built when it starts, so its
          construction is in [run_seconds]. *)
  run_seconds : float;  (** draining the event queue *)
  events : int;
  events_per_second : float;
}

val run : config -> report
(** Build the world, drive the traffic, drain the engine. Uses a private
    telemetry collector, so concurrent harnesses do not pollute each
    other. @raise Invalid_argument on a non-positive population or pool. *)

val run_timed :
  ?on_world:(Attack_mix.world -> Telemetry.Collector.t -> unit) ->
  config ->
  report * timing
(** {!run}, plus where the wall-clock went. The report half is exactly
    {!run}'s (byte-identical for a fixed config); the timing half is
    whatever this machine did this time. [on_world] is called once, before
    the engine runs: it sees the realm and every client's scheduled
    start, but no client yet, since each is built when it starts. The
    campaign runner uses it to attach a detector to the run's collector
    and let {!Attack_mix.inject} schedule the attack plane. *)

val report_to_json : report -> Telemetry.Json.t
(** Deterministic: same [config] ⇒ byte-identical
    [Telemetry.Json.to_string]. Wall-clock timings deliberately live
    outside this object ({!timing_to_json} / the suite's timing rows). *)

val timing_to_json : timing -> Telemetry.Json.t

(** {2 The blended attack campaign}

    What [experiments detect] runs and [BENCH_detect.json] records: the
    benign load with an {!Attack_mix.mix} hidden inside it, a
    {!Telemetry.Detect} detector attached to the run's collector, and the
    detector's alerts scored against the mix's ground-truth labels. *)

type campaign = {
  ca_report : report;  (** the benign-plane report, as {!run} would give *)
  ca_timing : timing;
  ca_mix : Attack_mix.mix;
  ca_policy : Telemetry.Detect.policy;
  ca_events : int;  (** hook events the detector consumed *)
  ca_alerts : Telemetry.Detect.alert list;
  ca_labels : Telemetry.Detect.label list;  (** ground truth *)
  ca_score : Telemetry.Detect.score;
}

val run_campaign :
  ?policy:Telemetry.Detect.policy ->
  ?mix:Attack_mix.mix ->
  config ->
  Telemetry.Detect.t * campaign
(** One campaign: build the benign world, hide the mix in it, run, score.
    The default detection policy is {!Telemetry.Detect.default_policy}
    with [max_lifetime]/[expect_addr] taken from what this realm actually
    enforces ([cfg.lifetime], the profile's address binding). The benign
    scoring set is every active client's address and principal, minus
    subjects the mix touched (replay victims, targeted principals). The
    detector is returned alongside for {!Telemetry.Detect.report}. *)

val campaign_to_json : campaign -> Telemetry.Json.t
(** The [BENCH_detect.json] payload: config, mix, policy, benign report,
    labels, alerts, score. No wall-clock numbers — two runs at the same
    seed serialize byte-identically. *)

(** {2 The ablation suite}

    What [experiments load] runs and [BENCH_load.json] records: the
    configured run, the same run with the credential cache off (the
    steady-state TGS-reduction claim), a shard-count sweep at reduced
    traffic (the balance/scaling claim), and the fast-path ablation
    ({!perf_row}): the same reduced configuration timed under the four
    combinations of DES schedule cache × lightweight telemetry. *)

(** One fast-path ablation cell. The reports of all four cells are
    byte-identical by construction (neither knob touches simulated
    state); only the wall-clock {!timing} differs, which is the point. *)
type perf_row = {
  p_label : string;  (** ["baseline"], ["schedule-cache"],
                         ["lightweight-telemetry"], ["fast-path"] *)
  p_schedule_cache : bool;
  p_lightweight : bool;
  p_timing : timing;
}

type suite = {
  main : report;
  main_timing : timing;
  cache_off : report;
  shard_ablation : report list;  (** shard counts 1, 2, 4, … up to [shards] *)
  perf : perf_row list;  (** the fast-path ablation, reduced traffic *)
}

val run_suite : config -> suite

val tgs_reduction : suite -> float
(** TGS requests with the cache off divided by TGS requests with it on —
    the headline ≥10x claim. *)

val fast_path_speedup : suite -> float
(** [events_per_second] of the fast-path cell over the baseline cell —
    the engine-cost claim, measured at identical traffic. 1.0 if either
    cell is missing or degenerate. *)

val shard_balance : report -> float
(** Max over mean of {!report.shard_entries}: 1.0 means FNV-1a spread the
    registered population perfectly evenly; large values mean one shard
    holds the realm. *)

val lookup_balance : report -> float
(** Max over mean of {!report.shard_lookups} — the {e traffic} skew. This
    is legitimately worse than {!shard_balance}: lookups concentrate on a
    handful of hot principals (the TGS's own entry on every presented TGT,
    the most popular services), which hash partitioning cannot spread. *)

val suite_to_json : suite -> Telemetry.Json.t
(** The [BENCH_load.json] payload. The report sections are deterministic
    for a fixed configuration; the [main_timing] and [perf_ablation]
    sections carry wall-clock measurements and are not. *)

(** {2 The "one service goes viral" replication campaign}

    Three runs at one seed against the same world: [calm] (no spike,
    primary-only — the latency baseline), [unreplicated] (a second wave
    of cache-less open-loop clients hammers one service through the
    primary alone) and [replicated] (the same spike against a primary +
    WAL-shipped replica pool with bounded-lag routing, background
    password churn, and a replica crash + rejoin mid-storm). Every run
    routes reads through a {!Replication.t} with the same per-lookup
    service time, so the rows differ only in pool size and traffic. *)

type viral_config = {
  v_base : config;          (** the calm world: population, shards, KDCs *)
  v_replicas : int;         (** pool size in the replicated run *)
  v_service_time : float;   (** simulated cost of one lookup at a unit *)
  v_max_lag : int;          (** bounded-lag eligibility, in WAL records *)
  v_ship_every : float;     (** WAL shipping cadence (seconds) *)
  v_spike_at : float;       (** when the service goes viral *)
  v_spike_clients : int;    (** size of the viral wave *)
  v_spike_requests : int;   (** requests per viral client *)
  v_spike_think : float;    (** viral wave think time *)
  v_spike_service : int;    (** which service goes viral *)
  v_churn_every : float;    (** password-change cadence; 0 = no churn *)
  v_crash_replica : bool;   (** crash + rejoin replica 0 mid-spike *)
}

val default_viral : viral_config
(** Runtest-sized: the committed-seed configuration
    [experiments replicate --quick] runs twice, byte-compares and pins
    to a recorded digest. *)

type viral_row = {
  vr_label : string;
  vr_completed : int;
  vr_errors : int;
  vr_as_requests : int;
  vr_tgs_requests : int;
  vr_tgs_latency : percentiles;   (** client-observed, queueing included *)
  vr_shard_lookup_balance : float;(** per-shard skew seen by the primary *)
  vr_unit_reads : (string * int) list; (** reads per serving unit *)
  vr_unit_balance : float;        (** max/mean over serving units *)
  vr_fresh_fallbacks : int;
  vr_stale_fallbacks : int;
  vr_shipped_records : int;
  vr_catchups : int;
  vr_max_lag_seen : int;          (** worst pre-ship lag, WAL records *)
  vr_replica_crashes : int;
  vr_converged : bool;  (** digests + version vectors equal at quiesce *)
  vr_sim_seconds : float;
}

type viral_suite = {
  vs_config : viral_config;
  vs_calm : viral_row;
  vs_unreplicated : viral_row;
  vs_replicated : viral_row;
}

val run_viral : viral_config -> viral_suite
(** @raise Invalid_argument on out-of-range configuration (the user
    population must cover actives + the spike wave + the churn pool, and
    actives + the spike wave must not run past the 63,500 client
    addresses). *)

val viral_overload_ratio : viral_suite -> float
(** Unreplicated-spike p99 TGS latency over calm p99 — how badly the
    viral service melts a primary-only pool. *)

val viral_p99_ratio : viral_suite -> float
(** Replicated-spike p99 over calm p99 — the headline "stays flat"
    number (the floor gates it at <= 1.2). *)

val viral_floor_failures : viral_suite -> string list
(** The gates BENCH_replication.json and [experiments replicate]
    enforce: overload visible unreplicated, flat p99 replicated, unit
    balance <= 1.5, convergence after crash/rejoin. [[]] is a pass. *)

val viral_suite_to_json : viral_suite -> Telemetry.Json.t
(** The [BENCH_replication.json] payload. Fully deterministic at a fixed
    seed — no wall-clock fields — so two runs byte-compare equal. *)

(** {2 The metastable-failure overload campaign}

    Three runs at one seed: [calm] (no spike — the goodput baseline),
    [naive] (a login storm against fixed-retry clients and an unbounded
    KDC queue: goodput collapses and stays collapsed after the spike —
    the metastable failure) and [controlled] (the same storm against the
    full overload plane: KDC admission control with priority classes and
    brownout, client retry budgets, circuit breakers, honored
    retry-after hints and propagated deadlines — goodput dips and
    recovers within bounded sim-seconds). Goodput is calm-client ticket
    completions answered by a live KDC, bucketed into fixed windows. *)

type overload_config = {
  o_base : config;          (** population, KDC pool, calm open-loop load *)
  o_service_time : float;   (** KDC work per request (the admission clock) *)
  o_queue_limit : int;      (** controlled rows: admission queue bound *)
  o_brownout_at : int;      (** controlled rows: expensive-work shed depth *)
  o_suspect_rate : int;     (** controlled rows: per-source demotion rate *)
  o_spike_at : float;       (** when the login storm starts *)
  o_spike_clients : int;
  o_spike_requests : int;   (** logins per spike client *)
  o_spike_think : float;
  o_retries : int;          (** per-address UDP retransmits, every row *)
  o_retry_budget : int;     (** controlled clients: token-bucket capacity *)
  o_breaker_threshold : int;
  o_breaker_cooldown : float;
  o_deadline : float;       (** controlled clients: per-exchange deadline *)
  o_window : float;         (** goodput bucketing (seconds) *)
  o_horizon : float;        (** measurement end (sim-seconds) *)
}

val overload_profile : Kerberos.Profile.t
(** [v5_draft3] with preauth on, so the spike's AS requests carry the
    expensive-work shape brownout sheds first. *)

val default_overload : overload_config
(** Runtest-sized: the committed-seed configuration
    [experiments overload --quick] runs twice, byte-compares and pins to
    a recorded digest. *)

val overload_spike_end : overload_config -> float
(** When the last spike login can have fired — recovery time is measured
    from here. *)

type overload_row = {
  or_label : string;
  or_completed : int;       (** calm requests a KDC answered (goodput) *)
  or_errors : int;
  or_degraded : int;        (** calm requests served from the wallet *)
  or_goodput_baseline : float;  (** calm completions/s before the spike *)
  or_goodput_post : float;      (** mean completions/s after spike end *)
  or_goodput_final : float;     (** mean over the last 5 windows *)
  or_recovery_s : float option;
      (** sim-seconds from spike end to the first window back at >= 90%
          of this row's own baseline; [None] = never within the horizon *)
  or_windows : int list;    (** calm completions per window, in order *)
  or_busy_received : int;   (** summed over every client in the row *)
  or_breaker_trips : int;
  or_budget_exhausted : int;
  or_arrived : int;         (** summed over the KDC pool *)
  or_processed : int;
  or_busy_rejections : int;
  or_brownout_sheds : int;
  or_deadline_sheds : int;
  or_residual_queue : int;  (** still queued at quiesce (0 once drained) *)
  or_silent_drops : int;    (** arrived minus every accounted outcome *)
  or_sim_seconds : float;
}

type overload_suite = {
  os_config : overload_config;
  os_calm : overload_row;
  os_naive : overload_row;
  os_controlled : overload_row;
}

val run_overload : overload_config -> overload_suite
(** @raise Invalid_argument on out-of-range configuration (actives +
    the spike wave must not run past the 63,500 client addresses, the
    spike must start after the baseline window, the horizon must extend
    past the spike, and the calm schedule must outlive the horizon). *)

val overload_floor_failures : overload_suite -> string list
(** The gates BENCH_overload.json and [experiments overload] enforce:
    naive post-spike goodput under half the calm baseline with no
    recovery, controlled recovery within 8 sim-seconds and final goodput
    back at >= 90%, visible shedding, and zero silent drops on every
    row. [[]] is a pass. *)

val overload_suite_to_json : overload_suite -> Telemetry.Json.t
(** The [BENCH_overload.json] payload. Fully deterministic at a fixed
    seed — no wall-clock fields — so two runs byte-compare equal. *)
