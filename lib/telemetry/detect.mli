(** The detection plane: online anomaly rules over the hook events the
    KDC and AP servers feed through the collector's {!Collector.set_sink}
    tap (and, in full-telemetry runs, into the trace ring).

    The paper's attacks are invisible to an operator who only sees
    aggregate counts: a dictionary mill is just "more AS traffic", a
    harvested AS_REP is one quiet request, a forged ticket arrives at the
    AP server already sealed. This module watches the per-event stream
    instead: it learns per-source and per-principal EWMA rate baselines
    during a benign warm-up window, then scores online rules — AS_REQ
    bursts against baseline, repeated preauth-failure runs (guessing),
    the harvest signature (many distinct principals asked, no follow-up
    TGS/AP activity), replay-cache hits, and ticket-shape anomalies
    (lifetime above realm policy, address-free tickets, checksum
    failures). A scorer compares fired alerts against ground-truth labels
    from {!Workloads.Attack_mix} and reports detection rate,
    false-positive rate, and time-to-detect per attack class.

    Subjects are strings with a kind prefix: ["src:10.9.0.1"] or
    ["principal:u00017"]. Everything is deterministic: same event stream,
    same alerts, same JSON bytes. *)

(** Rule thresholds and the learning schedule. *)
type policy = {
  warmup : float;
      (** seconds after the first observed event before any rule may
          fire; baselines learn throughout *)
  epoch : float;  (** rate-bucket width in simulated seconds *)
  ewma_alpha : float;  (** weight of the newest epoch in the baseline *)
  burst_factor : float;
      (** alert when an epoch's AS_REQ count exceeds this multiple of the
          subject's baseline (floored at 1/epoch) *)
  burst_floor : int;  (** …and is at least this many requests *)
  preauth_run : int;  (** consecutive preauth failures per source *)
  harvest_min_clients : int;
      (** distinct client principals one source must ask about *)
  harvest_max_followups : int;
      (** TGS/AP requests tolerated before the source stops looking like
          a pure harvester *)
  replay_min_hits : int;  (** replay-cache hits per source *)
  checksum_min_hits : int;
      (** bad-checksum/integrity AP outcomes per source (2 by default:
          one corrupt frame could be line noise) *)
  max_lifetime : float;  (** realm policy: longest legitimate lifetime *)
  expect_addr : bool;
      (** whether the realm binds tickets to addresses — if so, an
          address-free ticket at an AP server is itself an anomaly *)
  score_threshold : float;  (** alerts scoring below this are dropped *)
}

val default_policy : policy

type alert = {
  al_time : float;  (** first firing — the detection timestamp *)
  al_rule : string;
      (** "as-burst" | "preauth-run" | "harvest" | "replay" |
          "addr-anomaly" | "forged-ticket" | "checksum-anomaly" *)
  al_subject : string;
  mutable al_score : float;  (** max over firings, in [0, 1] *)
  mutable al_count : int;  (** firings folded into this alert *)
  al_evidence : string;
}

type t

val create : ?policy:policy -> unit -> t
val policy : t -> policy

val observe : t -> Trace.event -> unit
(** Feed one event. Kinds consumed: [auth.as_req], [auth.tgs_req],
    [auth.ap_req] (attrs [src]/[client]/[outcome]), [ticket.validated]
    (attrs [src]/[lifetime]/[addr]), [ticket.issued]; everything else is
    ignored, so the detector can sit directly on a collector sink. *)

val attach : t -> Collector.t -> unit
(** [Collector.set_sink c (Some (observe t))] — the detector sees every
    hook event even when the collector runs lightweight. *)

val observed : t -> int
(** Events consumed (known kinds only). *)

val baseline : t -> subject:string -> float
(** Learned EWMA rate (requests per epoch) for ["src:…"] or
    ["principal:…"]; 0 for a subject never seen — a zero-traffic
    principal has a zero baseline, so its first burst still trips the
    absolute floor. *)

val alerts : t -> alert list
(** Unique (rule, subject) alerts in first-firing order. *)

val alert_count : t -> int

val first_alert : t -> subject:string -> rules:string list -> alert option
(** Earliest alert on [subject] whose rule is in [rules]. *)

(** {2 Scoring against ground truth} *)

type label = {
  lb_class : string;
      (** "password_guess" | "ticket_harvest" | "replay_auth" |
          "forged_ticket" *)
  lb_subject : string;  (** the subject the detector should flag *)
  lb_start : float;  (** when this attacker began — TTD is measured from here *)
}

type class_score = {
  cs_class : string;
  cs_attackers : int;
  cs_detected : int;
  cs_detection_rate : float;
  cs_benign_flagged : int;
      (** benign subjects flagged by this class's rules *)
  cs_false_positive_rate : float;
  cs_mean_ttd : float;  (** over detected attackers; 0 when none *)
  cs_max_ttd : float;
}

type score = {
  sc_classes : class_score list;  (** in first-label order *)
  sc_benign : int;
  sc_benign_flagged : int;  (** benign subjects flagged by any rule *)
  sc_false_positive_rate : float;
  sc_alerts : int;
}

val score : t -> labels:label list -> benign:string list -> score
(** [labels] carry one entry per attacker subject; [benign] lists
    subjects that should never be flagged (an alert on one is a false
    positive). A labelled attacker counts as detected when any alert on
    its subject matches its class's rules; its time-to-detect is the
    first such alert's time minus [lb_start]. *)

val report : t -> string
(** Operator console: the alert table, most recent last. *)

val policy_to_json : policy -> Json.t
val alerts_to_json : alert list -> Json.t
val score_to_json : score -> Json.t
