(** Property-based session fuzzing, and the chaos drill as one of its
    schemes.

    A {e scheme} is a generated program: a randomized path MTU, an
    optional {e asymmetric} reply-direction link MTU (server ->
    workstation only, banded low enough to clip even the
    RESPONSE-TOO-BIG refusal, so the Garbled-retry arm of the transport
    fallback gets real coverage), optional background fault noise,
    optional chaos weather (a seeded {!Sim.Faults.random_schedule} with
    the master KDC as its crash-or-partition victim), and 5-25
    operations — sealed reads (small, and deliberately larger than
    any MTU), KDC and application-server crash/heal pairs, partitions of
    the master KDC, workstation clock steps, and mid-run global MTU
    changes (shrink under an open channel, or lift the constraint so
    later exchanges re-upgrade to datagrams). {!run_scheme} executes one scheme against the
    quickstart realm on a fresh engine and reports everything the
    invariants need; {!violations} checks them:

    - no authenticator is accepted twice and no forged one ever — the
      server never holds more sessions than honest AP exchanges started;
    - a session established under a mismatched key never completes — a
      successful sealed read is byte-exact, whichever transport
      (datagram or stream fallback) carried it;
    - every client call terminates in a reply, a typed error, or a
      timeout — no continuation is left unsettled;
    - the engine drains and no telemetry span leaks;
    - no exception escapes the engine: one that does is reported as the
      run's violation ("simulation aborted"), not raised.

    {!deterministic} re-runs a scheme and compares full telemetry traces
    byte-for-byte. {!shrink} minimizes a failing scheme by greedy op
    deletion. {!mutation_caught} plants a real bug (no replay cache +
    every datagram to the server duplicated) and confirms the invariant
    checker flags it — the test of the tester. *)

type op =
  | Read of { who : int; at : float; big : bool }
  | Crash_kdc of { at : float; back : float }
  | Crash_ap of { at : float; back : float }
  | Partition of { at : float; dur : float }
  | Clock_step of { who : int; at : float; delta : float }
  | Mtu_change of { at : float; mtu : int option }

type scheme = {
  sc_seed : int64;
  sc_mtu : int option;
  sc_reply_mtu : int option;
  sc_noise : bool;
  sc_weather : bool;  (** chaos weather, drawn from [sc_seed] *)
  sc_ops : op list;
}

val gen_scheme : Util.Rng.t -> scheme
(** About a third of generated schemes carry noise, and independently
    about a third carry chaos weather. *)

val chaos : int64 -> scheme
(** The chaos drill: chaos weather from the fault seed, one small read
    per workstation 0.3 s apart, a clock step on workstation 0 inside
    the skew window, and the file server crashing at 6 s and restarting
    at 8 s with its replay cache restored from disk. *)

val scheme_to_string : scheme -> string

type read_report = {
  rr_op : int;
  rr_big : bool;
  rr_outcome : (string, string) result option;
}

type report = {
  r_scheme : scheme;
  r_reads : read_report list;
  r_ap_attempts : int;
  r_sessions : int;
  r_replay_hits : int;
  r_fallbacks : int;
  r_trunc_fallbacks : int;
  r_truncated : int;
  r_packets : int;
  r_faults : (string * int) list;  (** faults injected, by kind *)
  r_aborted : string option;
      (** the exception that escaped the engine, if one did *)
  r_pending_after : int;
  r_open_spans : int;
  r_sim_seconds : float;
  r_trace : string;
}

val run_scheme : ?mutate:bool -> scheme -> report
(** [mutate] plants the replay-cache bug for {!mutation_caught}. *)

val violations : report -> string list
(** Empty iff every invariant held. *)

val summary : report -> string
(** Multi-line transcript block for one run: faults injected, the file
    server's sessions, each read's outcome and the verdict. *)

val deterministic : scheme -> bool
val shrink : scheme -> scheme
val mutation_caught : unit -> bool

type campaign = {
  c_seed : int64;
  c_schedules : int;
  c_weather : int;  (** schemes that ran under chaos weather *)
  c_reads : int;
  c_read_oks : int;
  c_fallbacks : int;
  c_trunc_fallbacks : int;
  c_truncated : int;
  c_det_checks : int;
  c_det_failures : int;
  c_failures : (scheme * string list) list;
}

val campaign : ?schedules:int -> ?det_every:int -> seed:int64 -> unit -> campaign
val campaign_summary : campaign -> string
val ok : campaign -> bool
(** No invariant violations and no determinism mismatches. *)
