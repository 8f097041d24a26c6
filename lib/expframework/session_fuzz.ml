open Kerberos

(* Property-based session fuzzing: generate whole operation schedules —
   logins, sealed reads (small and deliberately over-MTU), KDC and
   application-server crash/heal pairs, partitions, clock steps — run
   them against the quickstart realm at a randomized path MTU, under
   optional noise or chaos weather, and check the session invariants on
   every run. The op-scheme pattern (generate a *program*, not a value;
   shrink by deleting ops) is the standard way to fuzz stateful systems.
   The chaos drill is one named scheme, {!chaos}. *)

(* --- Schemes -------------------------------------------------------- *)

type op =
  | Read of { who : int; at : float; big : bool }
      (** full pipeline: login -> ticket -> AP exchange -> sealed READ *)
  | Crash_kdc of { at : float; back : float }  (** master KDC crash/heal *)
  | Crash_ap of { at : float; back : float }
  | Partition of { at : float; dur : float }  (** master cut off *)
  | Clock_step of { who : int; at : float; delta : float }
  | Mtu_change of { at : float; mtu : int option }
      (** mid-run global path-MTU change: shrink under an open channel
          (truncating replies already in flight), or lift the constraint
          so later exchanges can ride datagrams again *)

type scheme = {
  sc_seed : int64;  (** seeds the run's net / faults / client rngs *)
  sc_mtu : int option;  (** path MTU for the whole run; [None] = unlimited *)
  sc_reply_mtu : int option;
      (** asymmetric link MTU on the {e reply} direction only
          (server -> workstation). Deliberately low-banded: small enough
          to clip even a RESPONSE-TOO-BIG refusal, so the client sees
          garbage rather than a typed refusal and must take the
          Garbled-retry arm of the transport fallback. *)
  sc_noise : bool;  (** background loss / duplication / reordering *)
  sc_weather : bool;
      (** chaos weather: a {!Sim.Faults.random_schedule} drawn from
          [sc_seed] — loss, duplication, reordering, corruption, jitter,
          loss bursts — with the master KDC as its crash-or-partition
          victim *)
  sc_ops : op list;
}

let n_clients = 3

let op_to_string = function
  | Read { who; at; big } ->
      Printf.sprintf "read(who=%d at=%.2f %s)" who at
        (if big then "big" else "small")
  | Crash_kdc { at; back } -> Printf.sprintf "crash_kdc(at=%.2f back=%.2f)" at back
  | Crash_ap { at; back } -> Printf.sprintf "crash_ap(at=%.2f back=%.2f)" at back
  | Partition { at; dur } -> Printf.sprintf "partition(at=%.2f dur=%.2f)" at dur
  | Clock_step { who; at; delta } ->
      Printf.sprintf "clock_step(who=%d at=%.2f delta=%+.1f)" who at delta
  | Mtu_change { at; mtu } ->
      Printf.sprintf "mtu_change(at=%.2f mtu=%s)" at
        (match mtu with None -> "none" | Some m -> string_of_int m)

let scheme_to_string sc =
  Printf.sprintf "seed=%Ld mtu=%s reply_mtu=%s noise=%b weather=%b ops=[%s]"
    sc.sc_seed
    (match sc.sc_mtu with None -> "none" | Some m -> string_of_int m)
    (match sc.sc_reply_mtu with None -> "none" | Some m -> string_of_int m)
    sc.sc_noise sc.sc_weather
    (String.concat "; " (List.map op_to_string sc.sc_ops))

let gen_op rng =
  let at = 0.5 +. Util.Rng.float rng 15.0 in
  match Util.Rng.int rng 12 with
  | 0 -> Crash_kdc { at; back = at +. 1.0 +. Util.Rng.float rng 4.0 }
  | 1 -> Crash_ap { at; back = at +. 1.0 +. Util.Rng.float rng 4.0 }
  | 2 -> Partition { at; dur = 1.0 +. Util.Rng.float rng 4.0 }
  | 3 ->
      Clock_step
        { who = Util.Rng.int rng n_clients; at;
          delta = Util.Rng.float rng 120.0 -. 60.0 }
  | 4 ->
      Mtu_change
        { at;
          mtu =
            (if Util.Rng.int rng 4 = 0 then None
             else Some (64 + Util.Rng.int rng 1437)) }
  | _ ->
      Read
        { who = Util.Rng.int rng n_clients; at;
          big = Util.Rng.int rng 3 = 0 }

let gen_scheme rng =
  let n = 5 + Util.Rng.int rng 21 in
  { sc_seed = Util.Rng.next_int64 rng;
    (* A third of runs have no MTU at all (the pre-transport-plane
       world); the rest land anywhere from "everything falls back to
       TCP" to "nothing ever does". *)
    sc_mtu =
      (if Util.Rng.int rng 3 = 0 then None
       else Some (96 + Util.Rng.int rng 1405));
    (* A quarter of runs squeeze the reply direction only, banded 16-63
       bytes to straddle the ~33-byte encoded RESPONSE-TOO-BIG refusal:
       below it even the refusal gets clipped, the client classifies the
       reply as Garbled, and two in a row force the truncation-reason
       TCP fallback — the arm a symmetric MTU can never reach, because
       there the refusal always fits; above it the same squeeze
       exercises the typed-refusal arm. *)
    sc_reply_mtu =
      (if Util.Rng.int rng 4 = 0 then Some (16 + Util.Rng.int rng 48)
       else None);
    sc_noise = Util.Rng.int rng 3 = 0;
    sc_weather = Util.Rng.int rng 3 = 0;
    sc_ops = List.init n (fun _ -> gen_op rng) }

(* The chaos drill as a scheme: chaos weather from the fault seed, one
   small read per workstation 0.3 s apart, a clock step on workstation 0
   inside the skew window, and the file server crashing at 6 s and
   restarting at 8 s with its replay cache restored from disk. *)
let chaos fault_seed =
  let rng = Util.Rng.create fault_seed in
  let delta = Util.Rng.float rng 120.0 -. 60.0 in
  let step_at = 2.0 +. Util.Rng.float rng 10.0 in
  { sc_seed = fault_seed; sc_mtu = None; sc_reply_mtu = None; sc_noise = false;
    sc_weather = true;
    sc_ops =
      List.init n_clients (fun who ->
          Read { who; at = 0.3 *. float_of_int who; big = false })
      @ [ Clock_step { who = 0; at = step_at; delta };
          Crash_ap { at = 6.0; back = 8.0 } ] }

(* --- Running one scheme --------------------------------------------- *)

let base_profile =
  { Profile.v5_draft3 with
    Profile.name = "v5d3+fuzz";
    ap_auth = Profile.Timestamp { skew = 300.0; replay_cache = true } }

let small_path = "/readme"
let small_content = "fuzz payload"
let big_path = "/blob"

(* Big enough to overflow any generated MTU (max 1500): the sealed READ
   reply for it cannot ride a datagram on a constrained path. *)
let big_content =
  String.init 1800 (fun i -> Char.chr (Char.code 'a' + (i mod 26)))

type read_report = {
  rr_op : int;  (** index into [sc_ops] *)
  rr_big : bool;
  rr_outcome : (string, string) result option;  (** [None] = never settled *)
}

type report = {
  r_scheme : scheme;
  r_reads : read_report list;
  r_ap_attempts : int;
  r_sessions : int;
  r_replay_hits : int;
  r_fallbacks : int;  (** all [transport.fallback.*] counters summed *)
  r_trunc_fallbacks : int;
      (** the [transport.fallback.truncation] counter alone: TCP upgrades
          forced by repeated Garbled replies, not by a typed refusal *)
  r_truncated : int;  (** datagrams clipped by the MTU model *)
  r_packets : int;
  r_faults : (string * int) list;  (** faults injected, by kind *)
  r_aborted : string option;
      (** the exception that escaped [Sim.Engine.run], if one did *)
  r_pending_after : int;
  r_open_spans : int;
  r_sim_seconds : float;
  r_trace : string;
}

let quad = Sim.Addr.of_quad

let run_scheme ?(mutate = false) sc =
  (* [mutate] plants the paper's own bug — no server replay cache — and
     duplicates every datagram to the application server, so a replayed
     authenticator mints a second session. The invariant checker must
     catch it; see {!mutation_caught}. *)
  let profile =
    if mutate then
      { base_profile with
        Profile.ap_auth = Profile.Timestamp { skew = 300.0; replay_cache = false } }
    else base_profile
  in
  let tel = Telemetry.Collector.fresh_default () in
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create ~seed:sc.sc_seed ~telemetry:tel eng in
  Sim.Net.set_mtu net sc.sc_mtu;
  let master_host = Sim.Host.create ~name:"kdc-master" ~ips:[ quad 10 1 0 1 ] () in
  let slave_host = Sim.Host.create ~name:"kdc-slave" ~ips:[ quad 10 1 0 2 ] () in
  let fs_host = Sim.Host.create ~name:"fs" ~ips:[ quad 10 1 0 20 ] () in
  let ws =
    List.init n_clients (fun i ->
        Sim.Host.create ~name:(Printf.sprintf "ws%d" i)
          ~ips:[ quad 10 1 0 (30 + i) ] ())
  in
  List.iter (Sim.Net.attach net) (master_host :: slave_host :: fs_host :: ws);
  (match sc.sc_reply_mtu with
  | None -> ()
  | Some m ->
      List.iter
        (fun srv ->
          List.iter
            (fun w ->
              Sim.Net.set_link_mtu net ~src:(Sim.Host.primary_ip srv)
                ~dst:(Sim.Host.primary_ip w) (Some m))
            ws)
        [ master_host; slave_host; fs_host ]);
  let rng = Util.Rng.create sc.sc_seed in
  let db = Kdb.create () in
  Kdb.add_service db (Principal.tgs ~realm:"FUZZ") ~key:(Crypto.Des.random_key rng);
  let users =
    List.init n_clients (fun i ->
        ( Principal.user ~realm:"FUZZ" (Printf.sprintf "user%d" i),
          Printf.sprintf "fuzz.pw.%d" i ))
  in
  List.iter (fun (p, pw) -> Kdb.add_user db p ~password:pw) users;
  let fileserv = Principal.service ~realm:"FUZZ" "fileserv" ~host:"fs" in
  let fs_key = Crypto.Des.random_key rng in
  Kdb.add_service db fileserv ~key:fs_key;
  let master = Kdc.create ~realm:"FUZZ" ~profile ~lifetime:28800.0 db in
  Kdc.install net master_host master ();
  let slave =
    Kdc.create ~realm:"FUZZ" ~profile ~lifetime:28800.0
      (Kdb.of_bytes (Kdb.to_bytes db))
  in
  Kdc.install net slave_host slave ();
  let fsrv =
    Services.Fileserver.install net fs_host
      ~config:{ Apserver.default_config with persist_replay_cache = true }
      ~profile ~principal:fileserv ~key:fs_key ~port:600
  in
  Services.Fileserver.write_file fsrv ~owner:"seed" ~path:small_path
    (Bytes.of_string small_content);
  Services.Fileserver.write_file fsrv ~owner:"seed" ~path:big_path
    (Bytes.of_string big_content);
  let apsrv = Services.Fileserver.apserver fsrv in
  let plane = Sim.Faults.create ~seed:sc.sc_seed () in
  if sc.sc_noise then begin
    Sim.Faults.add_loss plane ~p:0.03 ();
    Sim.Faults.add_duplicate plane ~p:0.03 ();
    Sim.Faults.add_reorder plane ~p:0.03 ()
  end;
  if mutate then
    Sim.Faults.add_duplicate plane ~dst:(Sim.Host.primary_ip fs_host) ~p:1.0 ();
  let others =
    Sim.Host.primary_ip slave_host :: Sim.Host.primary_ip fs_host
    :: List.map Sim.Host.primary_ip ws
  in
  (* Only the master may crash or be cut off: the slave keeps the realm
     reachable, which is why Athena ran slaves. The draws continue the
     key stream, so a scheme without weather keeps its keys. *)
  if sc.sc_weather then
    Sim.Faults.random_schedule plane ~rng
      ~addrs:(Sim.Host.primary_ip master_host :: others)
      ~crashable:[ Sim.Host.primary_ip master_host ]
      ~horizon:40.0 ();
  let kdcs =
    [ ("FUZZ", Sim.Host.primary_ip master_host);
      ("FUZZ", Sim.Host.primary_ip slave_host) ]
  in
  let clients =
    List.mapi
      (fun i host ->
        let _, pw = List.nth users i in
        Client.create
          ~seed:(Int64.add sc.sc_seed (Int64.of_int (0x5E55 + i)))
          ~password:pw ~kdc_timeout:0.8 ~kdc_retries:1 net host ~profile ~kdcs
          (fst (List.nth users i)))
      ws
  in
  let reads = ref [] in
  List.iteri
    (fun op_idx op ->
      match op with
      | Crash_kdc { at; back } ->
          Sim.Engine.schedule eng ~at (fun () -> Kdc.crash master);
          Sim.Engine.schedule eng ~at:back (fun () -> Kdc.restart master)
      | Crash_ap { at; back } ->
          Sim.Engine.schedule eng ~at (fun () -> Apserver.crash apsrv);
          Sim.Engine.schedule eng ~at:back (fun () -> Apserver.restart apsrv)
      | Partition { at; dur } ->
          Sim.Faults.partition plane
            ~a:[ Sim.Host.primary_ip master_host ]
            ~b:others ~from:at ~until:(at +. dur) ()
      | Clock_step { who; at; delta } ->
          Sim.Faults.clock_step plane eng (List.nth ws who) ~at ~delta
      | Mtu_change { at; mtu } ->
          Sim.Engine.schedule eng ~at (fun () -> Sim.Net.set_mtu net mtu)
      | Read { who; at; big } ->
          let c = List.nth clients who in
          let _, pw = List.nth users who in
          let outcome = ref None in
          reads := (op_idx, big, outcome) :: !reads;
          let finish r = if !outcome = None then outcome := Some r in
          let retrying label attempts f k =
            let rec go n =
              f (fun r ->
                  match r with
                  | Ok v -> k v
                  | Error e ->
                      if n + 1 < attempts then
                        Sim.Engine.schedule_after eng 1.0 (fun () -> go (n + 1))
                      else finish (Error (label ^ ": " ^ e)))
            in
            go 0
          in
          Sim.Engine.schedule eng ~at (fun () ->
              retrying "login" 2 (fun k -> Client.login c ~password:pw k)
                (fun _ ->
                  retrying "ticket" 2
                    (fun k -> Client.get_ticket c ~service:fileserv k)
                    (fun creds ->
                      retrying "ap" 2
                        (fun k ->
                          Client.ap_exchange c creds ~deadline:3.0
                            ~dst:(Sim.Host.primary_ip fs_host) ~dport:600 k)
                        (fun chan ->
                          retrying "read" 2
                            (fun k ->
                              Client.call_priv c chan ~deadline:3.0
                                (Bytes.of_string
                                   ("READ " ^ if big then big_path else small_path))
                                ~k)
                            (fun data -> finish (Ok (Bytes.to_string data))))))))
    sc.sc_ops;
  Sim.Net.attach_faults net plane;
  (* An exception out of the engine is a finding, not a crash of the
     campaign: it becomes a violation that {!shrink} can minimise. *)
  let aborted =
    match Sim.Engine.run eng with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  let counter name =
    Telemetry.Metrics.value
      (Telemetry.Metrics.counter (Telemetry.Collector.metrics tel) name)
  in
  { r_scheme = sc;
    r_reads =
      List.rev_map
        (fun (op_idx, big, outcome) ->
          { rr_op = op_idx; rr_big = big; rr_outcome = !outcome })
        !reads;
    (* The library-level counter, not the workload's: a channel's
       transparent TCP upgrade starts an honest second exchange the
       workload cannot see. Replay-minted sessions bump neither. *)
    r_ap_attempts = counter "client.ap_exchange.started";
    r_sessions = Apserver.sessions_established apsrv;
    r_replay_hits = Apserver.replay_hits apsrv;
    r_fallbacks =
      counter "transport.fallback.response_too_big"
      + counter "transport.fallback.request_too_big"
      + counter "transport.fallback.truncation";
    r_trunc_fallbacks = counter "transport.fallback.truncation";
    r_truncated = counter "net.packets.truncated";
    r_packets = counter "net.packets.sent";
    r_faults = Sim.Faults.counts plane;
    r_aborted = aborted;
    r_pending_after = Sim.Engine.pending eng;
    r_open_spans = Telemetry.Collector.open_span_count tel;
    r_sim_seconds = Sim.Engine.now eng;
    r_trace = Telemetry.Collector.trace_jsonl tel }

(* --- Invariants ----------------------------------------------------- *)

let invariant_violations r =
  let v = ref [] in
  let add fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  (* No authenticator is ever accepted twice, and no forged one at all:
     the server can never hold more sessions than honest AP exchanges
     were started. (A session minted under a mismatched key cannot
     complete a sealed read, which the byte-exactness check below
     covers.) *)
  if r.r_sessions > r.r_ap_attempts then
    add "replayed/forged authenticator accepted: %d sessions from %d AP attempts"
      r.r_sessions r.r_ap_attempts;
  (* Every client call terminates — reply, typed error, or timeout — and
     a successful sealed read is byte-exact, whichever transport carried
     it. *)
  List.iter
    (fun rr ->
      let expected = if rr.rr_big then big_content else small_content in
      match rr.rr_outcome with
      | Some (Ok data) when data <> expected ->
          add "op %d: sealed read returned wrong bytes (%d bytes, wanted %d)"
            rr.rr_op (String.length data) (String.length expected)
      | Some _ -> ()
      | None -> add "op %d: continuation never settled (stalled client)" rr.rr_op)
    r.r_reads;
  if r.r_pending_after <> 0 then
    add "engine failed to drain: %d events pending" r.r_pending_after;
  if r.r_open_spans <> 0 then add "%d telemetry spans left open" r.r_open_spans;
  List.rev !v

(* A run the engine aborted stopped mid-flight, so its reads, queue and
   spans say nothing: the exception is its one violation. *)
let violations r =
  match r.r_aborted with
  | Some e -> [ "simulation aborted: " ^ e ]
  | None -> invariant_violations r

let summary r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "seed %Ld: %.1f simulated seconds, %d packets sent" r.r_scheme.sc_seed
    r.r_sim_seconds r.r_packets;
  line "  faults injected: %s"
    (if r.r_faults = [] then "(none)"
     else
       String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) r.r_faults));
  line "  fileserver: %d sessions from %d AP exchanges, %d replay hits"
    r.r_sessions r.r_ap_attempts r.r_replay_hits;
  List.iter
    (fun rr ->
      line "  %-26s %s"
        (op_to_string (List.nth r.r_scheme.sc_ops rr.rr_op))
        (match rr.rr_outcome with
        | Some (Ok data) -> Printf.sprintf "ok (%d bytes)" (String.length data)
        | Some (Error e) -> Printf.sprintf "error (%s)" e
        | None -> "STALLED"))
    r.r_reads;
  (match violations r with
  | [] -> line "  invariants: OK (0 violations)"
  | vs ->
      line "  invariants: %d VIOLATIONS" (List.length vs);
      List.iter (fun v -> line "    - %s" v) vs);
  Buffer.contents b

let deterministic sc =
  let a = run_scheme sc in
  let b = run_scheme sc in
  String.equal a.r_trace b.r_trace

(* --- Shrinking ------------------------------------------------------ *)

(* Greedy op deletion: drop each op in turn and keep the deletion
   whenever the scheme still fails. Linear, deterministic, and in
   practice reduces a 20-op failure to the 1-3 ops that matter. *)
let shrink sc =
  let fails s = violations (run_scheme s) <> [] in
  if not (fails sc) then sc
  else begin
    let rec go sc i =
      if i >= List.length sc.sc_ops then sc
      else
        let candidate =
          { sc with sc_ops = List.filteri (fun j _ -> j <> i) sc.sc_ops }
        in
        if fails candidate then go candidate i else go sc (i + 1)
    in
    go sc 0
  end

let mutation_caught () =
  (* The planted bug needs at least one read to replay; a fixed scheme
     with a few reads and no other weather keeps the check fast. *)
  let sc =
    { sc_seed = 0xB16B00B5L; sc_mtu = None; sc_reply_mtu = None;
      sc_noise = false; sc_weather = false;
      sc_ops =
        [ Read { who = 0; at = 1.0; big = false };
          Read { who = 1; at = 2.0; big = false } ] }
  in
  violations (run_scheme ~mutate:true sc) <> []

(* --- Campaigns ------------------------------------------------------ *)

type campaign = {
  c_seed : int64;
  c_schedules : int;
  c_weather : int;
  c_reads : int;
  c_read_oks : int;
  c_fallbacks : int;
  c_trunc_fallbacks : int;
  c_truncated : int;
  c_det_checks : int;
  c_det_failures : int;
  c_failures : (scheme * string list) list;  (** shrunk counterexamples *)
}

let campaign ?(schedules = 100) ?(det_every = 25) ~seed () =
  let rng = Util.Rng.create seed in
  let reads = ref 0 and oks = ref 0 and fallbacks = ref 0 and trunc = ref 0 in
  let trunc_fb = ref 0 and weather = ref 0 in
  let det_checks = ref 0 and det_failures = ref 0 in
  let failures = ref [] in
  for i = 1 to schedules do
    let sc = gen_scheme rng in
    let r = run_scheme sc in
    if sc.sc_weather then incr weather;
    reads := !reads + List.length r.r_reads;
    oks :=
      !oks
      + List.length
          (List.filter
             (fun rr -> match rr.rr_outcome with Some (Ok _) -> true | _ -> false)
             r.r_reads);
    fallbacks := !fallbacks + r.r_fallbacks;
    trunc_fb := !trunc_fb + r.r_trunc_fallbacks;
    trunc := !trunc + r.r_truncated;
    (match violations r with
    | [] -> ()
    | _ ->
        let small = shrink sc in
        failures := (small, violations (run_scheme small)) :: !failures);
    if i mod det_every = 0 then begin
      incr det_checks;
      if not (deterministic sc) then incr det_failures
    end
  done;
  { c_seed = seed; c_schedules = schedules; c_weather = !weather;
    c_reads = !reads; c_read_oks = !oks;
    c_fallbacks = !fallbacks; c_trunc_fallbacks = !trunc_fb;
    c_truncated = !trunc; c_det_checks = !det_checks;
    c_det_failures = !det_failures; c_failures = List.rev !failures }

let campaign_summary c =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "seed %Ld: %d schedules (%d under chaos weather), %d reads (%d ok), %d transport fallbacks (%d via Garbled-retry), %d truncated datagrams"
    c.c_seed c.c_schedules c.c_weather c.c_reads c.c_read_oks c.c_fallbacks
    c.c_trunc_fallbacks c.c_truncated;
  line "  determinism double-runs: %d (%d mismatches)" c.c_det_checks
    c.c_det_failures;
  (match c.c_failures with
  | [] -> line "  invariants: OK (0 violations)"
  | fs ->
      line "  invariants: %d FAILING SCHEMES (shrunk)" (List.length fs);
      List.iter
        (fun (sc, vs) ->
          line "    - %s" (scheme_to_string sc);
          List.iter (fun v -> line "      %s" v) vs)
        fs);
  Buffer.contents b

let ok c = c.c_failures = [] && c.c_det_failures = 0
