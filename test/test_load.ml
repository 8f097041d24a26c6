(* The scale-out plane: the client credential cache (reuse, expiry, and the
   paper's stolen-cache caveat) and the load generator (determinism,
   validation, and the shape of what BENCH_load.json is built from). *)

open Kerberos

let realm = "ATHENA"
let pat = Principal.user ~realm "pat"

(* A multi-user machine attached to the testbed — the kind of host whose
   credential cache the paper worries about. *)
let shared_host bed =
  let h =
    Sim.Host.create ~security:Sim.Host.Multi_user ~name:"timeshare"
      ~ips:[ Sim.Addr.of_quad 10 0 0 40 ] ()
  in
  Sim.Net.attach bed.Attacks.Testbed.net h;
  h

let make_client ?password ?(ccache = false) ~seed bed host =
  Client.create ~seed ?password ~ccache bed.Attacks.Testbed.net host
    ~profile:bed.Attacks.Testbed.profile
    ~kdcs:[ (realm, Attacks.Testbed.kdc_addr bed) ]
    pat

(* ------------------------------------------------------------------ *)
(* Credential cache: reuse before expiry                               *)
(* ------------------------------------------------------------------ *)

let ccache_reuse () =
  let bed = Attacks.Testbed.make ~profile:Profile.v4 () in
  let ws = shared_host bed in
  let c = make_client ~seed:21L ~password:bed.victim_password ~ccache:true bed ws in
  Services.Fileserver.write_file bed.file ~owner:"pat@ATHENA" ~path:"/u/pat/notes"
    (Bytes.of_string "grocery list");
  Client.login c ~password:bed.victim_password (fun r ->
      ignore (Attacks.Testbed.expect "login" r));
  Attacks.Testbed.run bed;
  let first = ref None and second = ref None and read = ref None in
  Client.get_ticket c ~service:bed.file_principal (fun r ->
      first := Some (Attacks.Testbed.expect "first ticket" r);
      Client.get_ticket c ~service:bed.file_principal (fun r ->
          let creds = Attacks.Testbed.expect "second ticket" r in
          second := Some creds;
          (* The cached ticket is not just equal — it still works. *)
          Client.ap_exchange c creds ~dst:(Sim.Host.primary_ip bed.file_host)
            ~dport:bed.file_port (fun r ->
              let chan = Attacks.Testbed.expect "ap" r in
              Client.call_priv c chan (Bytes.of_string "READ /u/pat/notes")
                ~k:(fun r -> read := Some (Attacks.Testbed.expect "read" r)))));
  Attacks.Testbed.run bed;
  Alcotest.(check int) "one TGS round trip" 1 (Client.ccache_misses c);
  Alcotest.(check int) "one cache hit" 1 (Client.ccache_hits c);
  (match (!first, !second) with
  | Some a, Some b ->
      Alcotest.(check bool) "same ticket reused" true (Bytes.equal a.Client.ticket b.Client.ticket)
  | _ -> Alcotest.fail "tickets missing");
  Alcotest.(check (option string)) "cached ticket authenticates"
    (Some "grocery list")
    (Option.map Bytes.to_string !read);
  (* Logout wipes the service-ticket cache along with the TGT. *)
  Client.logout c;
  Alcotest.(check bool) "host cache wiped" true
    (match Sim.Host.steal_cache ws with None | Some [] -> true | Some _ -> false)

(* A client created without [~ccache:true] keeps the old behaviour: every
   request is a TGS round trip and the counters stay at zero. *)
let ccache_off_is_inert () =
  let bed = Attacks.Testbed.make ~profile:Profile.v4 () in
  let ws = shared_host bed in
  let c = make_client ~seed:22L ~password:bed.victim_password bed ws in
  Client.login c ~password:bed.victim_password (fun r ->
      ignore (Attacks.Testbed.expect "login" r));
  Attacks.Testbed.run bed;
  let done_ = ref 0 in
  Client.get_ticket c ~service:bed.file_principal (fun r ->
      ignore (Attacks.Testbed.expect "t1" r);
      incr done_;
      Client.get_ticket c ~service:bed.file_principal (fun r ->
          ignore (Attacks.Testbed.expect "t2" r);
          incr done_));
  Attacks.Testbed.run bed;
  Alcotest.(check int) "both requests completed" 2 !done_;
  Alcotest.(check int) "no hits" 0 (Client.ccache_hits c);
  Alcotest.(check int) "no misses counted" 0 (Client.ccache_misses c)

(* ------------------------------------------------------------------ *)
(* Credential cache: re-fetch after expiry                             *)
(* ------------------------------------------------------------------ *)

let ccache_expiry () =
  let bed = Attacks.Testbed.make ~profile:Profile.v4 () in
  let ws = shared_host bed in
  let c = make_client ~seed:23L ~password:bed.victim_password ~ccache:true bed ws in
  Client.login c ~password:bed.victim_password (fun r ->
      ignore (Attacks.Testbed.expect "login" r));
  Attacks.Testbed.run bed;
  let early = ref None in
  Client.get_ticket c ~service:bed.file_principal (fun r ->
      early := Some (Attacks.Testbed.expect "first ticket" r));
  Attacks.Testbed.run bed;
  (* The testbed KDC issues 8-hour tickets; outlive them. *)
  Attacks.Testbed.run_for bed (8.0 *. 3600.0 +. 120.0);
  let late = ref None in
  Client.get_ticket c ~service:bed.file_principal (fun r ->
      late := Some (Attacks.Testbed.expect "ticket after expiry" r));
  Attacks.Testbed.run bed;
  Alcotest.(check int) "no stale hit" 0 (Client.ccache_hits c);
  Alcotest.(check int) "two TGS round trips" 2 (Client.ccache_misses c);
  match (!early, !late) with
  | Some a, Some b ->
      Alcotest.(check bool) "fresh ticket issued" true
        (b.Client.issued_at > a.Client.issued_at)
  | _ -> Alcotest.fail "tickets missing"

(* ------------------------------------------------------------------ *)
(* The paper's caveat: a stolen cache replays until expiry             *)
(* ------------------------------------------------------------------ *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let stolen_ccache_replays () =
  let bed = Attacks.Testbed.make ~profile:Profile.v4 () in
  let ws = shared_host bed in
  let victim = make_client ~seed:24L ~password:bed.victim_password ~ccache:true bed ws in
  Services.Fileserver.write_file bed.file ~owner:"pat@ATHENA" ~path:"/u/pat/thesis"
    (Bytes.of_string "draft chapter 3");
  Client.login victim ~password:bed.victim_password (fun r ->
      ignore (Attacks.Testbed.expect "login" r);
      Client.get_ticket victim ~service:bed.file_principal (fun r ->
          ignore (Attacks.Testbed.expect "ticket" r)));
  Attacks.Testbed.run bed;
  (* The co-resident thief reads the host cache: the service ticket the
     ccache parked there is usable as-is — "an intruder who is able to
     read these files can use these until they expire". *)
  let entries =
    match Sim.Host.steal_cache ws with
    | None | Some [] -> Alcotest.fail "nothing stealable on a multi-user host"
    | Some entries -> entries
  in
  let svc_blob =
    match List.find_opt (fun (label, _) -> has_prefix "svc:" label) entries with
    | Some (_, blob) -> blob
    | None -> Alcotest.fail "service ticket not parked in the host cache"
  in
  let creds = Client.creds_of_bytes svc_blob in
  let thief = make_client ~seed:25L bed ws in
  let loot = ref None in
  Client.ap_exchange thief creds ~dst:(Sim.Host.primary_ip bed.file_host)
    ~dport:bed.file_port (fun r ->
      let chan = Attacks.Testbed.expect "stolen-ticket AP" r in
      Client.call_priv thief chan (Bytes.of_string "READ /u/pat/thesis")
        ~k:(fun r -> loot := Some (Attacks.Testbed.expect "stolen read" r)));
  Attacks.Testbed.run bed;
  Alcotest.(check (option string)) "victim's file read with stolen ticket"
    (Some "draft chapter 3")
    (Option.map Bytes.to_string !loot)

(* A raw wire replay of a captured AP_REQ, for contrast: the cacheless v4
   server accepts it inside the skew window; a server with a replay cache
   catches it and counts the hit. (Neither helps against the stolen-cache
   exchange above, which builds a fresh authenticator.) *)
let wire_replay profile =
  let bed = Attacks.Testbed.make ~profile () in
  Attacks.Testbed.victim_mail_session bed ();
  Attacks.Testbed.run bed;
  let srv = Services.Mailserver.apserver bed.mail in
  let honest = Apserver.sessions_established srv in
  let ap_reqs =
    Sim.Adversary.capture_matching bed.adv (fun p ->
        p.Sim.Packet.dport = bed.mail_port
        &&
        match Frames.unwrap p.Sim.Packet.payload with
        | Some (k, _) -> k = Frames.ap_req
        | None -> false)
  in
  (match ap_reqs with
  | [] -> Alcotest.fail "no AP_REQ captured"
  | pkt :: _ ->
      Sim.Engine.schedule_after bed.eng 1.0 (fun () ->
          Sim.Adversary.spoof bed.adv ~src:(Attacks.Testbed.victim_addr bed)
            ~sport:45000 ~dst:(Sim.Host.primary_ip bed.mail_host)
            ~dport:bed.mail_port pkt.Sim.Packet.payload));
  Attacks.Testbed.run bed;
  (Apserver.sessions_established srv > honest, Apserver.replay_hits srv)

let wire_replay_vs_cache () =
  let accepted, hits = wire_replay Profile.v4 in
  Alcotest.(check bool) "cacheless server replays" true accepted;
  Alcotest.(check int) "no cache, no hits" 0 hits;
  let cached_profile =
    { Profile.v4 with
      Profile.name = "v4c";
      ap_auth = Profile.Timestamp { skew = 300.0; replay_cache = true } }
  in
  let accepted, hits = wire_replay cached_profile in
  Alcotest.(check bool) "replay cache rejects" false accepted;
  Alcotest.(check bool) "hit counted" true (hits >= 1)

(* ------------------------------------------------------------------ *)
(* Loadgen: determinism and shape                                      *)
(* ------------------------------------------------------------------ *)

let small_cfg =
  { Workloads.Loadgen.default with
    Workloads.Loadgen.users = 120;
    shards = 2;
    kdcs = 2;
    services = 4;
    active_clients = 12;
    requests_per_client = 10 }

let loadgen_deterministic () =
  let a = Workloads.Loadgen.run small_cfg in
  let b = Workloads.Loadgen.run small_cfg in
  Alcotest.(check string) "same seed, byte-identical export"
    (Telemetry.Json.to_string (Workloads.Loadgen.report_to_json a))
    (Telemetry.Json.to_string (Workloads.Loadgen.report_to_json b))

let loadgen_report_shape () =
  let r = Workloads.Loadgen.run small_cfg in
  Alcotest.(check int) "every request completed" 120 r.Workloads.Loadgen.completed;
  Alcotest.(check int) "no errors" 0 r.Workloads.Loadgen.errors;
  Alcotest.(check int) "one AS exchange per active client" 12
    r.Workloads.Loadgen.as_requests;
  Alcotest.(check int) "shard_lookups matches shard count" 2
    (Array.length r.Workloads.Loadgen.shard_lookups);
  Alcotest.(check bool) "shards saw traffic" true
    (Array.for_all (fun n -> n > 0) r.Workloads.Loadgen.shard_lookups);
  Alcotest.(check int) "every principal landed in a shard"
    (120 + 4 + 1)  (* users + services + the TGS itself *)
    (Array.fold_left ( + ) 0 r.Workloads.Loadgen.shard_entries);
  (* The cache holds TGS traffic below one exchange per request. *)
  Alcotest.(check bool) "cache bit" true
    (r.Workloads.Loadgen.tgs_requests < 12 * 10);
  Alcotest.(check int) "hits + misses = cacheable requests" (12 * 10)
    (r.Workloads.Loadgen.ccache_hits + r.Workloads.Loadgen.ccache_misses)

(* Every channel a request opens is closed once its reply arrives, so the
   run ends with exactly the listeners the world was built with: the
   KDCs' and services' endpoints. *)
let loadgen_leaves_no_listeners () =
  let net = ref None and before = ref 0 in
  let r, _ =
    Workloads.Loadgen.run_timed small_cfg ~on_world:(fun w _ ->
        net := Some w.Workloads.Attack_mix.w_net;
        before := Sim.Net.listener_count w.Workloads.Attack_mix.w_net)
  in
  Alcotest.(check int) "every request completed" 120 r.Workloads.Loadgen.completed;
  match !net with
  | None -> Alcotest.fail "on_world never ran"
  | Some net ->
      Alcotest.(check int) "listeners after the run" !before (Sim.Net.listener_count net)

(* A wave counts its clients' cache hits and misses as each client
   finishes, and the rest once the engine runs dry. With every echo
   server down, each AP exchange waits forever (the echo sets no
   deadline), so no client ever finishes; each ticket request still
   reached a KDC or the cache first, and must be counted. A request that
   never settled is an error: every attempted request is reported as
   one or the other. *)
let loadgen_counts_unsettled_clients () =
  let r, _ =
    Workloads.Loadgen.run_timed small_cfg ~on_world:(fun w _ ->
        let plane = Sim.Faults.create () in
        Array.iter
          (fun (_, _, addr) -> Sim.Faults.crash_host plane addr ())
          w.Workloads.Attack_mix.w_services;
        Sim.Net.attach_faults w.Workloads.Attack_mix.w_net plane)
  in
  Alcotest.(check int) "no request completed" 0 r.Workloads.Loadgen.completed;
  Alcotest.(check int) "hits + misses = cacheable requests" (12 * 10)
    (r.Workloads.Loadgen.ccache_hits + r.Workloads.Loadgen.ccache_misses);
  Alcotest.(check int) "completed + errors = attempted" (12 * 10)
    (r.Workloads.Loadgen.completed + r.Workloads.Loadgen.errors)

let loadgen_rejects_nonsense () =
  let raises cfg =
    match Workloads.Loadgen.run cfg with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "zero users" true
    (raises { small_cfg with Workloads.Loadgen.users = 0 });
  Alcotest.(check bool) "more active than registered" true
    (raises { small_cfg with Workloads.Loadgen.active_clients = 1000 });
  Alcotest.(check bool) "zero shards" true
    (raises { small_cfg with Workloads.Loadgen.shards = 0 });
  (* Client [i] is at 10.(2 + i/250).(i mod 250).1, so the spike wave,
     which follows the calm actives, has no address from index 63,500 on.
     The users cover it, so only the address plan refuses it. *)
  let past_plan = Invalid_argument "Loadgen: spike wave runs past the client address plan" in
  let module L = Workloads.Loadgen in
  Alcotest.check_raises "viral spike past the address plan" past_plan (fun () ->
      ignore
        (L.run_viral
           { L.default_viral with
             L.v_base = { L.default_viral.L.v_base with L.users = 70_000 };
             v_spike_clients = 64_000 }
          : L.viral_suite));
  Alcotest.check_raises "overload spike past the address plan" past_plan (fun () ->
      ignore
        (L.run_overload
           { L.default_overload with
             L.o_base = { L.default_overload.L.o_base with L.users = 70_000 };
             o_spike_clients = 64_000 }
          : L.overload_suite))

let () =
  Alcotest.run "load"
    [ ("ccache",
       [ Alcotest.test_case "reuse before expiry" `Quick ccache_reuse;
         Alcotest.test_case "off by default" `Quick ccache_off_is_inert;
         Alcotest.test_case "re-fetch after expiry" `Quick ccache_expiry ]);
      ("theft",
       [ Alcotest.test_case "stolen cache replays" `Quick stolen_ccache_replays;
         Alcotest.test_case "wire replay vs replay cache" `Quick wire_replay_vs_cache ]);
      ("loadgen",
       [ Alcotest.test_case "deterministic" `Quick loadgen_deterministic;
         Alcotest.test_case "report shape" `Quick loadgen_report_shape;
         Alcotest.test_case "no listeners left behind" `Quick loadgen_leaves_no_listeners;
         Alcotest.test_case "unsettled clients counted" `Quick
           loadgen_counts_unsettled_clients;
         Alcotest.test_case "config validation" `Quick loadgen_rejects_nonsense ]) ]
