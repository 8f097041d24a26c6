(* The fast-path equivalence suite: every cheap path must be observationally
   identical to the expensive path it replaces. The DES schedule cache must
   be invisible to ciphertext; a session must schedule its key exactly once
   no matter how many messages it seals; the engine's event queue, bulk
   inserts and disarmed timers included, must fire events in (time, seq)
   order; a settled call must let go of its closures before its guard
   timer's instant, a load generator of the clients it has finished
   with, and a network of the hosts attached to it; and a lazily
   materialized realm must serve byte-identical traffic to an eagerly
   registered one. *)

let realm = "ATHENA"

let with_schedule_cache enabled f =
  let prev = Crypto.Des.schedule_cache_enabled () in
  Crypto.Des.set_schedule_cache enabled;
  Fun.protect ~finally:(fun () -> Crypto.Des.set_schedule_cache prev) f

(* ------------------------------------------------------------------ *)
(* DES schedule cache: invisible to every sealed byte                  *)
(* ------------------------------------------------------------------ *)

let key = Crypto.Des.fix_parity (Bytes.of_string "perfkey!")

let seal_with_cache enabled scheme =
  with_schedule_cache enabled (fun () ->
      let rng = Util.Rng.create 77L in
      let sealed =
        Kerberos.Seal.seal scheme rng ~key (Bytes.of_string "TKT pat@ATHENA")
      in
      let opened = Kerberos.Seal.open_ scheme ~key sealed in
      (sealed, opened))

let cache_transparent_seal () =
  List.iter
    (fun (label, scheme) ->
      let s_off, o_off = seal_with_cache false scheme in
      let s_on, o_on = seal_with_cache true scheme in
      Alcotest.(check bool)
        (label ^ ": ciphertext identical")
        true (Bytes.equal s_off s_on);
      match (o_off, o_on) with
      | Ok a, Ok b ->
          Alcotest.(check bool) (label ^ ": plaintext identical") true
            (Bytes.equal a b)
      | _ -> Alcotest.fail (label ^ ": open failed"))
    [ ("pcbc", Kerberos.Seal.Pcbc_raw);
      ("cbc+crc", Kerberos.Seal.Cbc_confounder Crypto.Checksum.Crc32);
      ("cbc+md4", Kerberos.Seal.Cbc_confounder Crypto.Checksum.Md4) ]

(* The strongest form: an entire KDC workload (AS, TGS, AP, priv traffic)
   reports byte-identically with the cache on and off. *)
let cache_transparent_load () =
  let cfg =
    { Workloads.Loadgen.default with
      Workloads.Loadgen.users = 60; shards = 2; kdcs = 2;
      active_clients = 12; requests_per_client = 5; seed = 99L }
  in
  let report enabled =
    with_schedule_cache enabled (fun () ->
        Telemetry.Json.to_string
          (Workloads.Loadgen.report_to_json (Workloads.Loadgen.run cfg)))
  in
  Alcotest.(check string) "whole-realm report identical" (report false)
    (report true)

(* The memo under eviction: a stream of 12,288 keys drawn from a pool of
   6,000, well past the table's 4,096 slots, with parity bits flipped at
   random so parity-only variants of earlier keys recur. Every draw, hit
   or miss, must return what the bit-by-bit reference schedules, and some
   key must have been scheduled twice, so the stream did evict. *)
let memo_exact_under_eviction =
  QCheck.Test.make ~name:"memo exact under eviction" ~count:4 QCheck.int64 (fun seed ->
      let rng = Util.Rng.create seed in
      let pool = Array.init 6000 (fun _ -> Util.Rng.bytes rng 8) in
      let distinct = Hashtbl.create 6000 in
      (* Turning the memo off empties it; the stream runs with it on. *)
      with_schedule_cache false (fun () ->
          Crypto.Des.set_schedule_cache true;
          let before = Crypto.Des.schedules_performed () in
          let exact = ref true in
          for _ = 1 to 12_288 do
            let k = Bytes.copy (Util.Rng.pick rng pool) in
            for i = 0 to 7 do
              if Util.Rng.bool rng then
                Bytes.set k i (Char.chr (Char.code (Bytes.get k i) lxor 1))
            done;
            Hashtbl.replace distinct (Crypto.Des.fix_parity k) ();
            if
              Crypto.Des.subkeys (Crypto.Des.schedule_cached k)
              <> Crypto.Des.Reference.schedule (Crypto.Des.fix_parity k)
            then exact := false
          done;
          !exact
          && Crypto.Des.schedules_performed () - before > Hashtbl.length distinct))

(* ------------------------------------------------------------------ *)
(* Session: the key is scheduled once, not once per message            *)
(* ------------------------------------------------------------------ *)

let session ?(profile = Kerberos.Profile.v4) role =
  let a = Sim.Addr.of_quad 10 0 0 1 and b = Sim.Addr.of_quad 10 0 0 2 in
  let own, peer =
    match role with
    | Kerberos.Session.Client_side -> (a, b)
    | Kerberos.Session.Server_side -> (b, a)
  in
  Kerberos.Session.make ~profile ~role ~key ~own_addr:own ~peer_addr:peer
    ~send_seq:0 ~recv_seq:0

let session_schedules_once () =
  (* With the cache off, every [Des.schedule_cached] call would show up in
     the process-wide counter — so a constant count across N messages
     proves the session carries its scheduled key. *)
  with_schedule_cache false (fun () ->
      let c = session Kerberos.Session.Client_side in
      let s = session Kerberos.Session.Server_side in
      let before = Crypto.Des.schedules_performed () in
      for i = 1 to 25 do
        let now = float_of_int i in
        let sealed =
          Kerberos.Krb_priv.seal c ~now (Bytes.of_string "tob or not tob")
        in
        match Kerberos.Krb_priv.open_ s ~now sealed with
        | Ok _ -> ()
        | Error e ->
            Alcotest.fail ("priv open: " ^ Kerberos.Krb_priv.error_to_string e)
      done;
      Alcotest.(check int) "no per-message key schedules" 0
        (Crypto.Des.schedules_performed () - before))

(* ------------------------------------------------------------------ *)
(* Crypto per request: exact DES block and key-schedule counts          *)
(* ------------------------------------------------------------------ *)

(* A toy Loadgen run under each profile, counted from the world/run
   boundary to the end. The memo is cleared first so the schedule count
   does not depend on what earlier tests cached. These are deterministic
   proxies for the benchmark's crypto cost, so a change that adds or
   removes cipher work per request has to update the counts below. Under
   V4 and v5-draft3 a request's two sessions compute no IV blocks, which
   their modes never read; the hardened IV chain needs its four.

   Minor-heap words per completed request are held under a ceiling rather
   than gated exactly: a second run in the same process allocates a few
   words per request more or less. So are promoted words, what the run
   keeps alive long enough to copy out of the minor heap: a minor
   collection at each end of the run makes two runs in one process agree
   exactly, but the count moves with where the run's few minor
   collections land, and so with what the process ran before and with
   every word allocated on the way. Run alone, v4 read 100.9 against 98.2
   in the suite, and changing only the ceilings below moved hardened
   between 157.4 and 174.1. Each minor ceiling is the count measured when
   it was set plus 2 %, each promoted ceiling the highest count seen plus
   10 %. *)
let crypto_per_request () =
  List.iter
    (fun ((profile : Kerberos.Profile.t), blocks, schedules, words_ceiling,
          promoted_ceiling) ->
      let cfg =
        { Workloads.Loadgen.default with
          Workloads.Loadgen.users = 200; shards = 2; kdcs = 2; services = 4;
          active_clients = 10; requests_per_client = 4; seed = 4269L; profile;
          lightweight = true; lazy_users = true }
      in
      Crypto.Des.set_schedule_cache false;
      Crypto.Des.set_schedule_cache true;
      let b0 = ref 0 and s0 = ref 0 and w0 = ref 0.0 and p0 = ref 0.0 in
      let report, _ =
        Workloads.Loadgen.run_timed cfg ~on_world:(fun _ _ ->
            b0 := Crypto.Des.blocks_performed ();
            s0 := Crypto.Des.schedules_performed ();
            Gc.minor ();
            w0 := Gc.minor_words ();
            p0 := (Gc.quick_stat ()).Gc.promoted_words)
      in
      let words = Gc.minor_words () -. !w0 in
      Gc.minor ();
      let promoted = (Gc.quick_stat ()).Gc.promoted_words -. !p0 in
      let completed = report.Workloads.Loadgen.completed in
      Alcotest.(check int) (profile.name ^ ": all requests completed") 40 completed;
      Alcotest.(check int) (profile.name ^ ": DES blocks") blocks
        (Crypto.Des.blocks_performed () - !b0);
      Alcotest.(check int) (profile.name ^ ": key schedules") schedules
        (Crypto.Des.schedules_performed () - !s0);
      let under what count ceiling =
        let per_request = count /. float_of_int completed in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.1f %s words per request, ceiling %d" profile.name
             per_request what ceiling)
          true
          (per_request <= float_of_int ceiling)
      in
      under "minor" words words_ceiling;
      under "promoted" promoted promoted_ceiling)
    [ (Kerberos.Profile.v4, 4766, 70, 4668, 111);
      (Kerberos.Profile.v5_draft3, 3896, 70, 8971, 133);
      (Kerberos.Profile.hardened, 6516, 120, 26362, 192) ]

(* ------------------------------------------------------------------ *)
(* Footprint: what a replay cache and a server session hold            *)
(* ------------------------------------------------------------------ *)

(* Heap words a cache owns, counted by [Obj.reachable_words] (shared
   constants included), under ceilings set at the readings taken when
   the cache's settings became one value its kind shares and a one-slot
   cache lost its probe index. The settings are left out: every
   session's KRB_PRIV cache points at the same ones. A session's cache
   holds one 32-byte ciphertext per call, and every timestamped session
   owns a cache, so these words are paid once per such session a server
   keeps. *)
let cache_words entries =
  let settings = Kerberos.Replay_cache.settings ~horizon:600.0 () in
  let c = Kerberos.Replay_cache.make settings in
  for i = 1 to entries do
    ignore
      (Kerberos.Replay_cache.check_and_insert c ~now:0.0
         (Bytes.make 32 (Char.chr i)))
  done;
  Obj.reachable_words (Obj.repr (c, settings))
  - Obj.reachable_words (Obj.repr settings) - 3

(* The words the file server keeps for its one session after an AP
   exchange and one KRB_PRIV call. *)
let server_words_per_session (profile : Kerberos.Profile.t) =
  let open Kerberos in
  let bed = Attacks.Testbed.make ~profile () in
  let replied = ref false in
  Client.login bed.victim ~password:bed.victim_password (fun r ->
      ignore (Attacks.Testbed.expect "login" r);
      Client.get_ticket bed.victim ~service:bed.file_principal (fun r ->
          let creds = Attacks.Testbed.expect "ticket" r in
          Client.ap_exchange bed.victim creds
            ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:bed.file_port
            (fun r ->
              let chan = Attacks.Testbed.expect "ap" r in
              Client.call_priv bed.victim chan (Bytes.of_string "READ /f0")
                ~k:(fun r -> replied := Result.is_ok r))));
  Attacks.Testbed.run bed;
  let ap = Services.Fileserver.apserver bed.file in
  Alcotest.(check bool) (profile.name ^ ": KRB_PRIV answered") true !replied;
  Alcotest.(check int) (profile.name ^ ": one session held") 1
    (Apserver.peer_state_size ap);
  Apserver.peer_state_words ap

(* How many of [n] distinct keys' memoized schedules outlive a full major
   collection when nothing but the memo holds them. *)
let memo_survivors n =
  let rng = Util.Rng.create 0x5C4EDL in
  let held = Weak.create n in
  with_schedule_cache true (fun () ->
      for i = 0 to n - 1 do
        Weak.set held i (Some (Crypto.Des.schedule_cached (Util.Rng.bytes rng 8)))
      done);
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check held i then incr alive
  done;
  !alive

(* The live words the memo gains when it fills: emptied, then 12,288
   fresh keys scheduled through it, of which its 4,096 slots keep the
   last in each set. The table's own arrays exist before and after, so
   what is counted is the schedules it holds. *)
let full_memo_words () =
  let rng = Util.Rng.create 0xF111L in
  with_schedule_cache false (fun () ->
      Crypto.Des.set_schedule_cache true;
      Gc.full_major ();
      let before = (Gc.stat ()).Gc.live_words in
      for _ = 1 to 12_288 do
        ignore (Crypto.Des.schedule_cached (Util.Rng.bytes rng 8))
      done;
      Gc.full_major ();
      (Gc.stat ()).Gc.live_words - before)

(* What [Client.create] allocates beyond what it is handed: the network,
   host, profile, KDC list, principal and password. The tuple's own seven
   words are taken back out. *)
let client_own_words () =
  let net = Sim.Net.create (Sim.Engine.create ()) in
  let host = Sim.Host.create ~name:"ws" ~ips:[ Sim.Addr.of_quad 10 9 0 1 ] () in
  Sim.Net.attach net host;
  let profile = Kerberos.Profile.v4 in
  let kdcs = [ (realm, Sim.Addr.of_quad 10 9 0 2) ] in
  let me = Kerberos.Principal.user ~realm "pat" in
  let password = String.make 12 'p' in
  let c = Kerberos.Client.create ~password net host ~profile ~kdcs me in
  Obj.reachable_words (Obj.repr c)
  - (Obj.reachable_words (Obj.repr (net, host, profile, kdcs, me, password)) - 7)

(* The toy login storm (2,000 eagerly registered users, each active
   client logging in once and sending one request, seed 4269) with [n]
   active clients. It returns the live words read at the end of set-up
   ([on_world]) and at 600 simulated seconds, long after the last request
   settled, each after a full major collection. With the schedule memo
   off, the process-wide memo's growth is not counted as client state. *)
let toy_login_storm n =
  let module L = Workloads.Loadgen in
  let cfg =
    { L.default with
      L.users = 2_000; shards = 8; kdcs = 4; services = 10; active_clients = n;
      requests_per_client = 1; seed = 4269L; lightweight = true }
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let at_setup = ref 0 and at_end = ref 0 in
  let report, _ =
    with_schedule_cache false (fun () ->
        L.run_timed cfg ~on_world:(fun wd _ ->
            at_setup := live ();
            Sim.Engine.schedule wd.Workloads.Attack_mix.w_engine ~at:600.0
              (fun () -> at_end := live ())))
  in
  Alcotest.(check int)
    (Printf.sprintf "toy login storm of %d: every request completed" n)
    n report.L.completed;
  (!at_setup, !at_end)

(* What one client of the toy login storm holds at a reading (set-up or
   end): 200 active clients against 1, the world around them the same.
   The first run in a process leaves about 110 words of process-wide
   state live for every later one, so a run that is not read goes
   first. *)
let words_per_toy_client reading =
  ignore (toy_login_storm 1 : int * int);
  let one = reading (toy_login_storm 1) in
  let many = reading (toy_login_storm 200) in
  float_of_int (many - one) /. 199.0

let footprint () =
  let under label words ceiling =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d words, ceiling %d" label words ceiling)
      true (words <= ceiling)
  in
  (* A schedule is its 16 subkey words, one per round, and a header:
     sessions and the memo hold one per key. *)
  under "one DES schedule" (Obj.reachable_words (Obj.repr (Crypto.Des.schedule key))) 17;
  let survivors = memo_survivors 12_288 in
  Alcotest.(check bool)
    (Printf.sprintf "memo keeps %d of 12288 schedules, bound 4096" survivors)
    true (survivors <= 4096);
  under "a full memo" (full_memo_words ()) (4_096 * 17);
  under "a plain client's own words" (client_own_words ()) 41;
  (* Until its start, a Loadgen client is its start event holding what
     set-up drew for it (seed, generator, start time), that event's queue
     slot and its tally slot: no user, host or [Client.t] yet. The
     ceiling is the reading when clients came to be built at their start
     (22.8 words) plus about 5 %; built at set-up, a waiting client read
     96.9. *)
  let waiting = words_per_toy_client fst in
  Alcotest.(check bool)
    (Printf.sprintf "a waiting Loadgen client: %.1f words, ceiling 24" waiting)
    true (waiting <= 24.0);
  under "empty replay cache" (cache_words 0) 11;
  under "replay cache holding one 32-byte key" (cache_words 1) 20;
  List.iter
    (fun ((profile : Kerberos.Profile.t), ceiling) ->
      under (profile.name ^ ": server words per session")
        (server_words_per_session profile) ceiling)
    [ (Kerberos.Profile.v4, 50); (Kerberos.Profile.v5_draft3, 49);
      (Kerberos.Profile.hardened, 32) ]

(* Only [Priv_timestamp] reads a replay cache, so a session under
   sequence numbers (the hardened profile) holds none. What a hardened
   session owns beyond its profile and schedule (record, key, sequence
   numbers and its one IV-chain buffer) is held at its reading; with an
   empty cache it read 33 words, and with two 8-byte IV blocks 19. *)
let sequence_session_holds_no_cache () =
  let open Kerberos in
  List.iter
    (fun (profile : Profile.t) ->
      let s = session ~profile Session.Server_side in
      let cached =
        match s.Session.stamps with
        | Session.Timestamps _ -> true
        | Session.Sequence _ -> false
      in
      Alcotest.(check bool)
        (profile.name ^ ": a replay cache only under timestamps")
        (profile.priv_replay = Profile.Priv_timestamp)
        cached)
    [ Profile.v4; Profile.v5_draft3; Profile.hardened ];
  let s = session ~profile:Profile.hardened Session.Server_side in
  let own =
    Obj.reachable_words (Obj.repr s)
    - Obj.reachable_words (Obj.repr (s.Session.profile, s.Session.sched))
  in
  Alcotest.(check bool)
    (Printf.sprintf "hardened: %d words of its own, ceiling 16" own)
    true (own <= 16)

(* ------------------------------------------------------------------ *)
(* Engine: (time, seq) order                                            *)
(* ------------------------------------------------------------------ *)

(* The engine's event shape: ordered by (time, seq), a total order. *)
let cmp (t1, s1) (t2, s2) =
  match compare (t1 : float) t2 with 0 -> compare (s1 : int) s2 | c -> c

(* Times drawn from a small pool so ties are common — ties are exactly
   where heap order bugs hide. *)
let pool_time = QCheck.Gen.map (fun t -> float_of_int t /. 4.0) (QCheck.Gen.int_bound 12)

(* Engine operations, with every time an offset from the current clock.
   [Disarm i] picks one of the timers armed so far, newest first, modulo
   their number; it may pick one that already fired or was disarmed. *)
type op =
  | Schedule of float
  | Arm of float
  | Disarm of int
  | Batch of float list
  | Step
  | Run_until of float

let show_op = function
  | Schedule d -> Printf.sprintf "schedule +%g" d
  | Arm d -> Printf.sprintf "arm +%g" d
  | Disarm i -> Printf.sprintf "disarm #%d" i
  | Batch ds -> Printf.sprintf "batch [%s]" (String.concat "," (List.map string_of_float ds))
  | Step -> "step"
  | Run_until d -> Printf.sprintf "run_until +%g" d

let ops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map show_op l))
    QCheck.Gen.(
      list_size (int_bound 60)
        (frequency
           [ (4, map (fun d -> Schedule d) pool_time);
             (2, map (fun d -> Arm d) pool_time);
             (2, map (fun i -> Disarm i) (int_bound 8));
             (1, map (fun ds -> Batch ds) (list_size (int_bound 40) pool_time));
             (3, return Step);
             (1, map (fun d -> Run_until d) pool_time) ]))

(* Against a reference model: the pending events as a list, popped by
   sorting on (time, seq). Each event logs its own sequence number when it
   fires; a disarmed timer still pops in its place and counts as executed,
   but logs nothing. After every operation the clock, the queue length and
   the executed count must agree, and the whole firing order must match at
   the end. *)
let engine_matches_model =
  QCheck.Test.make ~name:"queue pops like a sorted model" ~count:300 ops (fun ops ->
      let eng = Sim.Engine.create () in
      let fired = ref [] and expected = ref [] in
      let pending = ref [] and clock = ref 0.0 and seq = ref 0 in
      let timers = ref [] and disarmed = ref [] and executed = ref 0 in
      let event () =
        let s = !seq in
        incr seq;
        ((fun () -> fired := s :: !fired), s)
      in
      let model_pop () =
        match List.sort cmp !pending with
        | [] -> false
        | ((t, s) as e) :: _ ->
            pending := List.filter (fun x -> x != e) !pending;
            clock := t;
            incr executed;
            if not (List.mem s !disarmed) then expected := s :: !expected;
            true
      in
      let next_due limit =
        match List.sort cmp !pending with (t, _) :: _ -> t <= limit | [] -> false
      in
      let apply = function
        | Schedule d ->
            let fn, s = event () in
            Sim.Engine.schedule eng ~at:(!clock +. d) fn;
            pending := (!clock +. d, s) :: !pending;
            true
        | Arm d ->
            let fn, s = event () in
            timers := (Sim.Engine.arm eng ~at:(!clock +. d) fn, s) :: !timers;
            pending := (!clock +. d, s) :: !pending;
            true
        | Disarm i ->
            (match !timers with
            | [] -> ()
            | l ->
                let tm, s = List.nth l (i mod List.length l) in
                Sim.Engine.disarm tm;
                disarmed := s :: !disarmed);
            true
        | Batch ds ->
            let evs =
              List.map
                (fun d ->
                  let fn, s = event () in
                  pending := (!clock +. d, s) :: !pending;
                  (!clock +. d, fn))
                ds
            in
            Sim.Engine.schedule_batch eng evs;
            true
        | Step -> Sim.Engine.step eng = model_pop ()
        | Run_until d ->
            let limit = !clock +. d in
            Sim.Engine.run_until eng limit;
            while next_due limit do ignore (model_pop ()) done;
            if !clock < limit then clock := limit;
            true
      in
      List.for_all
        (fun op ->
          apply op
          && Sim.Engine.now eng = !clock
          && Sim.Engine.pending eng = List.length !pending
          && Sim.Engine.executed eng = !executed)
        ops
      && begin
        Sim.Engine.run eng;
        while model_pop () do () done;
        !fired = !expected && Sim.Engine.executed eng = !executed
      end)

(* ------------------------------------------------------------------ *)
(* Guard timers: a settled call lets go of what its timer captured      *)
(* ------------------------------------------------------------------ *)

(* Each check parks a fresh sentinel in a weak slot and lets only the
   caller's continuations capture it. The capturing closures are built in
   functions that are never inlined, so no stack slot of the test holds
   the sentinel. *)
let[@inline never] sentinel slot =
  let s = Bytes.make 64 's' in
  Weak.set slot 0 (Some s);
  s

let hold s = ignore (Sys.opaque_identity s)

(* Step until the call has settled (and for [linger] seconds more, time
   for a stream to close), then check that the guard's instant is still
   ahead and that a major collection frees the sentinel. *)
let released ~what ?(linger = 0.0) eng slot settled ~before =
  while (not !settled) && Sim.Engine.step eng do () done;
  Alcotest.(check bool) (what ^ ": settled") true !settled;
  if linger > 0.0 then Sim.Engine.run_until eng (Sim.Engine.now eng +. linger);
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f s is before the guard timer's instant %.3f s" what
       (Sim.Engine.now eng) before)
    true
    (Sim.Engine.now eng < before && Sim.Engine.pending eng > 0);
  Gc.full_major ();
  Alcotest.(check bool) (what ^ ": sentinel collected") false (Weak.check slot 0)

let[@inline never] arm_holding eng slot =
  let s = sentinel slot in
  Sim.Engine.arm eng ~at:1.0 (fun () -> hold s)

let disarm_releases () =
  let eng = Sim.Engine.create () in
  let slot = Weak.create 1 in
  let tm = arm_holding eng slot in
  Gc.full_major ();
  Alcotest.(check bool) "an armed timer keeps its closure" true (Weak.check slot 0);
  Sim.Engine.disarm tm;
  Gc.full_major ();
  Alcotest.(check bool) "a disarmed one lets go while queued" false
    (Weak.check slot 0);
  Alcotest.(check int) "the event is still queued" 1 (Sim.Engine.pending eng);
  Sim.Engine.disarm tm;
  Sim.Engine.run eng;
  Alcotest.(check (float 0.0)) "it fired at its instant" 1.0 (Sim.Engine.now eng);
  Alcotest.(check int) "and was counted" 1 (Sim.Engine.executed eng)

let udp_pair () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create ~seed:5L eng in
  let a = Sim.Host.create ~name:"a" ~ips:[ Sim.Addr.of_quad 10 9 0 1 ] () in
  let b = Sim.Host.create ~name:"b" ~ips:[ Sim.Addr.of_quad 10 9 0 2 ] () in
  Sim.Net.attach net a;
  Sim.Net.attach net b;
  (eng, net, a, b)

let[@inline never] rpc_call net a b slot settled =
  let s = sentinel slot in
  Sim.Rpc.call net a ~timeout:1.0 ~dst:(Sim.Host.primary_ip b) ~dport:7
    (Bytes.of_string "ping")
    ~on_reply:(fun _ -> hold s; settled := true)
    ~on_timeout:(fun () -> hold s)

let rpc_releases what () =
  let eng, net, a, b = udp_pair () in
  Sim.Net.listen net b ~port:7 (fun pkt ->
      Sim.Net.send net b ~sport:7 ~dst:pkt.Sim.Packet.src
        ~dport:pkt.Sim.Packet.sport pkt.Sim.Packet.payload);
  let slot = Weak.create 1 and settled = ref false in
  rpc_call net a b slot settled;
  released ~what eng slot settled ~before:0.9

(* The echo service behind both transport legs. With a path MTU below the
   request, the caller skips the datagram and goes straight to the
   stream. *)
let[@inline never] transport_call ~mtu net a b slot settled =
  Sim.Net.set_mtu net mtu;
  let s = sentinel slot in
  Sim.Transport.call net a ~timeout:1.0 ~tcp_timeout:2.0
    ~dst:(Sim.Host.primary_ip b) ~dport:7 (Bytes.make 300 'q')
    ~on_reply:(fun _ -> hold s; settled := true)
    ~on_timeout:(fun () -> hold s)

let transport_releases ~mtu ~linger ~before what () =
  let eng, net, a, b = udp_pair () in
  ignore
    (Sim.Transport.serve net b ~port:7 (fun ~peer:_ req ~reply ->
         reply (Bytes.sub req 0 16)));
  let slot = Weak.create 1 and settled = ref false in
  transport_call ~mtu net a b slot settled;
  released ~what eng slot settled ~linger ~before

let[@inline never] tcpish_exchange net a b slot settled =
  let s = sentinel slot in
  let conn =
    Sim.Tcpish.connect net a ~dst:(Sim.Host.primary_ip b) ~dport:9
      ~on_connected:(fun conn ->
        Sim.Tcpish.on_message conn (fun _ -> hold s; Sim.Tcpish.close conn);
        Sim.Tcpish.send_message conn (Bytes.of_string "hello"))
      ()
  in
  Sim.Tcpish.on_close conn (fun ~reset:_ -> hold s; settled := true)

let tcpish_releases what () =
  let eng, net, a, b = udp_pair () in
  Sim.Tcpish.listen net b ~port:9
    ~on_accept:(fun conn ->
      Sim.Tcpish.on_message conn (fun m -> Sim.Tcpish.send_message conn m))
    ();
  let slot = Weak.create 1 and settled = ref false in
  tcpish_exchange net a b slot settled;
  released ~what eng slot settled ~before:0.225

(* The client calls run on the attack testbed's file server. Each
   sentinel is made inside the continuation that starts the guarded call,
   so no earlier exchange's closures capture it. *)
let[@inline never] ap_exchange (bed : Attacks.Testbed.t) creds slot settled =
  let s = sentinel slot in
  Kerberos.Client.ap_exchange bed.victim creds ~deadline:5.0
    ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:bed.file_port (fun r ->
      hold s;
      ignore (Attacks.Testbed.expect "ap" r);
      settled := true)

let[@inline never] call_priv (bed : Attacks.Testbed.t) chan slot settled =
  let s = sentinel slot in
  Kerberos.Client.call_priv bed.victim chan ~deadline:5.0
    (Bytes.of_string "READ /f0") ~k:(fun r ->
      hold s;
      ignore (Attacks.Testbed.expect "priv" r);
      settled := true)

let client_releases start what () =
  let open Kerberos in
  let bed = Attacks.Testbed.make ~profile:Profile.v4 () in
  let slot = Weak.create 1 and settled = ref false and t0 = ref 0.0 in
  Client.login bed.victim ~password:bed.victim_password (fun r ->
      ignore (Attacks.Testbed.expect "login" r);
      Client.get_ticket bed.victim ~service:bed.file_principal (fun r ->
          let creds = Attacks.Testbed.expect "ticket" r in
          t0 := Sim.Engine.now bed.eng;
          start bed creds slot settled));
  while !t0 = 0.0 && Sim.Engine.step bed.eng do () done;
  released ~what bed.eng slot settled ~before:(!t0 +. 5.0)

let channel_then_call_priv (bed : Attacks.Testbed.t) creds slot settled =
  Kerberos.Client.ap_exchange bed.victim creds
    ~dst:(Sim.Host.primary_ip bed.file_host) ~dport:bed.file_port (fun r ->
      call_priv bed (Attacks.Testbed.expect "ap" r) slot settled)

(* The network records a host's addresses, not the host: once its owner
   drops it, the host and its ticket file are garbage, and its address
   stays taken. *)
let[@inline never] attach_and_drop net slot =
  let host = Sim.Host.create ~name:"ws" ~ips:[ Sim.Addr.of_quad 10 9 0 3 ] () in
  Sim.Host.cache_put host "tkt" (Bytes.make 64 't');
  Sim.Net.attach net host;
  Weak.set slot 0 (Some host)

let dropped_host_released what () =
  let _, net, _, _ = udp_pair () in
  let slot = Weak.create 1 in
  attach_and_drop net slot;
  Gc.full_major ();
  Alcotest.(check bool) (what ^ ": host collected") false (Weak.check slot 0);
  let again = Sim.Host.create ~name:"ws2" ~ips:[ Sim.Addr.of_quad 10 9 0 3 ] () in
  Alcotest.check_raises (what ^ ": its address stays taken")
    (Invalid_argument "Net.attach: address 10.9.0.3 already in use") (fun () ->
      Sim.Net.attach net again)

(* What a finished client leaves: per client of the toy login storm, at
   600 simulated seconds. Its record, wallet, TGT, generator, host and
   ticket file are free by then; the AP server's session for it, the
   operator view's entry for its address and the network's record of
   that address stay. It is read against a storm of 1 client, not
   against set-up, because set-up holds no client. The ceiling is the
   reading when a server session came to keep only what its next frame
   reads (94.6 words; 105.3 before) plus about 4 %; a counted slot that
   kept its client read 326.9. *)
let finished_clients_release what () =
  let left = words_per_toy_client snd in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f live words left per client, ceiling 98" what left)
    true (left <= 98.0)

let release_cases =
  [ ("Rpc.call", rpc_releases);
    ( "Transport.call, datagram leg",
      transport_releases ~mtu:None ~linger:0.0 ~before:0.9 );
    (* The stream closes within a few round trips of the reply; its own
       retransmit timer comes due at 0.225 s at the earliest. *)
    ( "Transport.call, stream leg",
      transport_releases ~mtu:(Some 100) ~linger:0.05 ~before:0.225 );
    ("closed Tcpish connection", tcpish_releases);
    ("Client.ap_exchange ~deadline", client_releases ap_exchange);
    ("Client.call_priv ~deadline", client_releases channel_then_call_priv);
    ("finished Loadgen clients", finished_clients_release);
    ("attached host, dropped by its owner", dropped_host_released) ]

(* ------------------------------------------------------------------ *)
(* Lazy materialization: same realm, same bytes, fewer registrations   *)
(* ------------------------------------------------------------------ *)

let user_at = Workloads.Passwords.user_at ~seed:4269L ~weak_fraction:0.4

let user_at_is_index_pure () =
  (* Derivation depends on (seed, index) alone — the registrar, the lazy
     provider, and the client can each derive user [i] independently. *)
  let a = user_at 17 and b = user_at 17 in
  Alcotest.(check string) "same name" a.Workloads.Passwords.name
    b.Workloads.Passwords.name;
  Alcotest.(check string) "same password" a.Workloads.Passwords.password
    b.Workloads.Passwords.password;
  let other = Workloads.Passwords.user_at ~seed:4270L ~weak_fraction:0.4 17 in
  Alcotest.(check bool) "seed matters" false
    (String.equal a.Workloads.Passwords.password
       other.Workloads.Passwords.password);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Passwords.user_at: negative index") (fun () ->
      ignore (user_at (-1)))

let kdb_lazy_provider () =
  let db = Kerberos.Kdb.create ~shards:4 () in
  let u i = Kerberos.Principal.user ~realm (user_at i).Workloads.Passwords.name in
  Kerberos.Kdb.set_lazy_provider db (fun name ->
      match Kerberos.Principal.of_string name with
      | { Kerberos.Principal.name = n; instance = ""; realm = r }
        when r = realm && String.length n > 1 && n.[0] = 'u' -> (
          match int_of_string_opt (String.sub n 1 (String.length n - 1)) with
          | Some i when i >= 0 ->
              Some
                { Kerberos.Kdb.key =
                    Crypto.Str2key.derive (user_at i).Workloads.Passwords.password;
                  kind = Kerberos.Kdb.User }
          | _ -> None)
      | _ -> None
      | exception Invalid_argument _ -> None)
  ;
  Alcotest.(check int) "nothing materialized yet" 0
    (Kerberos.Kdb.lazy_materialized db);
  let e1 = Kerberos.Kdb.lookup db (u 3) in
  Alcotest.(check bool) "lookup materializes" true (e1 <> None);
  Alcotest.(check int) "memoized once" 1 (Kerberos.Kdb.lazy_materialized db);
  let e2 = Kerberos.Kdb.lookup db (u 3) in
  Alcotest.(check bool) "second lookup identical" true (e1 = e2);
  Alcotest.(check int) "still one entry" 1 (Kerberos.Kdb.lazy_materialized db);
  (* A real registration — a password change — supersedes the memo. *)
  Kerberos.Kdb.add_user db (u 3) ~password:"NewSecret99";
  (match Kerberos.Kdb.lookup db (u 3) with
  | Some e ->
      Alcotest.(check bool) "registration wins over memo" true
        (Bytes.equal e.Kerberos.Kdb.key (Crypto.Str2key.derive "NewSecret99"))
  | None -> Alcotest.fail "registered user vanished");
  Alcotest.(check bool) "unknown principal still misses" true
    (Kerberos.Kdb.lookup db (Kerberos.Principal.user ~realm "mallory") = None)

let lazy_matches_eager () =
  let cfg =
    { Workloads.Loadgen.default with
      Workloads.Loadgen.users = 300; shards = 4; kdcs = 2;
      active_clients = 40; requests_per_client = 6; seed = 4269L }
  in
  let eager = Workloads.Loadgen.run cfg in
  let lazy_r =
    Workloads.Loadgen.run { cfg with Workloads.Loadgen.lazy_users = true }
  in
  (* Everything the traffic can observe must match; only the registered
     population (shard_entries) legitimately differs — that is the point. *)
  let masked =
    { eager with
      Workloads.Loadgen.r_config = lazy_r.Workloads.Loadgen.r_config;
      shard_entries = lazy_r.Workloads.Loadgen.shard_entries }
  in
  Alcotest.(check bool) "reports identical up to registration" true
    (masked = lazy_r);
  let total a = Array.fold_left ( + ) 0 a in
  Alcotest.(check bool) "lazy registers fewer principals" true
    (total lazy_r.Workloads.Loadgen.shard_entries
    < total eager.Workloads.Loadgen.shard_entries);
  Alcotest.(check bool) "but at least the touched ones" true
    (total lazy_r.Workloads.Loadgen.shard_entries > 0)

let () =
  Alcotest.run "perf"
    [ ( "schedule-cache",
        [ Alcotest.test_case "seal transparent" `Quick cache_transparent_seal;
          Alcotest.test_case "load transparent" `Quick cache_transparent_load;
          QCheck_alcotest.to_alcotest memo_exact_under_eviction;
          Alcotest.test_case "session schedules once" `Quick
            session_schedules_once;
          Alcotest.test_case "crypto per request" `Quick crypto_per_request;
          Alcotest.test_case "footprint" `Quick footprint;
          Alcotest.test_case "a sequence-numbered session holds no cache" `Quick
            sequence_session_holds_no_cache ] );
      ( "engine",
        [ QCheck_alcotest.to_alcotest engine_matches_model;
          Alcotest.test_case "disarm releases the closure" `Quick
            disarm_releases ] );
      ( "release",
        List.map
          (fun (name, f) -> Alcotest.test_case name `Quick (f name))
          release_cases );
      ( "lazy-users",
        [ Alcotest.test_case "user_at index-pure" `Quick user_at_is_index_pure;
          Alcotest.test_case "kdb provider" `Quick kdb_lazy_provider;
          Alcotest.test_case "lazy = eager" `Quick lazy_matches_eager ] ) ]
