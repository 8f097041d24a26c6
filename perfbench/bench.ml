(* One repetition of one benchmark workload: build the Loadgen world, run
   it, and print one JSON object on stdout.

     bench.exe describe
     bench.exe setup --workload NAME [--seed N] [--toy]
     bench.exe run --workload NAME [--seed N] [--toy]
                   [--trace --horizon SIM_SECONDS --spans FILE]

   Untraced runs report the end-to-end quantities. Traced runs also switch
   on a packet tap, Runtime_events, an engine tick that samples the queue
   depth, and the unit-cost probes, and report the layer ledger. Every
   measurement is taken from outside the library: public counters, the
   [on_world] hook, and timed calls into each layer's public functions.
   run.py starts one process per repetition, so process-wide state (the
   DES schedule memo, the default collector, the GC heap) never leaks
   between repetitions. *)

module L = Workloads.Loadgen
module Des = Crypto.Des
module Metrics = Telemetry.Metrics

(* --- clock, output ------------------------------------------------------ *)

let now_ns () = Monotonic_clock.now ()
let ns_between a b = Int64.to_float (Int64.sub b a)

type field = F of float | I of int | S of string

let print_json fields =
  let value = function
    | F x when Float.is_finite x -> Printf.sprintf "%.17g" x
    | F _ -> "null"
    | I n -> string_of_int n
    | S s -> Printf.sprintf "%S" s
  in
  print_endline
    ("{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (value v)) fields)
    ^ "}")

(* --- workloads ---------------------------------------------------------- *)

type workload = {
  name : string;
  mtu : int option;  (** path MTU pinned on the built world *)
  config : toy:bool -> int64 -> L.config;
}

let committed_seed = 4269L

(* The committed BENCH_load.json main campaign, with more requests per
   client so one run lasts a few seconds. Tickets are reused; per-packet
   engine, net and telemetry work plus session crypto dominate. *)
let first_wave =
  { name = "first_wave"; mtu = None;
    config =
      (fun ~toy seed ->
        { users = 1_000_000; shards = 8; kdcs = 4; services = 10;
          active_clients = (if toy then 100 else 2000);
          requests_per_client = (if toy then 5 else 25);
          think_time = 0.2; ramp = 20.0; ccache = true; zipf_exponent = 1.3;
          seed; profile = Kerberos.Profile.v4; lifetime = 28800.0;
          lightweight = true; lazy_users = true }) }

(* An eagerly registered realm (one Kdb write and one string-to-key per
   user in setup), then many distinct clients that each log in once and
   send one request: every request pays an AS exchange. *)
let login_storm =
  { name = "login_storm"; mtu = None;
    config =
      (fun ~toy seed ->
        { users = (if toy then 2_000 else 100_000); shards = 8; kdcs = 4;
          services = 10; active_clients = (if toy then 200 else 20_000);
          requests_per_client = 1; think_time = 0.2; ramp = 20.0;
          ccache = true; zipf_exponent = 1.3; seed;
          profile = Kerberos.Profile.v4; lifetime = 28800.0;
          lightweight = true; lazy_users = false }) }

(* Every recommendation of the paper switched on, no credential cache,
   and a 200-byte path MTU, so every reply falls back to framed TCP. *)
let hardened_tcp =
  { name = "hardened_tcp"; mtu = Some 200;
    config =
      (fun ~toy seed ->
        { users = 1_000_000; shards = 8; kdcs = 4; services = 10;
          active_clients = (if toy then 20 else 200);
          requests_per_client = (if toy then 3 else 80);
          think_time = 0.2; ramp = 20.0; ccache = false; zipf_exponent = 1.3;
          seed; profile = Kerberos.Profile.hardened; lifetime = 28800.0;
          lightweight = true; lazy_users = true }) }

let workloads = [ first_wave; login_storm; hardened_tcp ]

(* --- traced-run state --------------------------------------------------- *)

(* Benchmark-level spans, kept in memory and written out at exit. *)
type span = { s_name : string; s_parent : string; s_start : int64; s_end : int64 }

let spans = ref []
let add_span ?(parent = "rep") name s_start s_end =
  spans := { s_name = name; s_parent = parent; s_start; s_end } :: !spans

let timed ?parent name f =
  let t0 = now_ns () in
  let r = f () in
  add_span ?parent name t0 (now_ns ());
  r

let write_spans path ~run_id =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"run_id\": %S, \"name\": %S, \"parent\": %S, \"start_ns\": %Ld, \"end_ns\": %Ld}\n"
        run_id s.s_name s.s_parent s.s_start s.s_end)
    (List.rev !spans);
  close_out oc

(* GC phases from Runtime_events. Only outermost phases are kept, so
   nested phases (a mark inside a major slice) are not counted twice. *)
module Gc_phases = struct
  let depth = ref 0
  let start = ref 0L
  let outer = ref Runtime_events.EV_MINOR
  let lost = ref 0
  let window_from = ref Int64.max_int
  let window_ns = ref 0.0
  let cursor = ref None

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ ts phase ->
        if !depth = 0 then begin
          start := Runtime_events.Timestamp.to_int64 ts;
          outer := phase
        end;
        incr depth)
      ~runtime_end:(fun _ ts _ ->
        if !depth > 0 then begin
          decr depth;
          if !depth = 0 then begin
            let t1 = Runtime_events.Timestamp.to_int64 ts in
            add_span ~parent:"gc"
              ("gc." ^ Runtime_events.runtime_phase_name !outer) !start t1;
            if !start >= !window_from then
              window_ns := !window_ns +. ns_between !start t1
          end
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let start_recording () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ()

  (* Sum GC time only from phases that start at or after [t]. *)
  let open_window t = poll (); window_from := t; window_ns := 0.0
end

(* --- the unit-cost probes ---------------------------------------------- *)

(* Median over [trials] of a per-unit cost. [f] runs one trial and returns
   (elapsed ns, units done). *)
let median_cost ~name ~trials f =
  let xs =
    Array.init trials (fun _ ->
        timed ~parent:"probes" name (fun () ->
            let ns, units = f () in
            ns /. float_of_int (max 1 units)))
  in
  Array.sort compare xs;
  xs.(trials / 2)

(* Repeat [body] until at least [min_ns] have passed; return (ns, calls). *)
let loop_for ~min_ns body =
  let t0 = now_ns () in
  let calls = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < min_ns do
    body ();
    incr calls;
    elapsed := ns_between t0 (now_ns ())
  done;
  (!elapsed, !calls)

let trial_ns = 20e6

let weak_fraction = 0.4 (* Loadgen's population mix *)

let passwords cfg n =
  Array.init n (fun i ->
      (Workloads.Passwords.user_at ~seed:cfg.L.seed ~weak_fraction i)
        .Workloads.Passwords.password)

let probe_des_block cfg =
  let key = Des.schedule (Crypto.Str2key.derive (passwords cfg 1).(0)) in
  let buf = Bytes.make 64 'k' in
  let iv = Crypto.Mode.zero_iv in
  let encrypt =
    match cfg.L.profile.Kerberos.Profile.priv_mode with
    | Kerberos.Profile.Pcbc_v4 -> Crypto.Mode.pcbc_encrypt_into
    | Cbc_v5_draft | Cbc_iv_chain -> Crypto.Mode.cbc_encrypt_into
  in
  median_cost ~name:"probe.des_block" ~trials:5 (fun () ->
      let b0 = Des.blocks_performed () in
      let ns, _ = loop_for ~min_ns:trial_ns (fun () -> encrypt key ~iv ~src:buf ~dst:buf) in
      (ns, Des.blocks_performed () - b0))

let probe_des_schedule cfg =
  let rng = Util.Rng.create cfg.L.seed in
  let keys = Array.init 256 (fun _ -> Des.random_key rng) in
  median_cost ~name:"probe.des_schedule" ~trials:5 (fun () ->
      let ns, calls =
        loop_for ~min_ns:trial_ns (fun () -> Array.iter (fun k -> ignore (Des.schedule k)) keys)
      in
      (ns, calls * Array.length keys))

let probe_str2key cfg =
  let pw = passwords cfg 256 in
  median_cost ~name:"probe.str2key" ~trials:5 (fun () ->
      let ns, calls =
        loop_for ~min_ns:trial_ns (fun () ->
            Array.iter (fun p -> ignore (Crypto.Str2key.derive p)) pw)
      in
      (ns, calls * Array.length pw))
  /. 1e3

(* DH key generation is one modular exponentiation. Profiles without a DH
   login are probed at the hardened profile's group size. *)
let dh_bits cfg =
  match cfg.L.profile.Kerberos.Profile.login with
  | Dh_protected | Handheld_dh -> cfg.L.profile.Kerberos.Profile.dh_group_bits
  | Password | Handheld_challenge -> Kerberos.Profile.hardened.dh_group_bits

let modexps_per_as cfg =
  match cfg.L.profile.Kerberos.Profile.login with
  (* a keypair and a shared secret on each side of the AS exchange *)
  | Dh_protected | Handheld_dh -> 4
  | Password | Handheld_challenge -> 0

let probe_modexp cfg =
  let grp = Crypto.Dh.group ~bits:(dh_bits cfg) in
  let rng = Util.Rng.create cfg.L.seed in
  median_cost ~name:"probe.modexp" ~trials:5 (fun () ->
      loop_for ~min_ns:trial_ns (fun () -> ignore (Crypto.Dh.generate rng grp)))
  /. 1e3

(* Decode (and re-encode) the captured payloads that parse under the
   workload's encoding; cost per byte of each direction. *)
let probe_wire cfg payloads =
  let kind = cfg.L.profile.Kerberos.Profile.encoding in
  (* Application-port datagrams carry a one-byte frame tag first. *)
  let ok =
    List.filter_map
      (fun p ->
        match Wire.Encoding.decode_result kind p with
        | Ok v -> Some (p, v)
        | Error _ -> (
            match Kerberos.Frames.unwrap p with
            | Some (_, body) -> (
                match Wire.Encoding.decode_result kind body with
                | Ok v -> Some (body, v)
                | Error _ -> None)
            | None -> None))
      payloads
  in
  let bytes = List.fold_left (fun a (p, _) -> a + Bytes.length p) 0 ok in
  if bytes = 0 then (0.0, 0.0, 0)
  else
    let decode =
      median_cost ~name:"probe.wire_decode" ~trials:5 (fun () ->
          let ns, calls =
            loop_for ~min_ns:trial_ns (fun () ->
                List.iter (fun (p, _) -> ignore (Wire.Encoding.decode_result kind p)) ok)
          in
          (ns, calls * bytes))
    in
    let encode =
      median_cost ~name:"probe.wire_encode" ~trials:5 (fun () ->
          let ns, calls =
            loop_for ~min_ns:trial_ns (fun () ->
                List.iter (fun (_, v) -> ignore (Wire.Encoding.encode kind v)) ok)
          in
          (ns, calls * bytes))
    in
    (decode, encode, List.length ok)

(* No-op events through a fresh engine whose queue is held at [depth]. *)
let probe_event ~depth =
  let depth = max 1 depth in
  median_cost ~name:"probe.event" ~trials:5 (fun () ->
      let eng = Sim.Engine.create () in
      let rng = Random.State.make [| depth |] in
      let budget = ref (max 200_000 (4 * depth)) in
      let rec ev () =
        decr budget;
        if !budget > 0 then
          Sim.Engine.schedule eng ~at:(Sim.Engine.now eng +. Random.State.float rng 1.0) ev
      in
      for _ = 1 to depth do
        Sim.Engine.schedule eng ~at:(Random.State.float rng 1.0) ev
      done;
      let t0 = now_ns () in
      Sim.Engine.run eng;
      (ns_between t0 (now_ns ()), Sim.Engine.executed eng))

(* Lightweight span begin/finish pairs under the run's own span names. *)
let probe_span names =
  let names = if names = [||] then [| "bench" |] else names in
  median_cost ~name:"probe.span" ~trials:5 (fun () ->
      let tel = Telemetry.Collector.create ~lightweight:true () in
      let n = Array.length names in
      let i = ref 0 in
      let ns, calls =
        loop_for ~min_ns:trial_ns (fun () ->
            for _ = 1 to 64 do
              let s = Telemetry.Collector.span_begin tel ~component:"bench" names.(!i mod n) in
              Telemetry.Collector.span_finish tel s;
              incr i
            done)
      in
      (ns, calls * 64))

(* Registration of the workload's own users into a fresh database: the
   Kdb write path, string-to-key included. *)
let probe_kdb_register cfg =
  let users =
    Array.init 256 (fun i -> Workloads.Passwords.user_at ~seed:cfg.L.seed ~weak_fraction i)
  in
  median_cost ~name:"probe.kdb_register" ~trials:5 (fun () ->
      let db = Kerberos.Kdb.create ~shards:cfg.L.shards () in
      let t0 = now_ns () in
      Array.iter
        (fun u ->
          Kerberos.Kdb.add_user db
            (Kerberos.Principal.user ~realm:"LOAD" u.Workloads.Passwords.name)
            ~password:u.Workloads.Passwords.password)
        users;
      (ns_between t0 (now_ns ()), Array.length users))
  /. 1e3

(* --- one repetition ----------------------------------------------------- *)

exception Built

(* Set-up alone, in a process of its own: the world is built (and abandoned
   at [on_world]) until 51 builds or a quarter second of building, and the
   median is reported. Set-up is small next to its noise on the lazy
   workloads, and the heap a run leaves behind would add major GC slices
   to every later build. *)
let setup_only cfg =
  let xs = ref [] and total = ref 0.0 in
  while !xs = [] || (List.length !xs < 51 && !total < 0.25) do
    let t0 = now_ns () in
    let t1 = ref t0 in
    (try ignore (L.run_timed cfg ~on_world:(fun _ _ -> t1 := now_ns (); raise Built))
     with Built -> ());
    let s = ns_between t0 !t1 /. 1e9 in
    xs := s :: !xs;
    total := !total +. s
  done;
  let a = Array.of_list !xs in
  Array.sort compare a;
  let n = Array.length a in
  let median = if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0 in
  print_json [ ("setup_s", F median); ("builds", I n) ]

let reservoir_size = 2048

(* The stream endpoints of the KDCs and of Loadgen's application services. *)
let stream_ports = List.map Sim.Transport.tcp_port [ Kerberos.Kdc.default_port; 600 ]

let report_digest r =
  Digest.to_hex (Digest.string (Telemetry.Json.to_string (L.report_to_json r)))

let counter tel name = Metrics.value (Metrics.counter (Telemetry.Collector.metrics tel) name)

let span_histograms tel =
  List.filter
    (fun (name, h) ->
      let n = String.length name in
      n > 13 && String.sub name 0 5 = "span." && String.sub name (n - 8) 8 = ".seconds"
      && Metrics.hist_count h > 0)
    (Metrics.histograms (Telemetry.Collector.metrics tel))

let run w ~toy ~seed ~trace ~horizon ~spans_out =
  let cfg = w.config ~toy seed in
  if trace then Gc_phases.start_recording ();
  (* Counters at the world/run boundary, filled in by [on_world]. *)
  let t_world = ref 0L in
  let blocks0 = ref 0 and schedules0 = ref 0 in
  let gc0 = ref (Gc.quick_stat ()) in
  let world = ref None in
  let packets = ref 0 and wire_bytes = ref 0 and datagrams = ref 0 in
  let captured = Array.make reservoir_size Bytes.empty in
  let sample_rng = Random.State.make [| 7 |] in
  let ticks = ref 0 and pending_sum = ref 0 and pending_max = ref 0 in
  let on_world (wd : Workloads.Attack_mix.world) tel =
    t_world := now_ns ();
    Option.iter (fun m -> Sim.Net.set_mtu wd.w_net (Some m)) w.mtu;
    world := Some (wd, tel);
    if trace then begin
      Sim.Net.add_tap wd.w_net (fun pkt ->
          let p = pkt.Sim.Packet.payload in
          incr packets;
          wire_bytes := !wire_bytes + Bytes.length p;
          (* Datagrams only: a stream segment carries a slice of a framed
             message, not a message. *)
          if not (List.mem pkt.dport stream_ports || List.mem pkt.sport stream_ports)
          then begin
            if !datagrams < reservoir_size then captured.(!datagrams) <- Bytes.copy p
            else begin
              let j = Random.State.int sample_rng (!datagrams + 1) in
              if j < reservoir_size then captured.(j) <- Bytes.copy p
            end;
            incr datagrams
          end);
      (* The tick never fires at or past the run's known end, so the
         simulated clock ends where an untraced run's does. *)
      let eng = wd.w_engine in
      let dt = horizon /. 1000.0 in
      let rec tick () =
        incr ticks;
        let p = Sim.Engine.pending eng in
        pending_sum := !pending_sum + p;
        if p > !pending_max then pending_max := p;
        Gc_phases.poll ();
        let next = Sim.Engine.now eng +. dt in
        if next < horizon then Sim.Engine.schedule eng ~at:next tick
      in
      if dt > 0.0 && dt < horizon then Sim.Engine.schedule eng ~at:dt tick
    end;
    blocks0 := Des.blocks_performed ();
    schedules0 := Des.schedules_performed ();
    gc0 := Gc.quick_stat ();
    if trace then Gc_phases.open_window !t_world
  in
  let t0 = now_ns () in
  let report, _ = L.run_timed ~on_world cfg in
  let t_end = now_ns () in
  let gc1 = Gc.quick_stat () in
  let blocks = Des.blocks_performed () - !blocks0 in
  let schedules = Des.schedules_performed () - !schedules0 in
  let wd, tel = match !world with Some x -> x | None -> failwith "on_world never ran" in
  add_span "setup" t0 !t_world;
  add_span "run" !t_world t_end;
  let setup_s = ns_between t0 !t_world /. 1e9 in
  let run_ns = ns_between !t_world t_end in
  let completed = report.L.completed in
  let per_req x = float_of_int x /. float_of_int (max 1 completed) in
  let e2e =
    [ ("workload", S w.name); ("seed", S (Int64.to_string seed));
      ("digest", S (report_digest report)); ("completed", I completed);
      ("errors", I report.L.errors);
      ("attempted", I (cfg.L.active_clients * cfg.L.requests_per_client));
      ("sim_seconds", F report.L.sim_seconds); ("setup_s", F setup_s);
      ("run_s", F (run_ns /. 1e9));
      ("requests_per_s", F (float_of_int completed /. (run_ns /. 1e9)));
      ("peak_heap_mb",
       F (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0)) ]
  in
  if not trace then print_json e2e
  else begin
    Gc_phases.poll ();
    let gc_run_ns = !Gc_phases.window_ns in
    let events = Sim.Engine.executed wd.w_engine - !ticks in
    let hists = span_histograms tel in
    let spans_run = List.fold_left (fun a (_, h) -> a + Metrics.hist_count h) 0 hists in
    let span_names = Array.of_list (List.map fst hists) in
    let udp = counter tel "transport.udp.calls" and tcp = counter tel "transport.tcp.calls" in
    let mean_pending = if !ticks = 0 then 1 else !pending_sum / !ticks in
    let payloads = Array.to_list (Array.sub captured 0 (min !datagrams reservoir_size)) in
    let des_block_ns = probe_des_block cfg in
    let des_schedule_ns = probe_des_schedule cfg in
    let str2key_us = probe_str2key cfg in
    let modexp_us = probe_modexp cfg in
    let decode_ns_per_b, encode_ns_per_b, decodable = probe_wire cfg payloads in
    let event_ns = probe_event ~depth:mean_pending in
    let span_ns = probe_span span_names in
    let kdb_register_us = probe_kdb_register cfg in
    Gc_phases.poll ();
    let modexps = modexps_per_as cfg * report.L.as_requests in
    let share ns = ns /. run_ns in
    let crypto_share =
      share
        ((float_of_int blocks *. des_block_ns)
        +. (float_of_int schedules *. des_schedule_ns)
        +. (float_of_int modexps *. modexp_us *. 1e3))
    in
    let wire_share =
      share (float_of_int !wire_bytes *. (decode_ns_per_b +. encode_ns_per_b))
    in
    let sim_share = share (float_of_int events *. event_ns) in
    let telemetry_share = share (float_of_int spans_run *. span_ns) in
    let gc_share = share gc_run_ns in
    let lookups = Array.fold_left ( + ) 0 report.L.shard_lookups in
    let hits = report.L.ccache_hits and misses = report.L.ccache_misses in
    let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
    let layers =
      [ ("crypto.des_blocks_per_req", F (per_req blocks));
        ("crypto.des_schedules_per_req", F (per_req schedules));
        ("crypto.des_block_ns", F des_block_ns);
        ("crypto.des_schedule_ns", F des_schedule_ns);
        ("crypto.str2key_us", F str2key_us);
        ("crypto.modexp_us", F modexp_us);
        ("crypto.modexps_per_req", F (per_req modexps));
        ("crypto.share", F crypto_share);
        ("wire.bytes_per_req", F (per_req !wire_bytes));
        ("wire.decode_ns_per_kib", F (decode_ns_per_b *. 1024.0));
        ("wire.encode_ns_per_kib", F (encode_ns_per_b *. 1024.0));
        ("wire.decodable_payloads", I decodable);
        ("wire.share", F wire_share);
        ("sim.events_per_req", F (per_req events));
        ("sim.events_per_s", F (float_of_int events /. (run_ns /. 1e9)));
        ("sim.packets_per_req", F (per_req !packets));
        ("sim.tcp_call_ratio", F (ratio tcp udp));
        ("sim.peak_pending", I !pending_max);
        ("sim.mean_pending", I mean_pending);
        ("sim.event_ns", F event_ns);
        ("sim.share", F sim_share);
        ("telemetry.spans_per_req", F (per_req spans_run));
        ("telemetry.span_ns", F span_ns);
        ("telemetry.share", F telemetry_share);
        ("core.as_per_req", F (per_req report.L.as_requests));
        ("core.tgs_per_req", F (per_req report.L.tgs_requests));
        ("core.ccache_hit_ratio", F (ratio hits misses));
        ("core.kdb_lookups_per_req", F (per_req lookups));
        ("core.kdb_register_us", F kdb_register_us);
        ("gc.minor_words_per_req",
         F ((gc1.Gc.minor_words -. !gc0.Gc.minor_words) /. float_of_int (max 1 completed)));
        ("gc.promoted_words_per_req",
         F ((gc1.Gc.promoted_words -. !gc0.Gc.promoted_words) /. float_of_int (max 1 completed)));
        ("gc.major_collections", I gc1.Gc.major_collections);
        ("gc.time_share", F gc_share);
        ("gc.lost_events", I !Gc_phases.lost);
        ("ledger.residual_share",
         F (1.0 -. (crypto_share +. wire_share +. sim_share +. telemetry_share +. gc_share)))
      ]
    in
    print_json (e2e @ layers);
    Option.iter
      (fun path ->
        write_spans path
          ~run_id:(Printf.sprintf "%s-%Ld-%Ld" w.name seed t0))
      spans_out
  end

(* --- command line ------------------------------------------------------- *)

(* Every workload's configuration, full size and toy size, as JSON — what
   run.py's self-check compares against the recorded ledger. *)
let config_json ~mtu (c : L.config) =
  let open Telemetry.Json in
  Obj
    [ ("users", Int c.users); ("shards", Int c.shards); ("kdcs", Int c.kdcs);
      ("services", Int c.services); ("active_clients", Int c.active_clients);
      ("requests_per_client", Int c.requests_per_client);
      ("think_time", Float c.think_time); ("ramp", Float c.ramp);
      ("ccache", Bool c.ccache); ("zipf_exponent", Float c.zipf_exponent);
      ("profile", Str c.profile.Kerberos.Profile.name);
      ("lifetime", Float c.lifetime); ("lightweight", Bool c.lightweight);
      ("lazy_users", Bool c.lazy_users);
      ("mtu", match mtu with Some m -> Int m | None -> Null) ]

let describe () =
  let open Telemetry.Json in
  print_endline
    (to_string
       (Obj
          [ ("committed_seed", Str (Int64.to_string committed_seed));
            ("workloads",
             Obj
               (List.map
                  (fun w ->
                    ( w.name,
                      Obj
                        [ ("full", config_json ~mtu:w.mtu (w.config ~toy:false committed_seed));
                          ("toy", config_json ~mtu:w.mtu (w.config ~toy:true committed_seed)) ] ))
                  workloads)) ]))

let () =
  let workload = ref "" and seed = ref committed_seed and toy = ref false in
  let trace = ref false and horizon = ref 0.0 and spans_out = ref None in
  let mode = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N workload seed");
      ("--toy", Arg.Set toy, " reduced-size inputs (self-check)");
      ("--trace", Arg.Set trace, " traced run: tap, tick, Runtime_events, probes");
      ("--horizon", Arg.Set_float horizon, "S the untraced run's sim_seconds");
      ("--spans", Arg.String (fun s -> spans_out := Some s), "FILE write spans here") ]
  in
  Arg.parse spec (fun m -> mode := m)
    "bench.exe (describe | run --workload NAME ... | setup --workload NAME ...)";
  let fail msg = prerr_endline msg; exit 2 in
  let workload () =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> fail ("unknown workload: " ^ !workload)
  in
  match !mode with
  | "describe" -> describe ()
  | "setup" -> setup_only ((workload ()).config ~toy:!toy !seed)
  | "run" ->
      let w = workload () in
      if !trace && !horizon <= 0.0 then fail "--trace needs --horizon";
      run w ~toy:!toy ~seed:!seed ~trace:!trace ~horizon:!horizon ~spans_out:!spans_out
  | m -> fail ("unknown mode: " ^ m)
