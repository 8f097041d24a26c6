(* The telemetry subsystem: registry semantics, trace ring + JSONL round
   trip, span lifecycle (including the engine's leak settling), the
   operator view, determinism of full-protocol traces, and a schema smoke
   test over the exports a short KDC exchange produces. *)

open Kerberos
module T = Telemetry

let realm = "ATHENA"

(* --- metrics registry ---------------------------------------------- *)

let counters_and_gauges () =
  let m = T.Metrics.create () in
  let c = T.Metrics.counter m "reqs" in
  Alcotest.(check int) "fresh counter" 0 (T.Metrics.value c);
  T.Metrics.incr c;
  T.Metrics.add c 4;
  Alcotest.(check int) "incr+add" 5 (T.Metrics.value c);
  let c' = T.Metrics.counter m "reqs" in
  T.Metrics.incr c';
  Alcotest.(check int) "get-or-create shares state" 6 (T.Metrics.value c);
  let g = T.Metrics.gauge m "depth" in
  T.Metrics.set g 3.5;
  Alcotest.(check (float 0.0)) "gauge" 3.5 (T.Metrics.gauge_value g);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: \"reqs\" is a counter, not a gauge") (fun () ->
      ignore (T.Metrics.gauge m "reqs"))

let histogram_buckets () =
  let m = T.Metrics.create () in
  let h = T.Metrics.histogram ~buckets:[| 0.01; 0.1; 1.0 |] m "lat" in
  (* Boundary values land in the bucket whose bound they equal (le). *)
  List.iter (T.Metrics.observe h) [ 0.01; 0.02; 0.1; 0.5; 1.0; 7.0 ];
  Alcotest.(check (array int)) "bucket counts" [| 1; 2; 2; 1 |]
    (T.Metrics.bucket_counts h);
  Alcotest.(check int) "count" 6 (T.Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 8.63 (T.Metrics.hist_sum h);
  Alcotest.check_raises "non-increasing bounds"
    (Invalid_argument "Metrics.histogram: bounds must be strictly increasing")
    (fun () -> ignore (T.Metrics.histogram ~buckets:[| 1.0; 1.0 |] m "bad"))

let fresh_names () =
  let m = T.Metrics.create () in
  Alcotest.(check string) "unused base" "kdc.x" (T.Metrics.fresh_name m "kdc.x");
  ignore (T.Metrics.counter m "kdc.x");
  let n2 = T.Metrics.fresh_name m "kdc.x" in
  Alcotest.(check string) "first suffix" "kdc.x#2" n2;
  ignore (T.Metrics.counter m n2);
  Alcotest.(check string) "second suffix" "kdc.x#3" (T.Metrics.fresh_name m "kdc.x")

(* --- json ----------------------------------------------------------- *)

let json_round_trip () =
  let v =
    T.Json.Obj
      [ ("s", T.Json.Str "a\"b\\c\nd\te\x01");
        ("n", T.Json.Int (-42));
        ("f", T.Json.Float 0.005);
        ("l", T.Json.List [ T.Json.Bool true; T.Json.Null ]) ]
  in
  let s = T.Json.to_string v in
  (match T.Json.of_string s with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v' ->
      Alcotest.(check string) "round trip reprints identically" s
        (T.Json.to_string v'));
  (match T.Json.of_string "{\"a\":1,}" with
  | Ok _ -> Alcotest.fail "trailing comma accepted"
  | Error _ -> ());
  Alcotest.(check string) "nan has no JSON spelling" "null"
    (T.Json.to_string (T.Json.Float Float.nan))

(* --- trace ring ----------------------------------------------------- *)

let ev time kind = { T.Trace.time; severity = T.Trace.Info; component = "test";
                     kind; attrs = [ ("k", "v") ] }

let trace_ring_and_filter () =
  let tr = T.Trace.create ~capacity:3 () in
  List.iter (fun i -> T.Trace.record tr (ev (float_of_int i) "e")) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "capacity bounds the ring" 3 (T.Trace.length tr);
  Alcotest.(check int) "overflow counted" 2 (T.Trace.dropped tr);
  Alcotest.(check (list (float 0.0))) "oldest evicted first" [ 3.0; 4.0; 5.0 ]
    (List.map (fun e -> e.T.Trace.time) (T.Trace.events tr));
  let tr = T.Trace.create () in
  T.Trace.set_level tr T.Trace.Warn;
  T.Trace.record tr (ev 0.0 "quiet");
  T.Trace.record tr { (ev 1.0 "loud") with T.Trace.severity = T.Trace.Error };
  Alcotest.(check int) "below-level filtered" 1 (T.Trace.length tr)

let jsonl_round_trip () =
  let tr = T.Trace.create () in
  T.Trace.record tr (ev 0.25 "span.begin");
  T.Trace.record tr
    { T.Trace.time = 1.0; severity = T.Trace.Warn; component = "kdc";
      kind = "odd attrs"; attrs = [ ("msg", "line\nbreak \"quoted\"") ] };
  let dump = T.Trace.to_jsonl tr in
  match T.Trace.of_jsonl dump with
  | Error e -> Alcotest.failf "of_jsonl: %s" e
  | Ok evs ->
      Alcotest.(check int) "all lines back" 2 (List.length evs);
      let tr' = T.Trace.create () in
      List.iter (T.Trace.record tr') evs;
      Alcotest.(check string) "dump(parse(dump)) = dump" dump (T.Trace.to_jsonl tr')

(* --- span lifecycle -------------------------------------------------- *)

let span_lifecycle () =
  let tel = T.Collector.create () in
  let clock = ref 0.0 in
  T.Collector.set_clock tel (fun () -> !clock);
  let outer = T.Collector.span_begin tel ~component:"c" "outer" in
  let inner =
    T.Collector.with_context tel outer (fun () ->
        T.Collector.span_begin tel ~component:"c" "inner")
  in
  Alcotest.(check (option int)) "context parents" (Some outer.T.Span.id)
    inner.T.Span.parent;
  Alcotest.(check int) "both open" 2 (T.Collector.open_span_count tel);
  clock := 0.5;
  T.Collector.span_finish tel inner;
  T.Collector.span_finish tel ~outcome:"replay-detected" inner;
  Alcotest.(check string) "second finish is a no-op" "ok" inner.T.Span.outcome;
  Alcotest.(check (option (float 0.0))) "duration from sim clock" (Some 0.5)
    (T.Span.duration inner);
  let m = T.Collector.metrics tel in
  Alcotest.(check int) "duration observed once" 1
    (T.Metrics.hist_count (T.Metrics.histogram m "span.inner.seconds"));
  T.Collector.span_abandon tel outer;
  Alcotest.(check string) "abandoned outcome" "abandoned" outer.T.Span.outcome;
  Alcotest.(check int) "none open" 0 (T.Collector.open_span_count tel)

let engine_settles_leaked_spans () =
  let eng = Sim.Engine.create () in
  let tel = T.Collector.create () in
  T.Collector.set_clock tel (fun () -> Sim.Engine.now eng);
  Sim.Engine.attach_telemetry eng tel;
  let leaked = T.Collector.span_begin tel ~component:"c" "leaky" in
  Sim.Engine.schedule_after eng 1.0 (fun () -> ());
  Sim.Engine.run eng;
  Alcotest.(check int) "run settles open spans" 0 (T.Collector.open_span_count tel);
  Alcotest.(check string) "leak is explicit, not silent" "abandoned"
    leaked.T.Span.outcome;
  Alcotest.(check bool) "a Warn trace event names it" true
    (List.exists
       (fun e -> e.T.Trace.kind = "span.abandoned" && e.T.Trace.severity = T.Trace.Warn)
       (T.Trace.events (T.Collector.trace tel)));
  (* Strict mode turns the leak into a failure naming the span. *)
  let eng = Sim.Engine.create () in
  let tel = T.Collector.create () in
  Sim.Engine.attach_telemetry eng tel;
  ignore (T.Collector.span_begin tel ~component:"c" "strict-leak");
  (match Sim.Engine.run ~strict_spans:true eng with
  | () -> Alcotest.fail "strict run should raise on a leaked span"
  | exception Failure msg ->
      Alcotest.(check bool) "failure names the span" true
        (Astring.String.is_infix ~affix:"strict-leak" msg));
  (* A span closed by a scheduled event leaks nothing, strict or not. *)
  let eng = Sim.Engine.create () in
  let tel = T.Collector.create () in
  T.Collector.set_clock tel (fun () -> Sim.Engine.now eng);
  Sim.Engine.attach_telemetry eng tel;
  let s = T.Collector.span_begin tel ~component:"c" "closed-later" in
  Sim.Engine.schedule_after eng 2.0 (fun () -> T.Collector.span_finish tel s);
  Sim.Engine.run ~strict_spans:true eng;
  Alcotest.(check string) "closed normally" "ok" s.T.Span.outcome

(* --- operator view --------------------------------------------------- *)

(* The operator view's line for [src], split into its fields (source,
   reqs, ok, preauth-, ratelim, other-, req/min and the flag), if any. *)
let view_line ?(metrics = T.Metrics.create ()) tables src =
  T.Rates.report ~addr:Sim.Addr.to_string tables metrics
  |> String.split_on_char '\n'
  |> List.find_opt (String.starts_with ~prefix:("  " ^ Sim.Addr.to_string src ^ " "))
  |> Option.map (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))

let opsview_tracking () =
  let hammer = Sim.Addr.of_quad 10 0 0 66 and quiet = Sim.Addr.of_quad 10 0 0 10 in
  let r = T.Rates.create () in
  for i = 1 to 40 do
    T.Rates.record_as r hammer ~time:(float_of_int i)
      ~outcome:(if i mod 2 = 0 then "ok" else "preauth-reject")
  done;
  T.Rates.record_as r quiet ~time:5.0 ~outcome:"ok";
  let line = Alcotest.(check (option (list string))) in
  line "hammering source flagged"
    (Some [ "10.0.0.66"; "40"; "20"; "20"; "0"; "0"; "60.0"; "<--"; "suspicious" ])
    (view_line [ r ] hammer);
  line "quiet source not flagged" (Some [ "10.0.0.10"; "1"; "1"; "0"; "0"; "0"; "1.0" ])
    (view_line [ r ] quiet);
  line "an unseen source has no line" None (view_line [ r ] (Sim.Addr.of_quad 10 0 0 99));
  (* A second KDC saw the hammer once more: the console merges by source. *)
  let r2 = T.Rates.create () in
  T.Rates.record_as r2 hammer ~time:41.0 ~outcome:"rate-limited";
  line "merged across KDCs"
    (Some [ "10.0.0.66"; "41"; "20"; "20"; "1"; "0"; "60.0"; "<--"; "suspicious" ])
    (view_line [ r; r2 ] hammer);
  (* Replay hits come from the servers' registry counters, a second
     server of one name folded into the first. *)
  let m = T.Metrics.create () in
  T.Metrics.incr (T.Metrics.counter m "ap.mail.replay_hits");
  T.Metrics.incr (T.Metrics.counter m (T.Metrics.fresh_name m "ap.mail.replay_hits"));
  T.Metrics.incr (T.Metrics.counter m "ap.mail.ap_rejects");
  ignore (T.Metrics.counter m "kdc.ATHENA.replay_hits");
  Alcotest.(check bool) "report lists replay hits" true
    (Astring.String.is_suffix ~affix:"replay-cache hits: 2 total\n  ap.mail            2\n"
       (T.Rates.report ~addr:Sim.Addr.to_string [ r ] m))

(* --- a short KDC exchange: spans, schema, determinism, regressions --- *)

type world = {
  eng : Sim.Engine.t;
  net : Sim.Net.t;
  tel : T.Collector.t;
  kdc : Kdc.t;
  kdc_host : Sim.Host.t;
  ws : Sim.Host.t;
  svc_host : Sim.Host.t;
  svc : Principal.t;
}

let mk_world ?(profile = Profile.v4) ?rate_limit () =
  let eng = Sim.Engine.create () in
  let tel = T.Collector.create () in
  let net = Sim.Net.create ~telemetry:tel eng in
  let kdc_host = Sim.Host.create ~name:"kdc" ~ips:[ Sim.Addr.of_quad 10 0 0 1 ] () in
  let ws = Sim.Host.create ~name:"ws" ~ips:[ Sim.Addr.of_quad 10 0 0 10 ] () in
  let svc_host = Sim.Host.create ~name:"svc" ~ips:[ Sim.Addr.of_quad 10 0 0 20 ] () in
  List.iter (Sim.Net.attach net) [ kdc_host; ws; svc_host ];
  let db = Kdb.create () in
  let rng = Util.Rng.create 5150L in
  Kdb.add_service db (Principal.tgs ~realm) ~key:(Crypto.Des.random_key rng);
  Kdb.add_user db (Principal.user ~realm "pat") ~password:"pw";
  let svc = Principal.service ~realm "fileserv" ~host:"svc" in
  let key = Crypto.Des.random_key rng in
  Kdb.add_service db svc ~key;
  let kdc = Kdc.create ?rate_limit ~telemetry:tel ~realm ~profile ~lifetime:3600.0 db in
  Kdc.install net kdc_host kdc ();
  let (_ : Apserver.t) =
    Apserver.install net svc_host ~profile ~principal:svc ~key ~port:600
      ~handler:(fun ~client:_ _data -> Some (Bytes.of_string "OK")) ()
  in
  { eng; net; tel; kdc; kdc_host; ws; svc_host; svc }

(* AS -> TGS -> AP -> one sealed call, fully traced. *)
let full_exchange w =
  let kdcs = [ (realm, Sim.Host.primary_ip w.kdc_host) ] in
  let client =
    Client.create w.net w.ws ~profile:Profile.v4 ~kdcs (Principal.user ~realm "pat")
  in
  let done_ = ref false in
  Client.login client ~password:"pw" (fun r ->
      ignore (Result.get_ok r);
      Client.get_ticket client ~service:w.svc (fun r ->
          let creds = Result.get_ok r in
          Client.ap_exchange client creds ~dst:(Sim.Host.primary_ip w.svc_host)
            ~dport:600 (fun r ->
              let chan = Result.get_ok r in
              Client.call_priv client chan (Bytes.of_string "PING") ~k:(fun r ->
                  ignore (Result.get_ok r);
                  done_ := true))));
  Sim.Engine.run ~strict_spans:true w.eng;
  Alcotest.(check bool) "exchange completed" true !done_

let nested_spans () =
  let w = mk_world () in
  full_exchange w;
  (* Reconstruct nesting depth from the span.begin events. *)
  let depth = Hashtbl.create 32 in
  List.iter
    (fun e ->
      if e.T.Trace.kind = "span.begin" then begin
        let attr k = List.assoc_opt k e.T.Trace.attrs in
        let id = Option.get (attr "span") in
        let d =
          match attr "parent" with
          | None -> 1
          | Some p -> 1 + (try Hashtbl.find depth p with Not_found -> 0)
        in
        Hashtbl.replace depth id d
      end)
    (T.Trace.events (T.Collector.trace w.tel));
  let max_depth = Hashtbl.fold (fun _ d acc -> max d acc) depth 0 in
  Alcotest.(check bool)
    (Printf.sprintf "span nesting reaches 4 (got %d)" max_depth)
    true (max_depth >= 4);
  (* The chain the quickstart documents: exchange -> packet -> kdc -> packet. *)
  let names = [ "client.as_exchange"; "net.packet"; "kdc.as_req"; "kdc.tgs_req";
                "client.tgs_exchange"; "client.ap_exchange"; "ap.req"; "ap.priv" ] in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " span present") true
        (List.exists
           (fun e ->
             e.T.Trace.kind = "span.begin"
             && List.assoc_opt "name" e.T.Trace.attrs = Some n)
           (T.Trace.events (T.Collector.trace w.tel))))
    names

let deterministic_dumps () =
  let run () =
    let w = mk_world () in
    full_exchange w;
    (T.Collector.trace_jsonl w.tel, T.Collector.metrics_text w.tel)
  in
  let t1, m1 = run () in
  let t2, m2 = run () in
  Alcotest.(check string) "trace dumps byte-identical" t1 t2;
  Alcotest.(check string) "metrics dumps byte-identical" m1 m2;
  Alcotest.(check bool) "trace is non-trivial" true (String.length t1 > 1000)

(* The documented export schema, validated over a real exchange. *)
let export_schema () =
  let w = mk_world () in
  full_exchange w;
  (* Every trace line is an object with time/severity/component/kind/attrs. *)
  (match T.Trace.of_jsonl (T.Collector.trace_jsonl w.tel) with
  | Error e -> Alcotest.failf "trace JSONL does not parse: %s" e
  | Ok evs ->
      Alcotest.(check bool) "trace has events" true (List.length evs > 10));
  let json = T.Collector.metrics_json w.tel in
  let reparsed =
    match T.Json.of_string (T.Json.to_string json) with
    | Ok v -> v
    | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  in
  let fields = match reparsed with T.Json.Obj f -> f | _ -> Alcotest.fail "not an object" in
  Alcotest.(check bool) "metrics export is non-empty" true (List.length fields > 5);
  List.iter
    (fun (name, v) ->
      match Option.bind (T.Json.member "type" v) T.Json.to_str with
      | Some "counter" ->
          if Option.bind (T.Json.member "value" v) T.Json.to_int = None then
            Alcotest.failf "counter %s lacks an int value" name
      | Some "gauge" ->
          if Option.bind (T.Json.member "value" v) T.Json.to_float = None then
            Alcotest.failf "gauge %s lacks a float value" name
      | Some "histogram" ->
          List.iter
            (fun f ->
              if T.Json.member f v = None then
                Alcotest.failf "histogram %s lacks %s" name f)
            [ "count"; "sum"; "min"; "max"; "buckets" ]
      | _ -> Alcotest.failf "metric %s has no recognized type" name)
    fields;
  (* The acceptance-level contents: KDC counters and a latency histogram. *)
  let mem n = List.mem_assoc n fields in
  Alcotest.(check bool) "KDC counters exported" true
    (mem ("kdc." ^ realm ^ ".as_requests_served"));
  Alcotest.(check bool) "span histogram exported" true
    (mem "span.kdc.as_req.seconds")

(* --- regressions: the migrated KDC counters ------------------------- *)

let kdc_counter_regression () =
  (* as_requests_served counts successful AS exchanges. *)
  let w = mk_world () in
  full_exchange w;
  Alcotest.(check int) "one AS request served" 1 (Kdc.as_requests_served w.kdc);
  Alcotest.(check int) "no preauth rejections" 0 (Kdc.preauth_rejections w.kdc);
  Alcotest.(check int) "no rate limiting" 0 (Kdc.rate_limited_requests w.kdc);
  (* A preauth KDC facing a client that sends no preauth data. *)
  let w = mk_world ~profile:{ Profile.v4 with Profile.name = "v4p"; preauth = true } () in
  let kdcs = [ (realm, Sim.Host.primary_ip w.kdc_host) ] in
  let client =
    Client.create w.net w.ws ~profile:Profile.v4 ~kdcs (Principal.user ~realm "pat")
  in
  let failed = ref false in
  Client.login client ~password:"pw" (fun r -> failed := Result.is_error r);
  Sim.Engine.run w.eng;
  Alcotest.(check bool) "login refused" true !failed;
  Alcotest.(check int) "preauth rejection counted" 1 (Kdc.preauth_rejections w.kdc);
  Alcotest.(check int) "nothing served" 0 (Kdc.as_requests_served w.kdc);
  (* A rate-limited KDC under repeated login attempts from one source. *)
  let w = mk_world ~rate_limit:2 () in
  let kdcs = [ (realm, Sim.Host.primary_ip w.kdc_host) ] in
  let outcomes = ref [] in
  for i = 1 to 4 do
    let client =
      Client.create ~seed:(Int64.of_int i) w.net w.ws ~profile:Profile.v4 ~kdcs
        (Principal.user ~realm "pat")
    in
    Client.login client ~password:"pw" (fun r ->
        outcomes := Result.is_ok r :: !outcomes)
  done;
  Sim.Engine.run w.eng;
  Alcotest.(check int) "two logins served" 2 (Kdc.as_requests_served w.kdc);
  Alcotest.(check int) "two rate-limited" 2 (Kdc.rate_limited_requests w.kdc);
  Alcotest.(check int) "all four answered" 4 (List.length !outcomes);
  (* The operator view saw the same story, in the KDC's one table. *)
  Alcotest.(check int) "one per-source table a KDC" 1 (List.length (T.Collector.rates w.tel));
  match view_line (T.Collector.rates w.tel) (Sim.Host.primary_ip w.ws) with
  | Some [ _; reqs; ok; _; ratelim; _; _; "<--"; "suspicious" ] ->
      Alcotest.(check (list string)) "view counted the source (reqs, ok, ratelim)"
        [ "4"; "2"; "2" ] [ reqs; ok; ratelim ]
  | _ -> Alcotest.fail "the rate-limited source is missing or not suspicious"

let replay_cache_stats () =
  let c = Replay_cache.create ~horizon:600.0 () in
  let blob = Bytes.of_string "auth-1" in
  Alcotest.(check bool) "fresh" true
    (Replay_cache.check_and_insert c ~now:0.0 blob = Replay_cache.Fresh);
  Alcotest.(check bool) "replayed" true
    (Replay_cache.check_and_insert c ~now:1.0 blob = Replay_cache.Replayed);
  ignore (Replay_cache.check_and_insert c ~now:2.0 (Bytes.of_string "auth-2"));
  Alcotest.(check int) "inserts" 2 (Replay_cache.inserts c);
  Alcotest.(check int) "hits" 1 (Replay_cache.hits c)

let () =
  Alcotest.run "telemetry"
    [ ( "metrics",
        [ Alcotest.test_case "counters and gauges" `Quick counters_and_gauges;
          Alcotest.test_case "histogram buckets" `Quick histogram_buckets;
          Alcotest.test_case "fresh names" `Quick fresh_names ] );
      ( "json",
        [ Alcotest.test_case "round trip" `Quick json_round_trip ] );
      ( "trace",
        [ Alcotest.test_case "ring and severity filter" `Quick trace_ring_and_filter;
          Alcotest.test_case "jsonl round trip" `Quick jsonl_round_trip ] );
      ( "spans",
        [ Alcotest.test_case "lifecycle" `Quick span_lifecycle;
          Alcotest.test_case "engine settles leaks" `Quick engine_settles_leaked_spans ] );
      ( "opsview",
        [ Alcotest.test_case "source tracking" `Quick opsview_tracking ] );
      ( "protocol",
        [ Alcotest.test_case "nested spans" `Quick nested_spans;
          Alcotest.test_case "deterministic dumps" `Quick deterministic_dumps;
          Alcotest.test_case "export schema" `Quick export_schema;
          Alcotest.test_case "kdc counter regression" `Quick kdc_counter_regression;
          Alcotest.test_case "replay cache stats" `Quick replay_cache_stats ] ) ]
