(* The experiment framework's own guarantees: the matrix matches the
   paper's expected shape, the sweeps have the shapes the paper argues,
   the operator view the attacks leave behind is pinned, and the table
   renderer behaves. *)

let matrix_matches_paper () =
  let rows = Expframework.Matrix.run_all () in
  List.iter
    (fun (id, shape) ->
      match Expframework.Matrix.run_row id rows with
      | None -> Alcotest.failf "%s missing from the matrix" id
      | Some r ->
          List.iter2
            (fun (pname, o) expected ->
              Alcotest.(check bool)
                (Printf.sprintf "%s vs %s (%s)" id pname (Attacks.Outcome.detail o))
                expected
                (Attacks.Outcome.is_broken o))
            r.Expframework.Matrix.outcomes shape)
    Expframework.Matrix.expected_shape;
  (* Every row present in the expected shape and vice versa. *)
  Alcotest.(check int) "row count"
    (List.length Expframework.Matrix.expected_shape)
    (List.length rows)

let replay_sweep_shape () =
  List.iter
    (fun (skew, delay, accepted) ->
      Alcotest.(check bool)
        (Printf.sprintf "window %.0f delay %.0f" skew delay)
        (delay < skew) accepted)
    (Expframework.Sweeps.replay_window_sweep ())

let crack_sweep_shape () =
  List.iter
    (fun (profile, _n, weak, recorded, cracked) ->
      if profile = "v4" then begin
        Alcotest.(check int) "v4 cracks exactly the weak users" weak cracked;
        Alcotest.(check bool) "recorded everyone" true (recorded > 0)
      end
      else Alcotest.(check int) "dh cracks nobody" 0 cracked)
    (Expframework.Sweeps.crack_sweep ())

let dlog_sweep_shape () =
  let rows = Expframework.Sweeps.dlog_sweep ~bits:[ 16; 20; 24 ] () in
  List.iter
    (fun (bits, alg, _t, recovered) ->
      Alcotest.(check bool) (Printf.sprintf "%s at %d bits" alg bits) true recovered)
    rows;
  (* BSGS cost grows with the modulus. *)
  let bsgs = List.filter (fun (_, a, _, _) -> a = "baby-step/giant-step") rows in
  let times = List.map (fun (_, _, t, _) -> t) bsgs in
  Alcotest.(check bool) "bsgs cost grows" true
    (match times with [ a; _b; c ] -> c >= a | _ -> false)

let overhead_shape () =
  let rows = Expframework.Sweeps.overhead () in
  let find name =
    match List.find_opt (fun (n, _, _, _, _, _) -> n = name) rows with
    | Some r -> r
    | None -> Alcotest.failf "%s missing" name
  in
  let _, _, ap_v4, words_v4, cache_v4, dg_v4 = find "v4" in
  let _, _, ap_h, words_h, cache_h, dg_h = find "hardened" in
  let _, _, _, words_c, cache_c, _ = find "v4+cache" in
  Alcotest.(check bool) "the server keeps words for its session" true
    (words_v4 > 0 && words_h > 0);
  Alcotest.(check int) "the server-wide cache is not session state" words_v4
    words_c;
  Alcotest.(check int) "challenge/response adds one message pair" (ap_v4 + 2) ap_h;
  Alcotest.(check bool) "v4 supports authenticated datagrams" true dg_v4;
  Alcotest.(check bool) "challenge/response rules them out" false dg_h;
  Alcotest.(check int) "no cache state on stock v4" 0 cache_v4;
  Alcotest.(check int) "cache holds one entry per live authenticator" 25 cache_c;
  Alcotest.(check int) "challenge/response needs no authenticator cache" 0 cache_h

let hardware_all_hold () =
  List.iter
    (fun (c, ok) -> Alcotest.(check bool) c true ok)
    (Expframework.Hardware_check.run ())

let confusion_matrices () =
  let v4 = Expframework.Confusion_check.run Wire.Encoding.V4_adhoc in
  let der = Expframework.Confusion_check.run Wire.Encoding.Der_typed in
  Alcotest.(check (list (pair string string))) "typed encoding: no confusion" []
    der.Expframework.Confusion_check.confusable;
  Alcotest.(check bool) "v4 has confusable pairs" true
    (List.length v4.Expframework.Confusion_check.confusable > 0);
  (* The specific hazard class: the AP reply, the challenge, and the
     challenge response all share a shape under V4. *)
  Alcotest.(check bool) "challenge/challenge_resp confusable under v4" true
    (List.mem ("challenge", "challenge_resp") v4.Expframework.Confusion_check.confusable)

let table_renders () =
  let s =
    Expframework.Table.render ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "has rule" true (String.contains s '-');
  Alcotest.(check bool) "pads columns" true
    (Astring.String.is_infix ~affix:"333  4" s)

(* --- the operator view, pinned ---------------------------------------- *)

(* The console `attacklab run <id> --profile <p> --opsview` prints under
   "Operator view", for every matrix attack under every profile, then the
   five scenarios of `experiments opsview`. Each runs on a fresh default
   collector, as both commands do, so a report covers exactly its run. *)
let operator_view run =
  let tel = Telemetry.Collector.fresh_default () in
  run ();
  Telemetry.Rates.report ~addr:Sim.Addr.to_string (Telemetry.Collector.rates tel)
    (Telemetry.Collector.metrics tel)

let opsview_scenarios () =
  let harvest ?rate_limit profile () =
    ignore
      (Attacks.Ticket_harvest.run ~n_users:10 ~dictionary_head:250 ?rate_limit
         ~profile ())
  in
  let v4_cached =
    { Kerberos.Profile.v4 with
      Kerberos.Profile.name = "v4+cache";
      ap_auth = Kerberos.Profile.Timestamp { skew = 300.0; replay_cache = true } }
  in
  let replay profile () = ignore (Attacks.Replay_auth.run ~profile ()) in
  List.map operator_view
    [ harvest Kerberos.Profile.v4; harvest ~rate_limit:5 Kerberos.Profile.v4;
      harvest Kerberos.Profile.hardened; replay Kerberos.Profile.v4;
      replay v4_cached ]

let opsview_pinned () =
  let attacks =
    List.concat_map
      (fun (a : Expframework.Matrix.attack) ->
        List.map
          (fun p -> operator_view (fun () -> ignore (a.run p)))
          Expframework.Matrix.profiles)
      Expframework.Matrix.attacks
  in
  let views = attacks @ opsview_scenarios () in
  ignore (Telemetry.Collector.fresh_default ());
  Alcotest.(check int) "one view a run"
    ((3 * List.length Expframework.Matrix.attacks) + 5)
    (List.length views);
  Alcotest.(check string) "digest of every view" "666fedcd71b048f33874039fe9d52901"
    (Digest.to_hex (Digest.string (String.concat "" views)))

let () =
  Alcotest.run "expframework"
    [ ( "matrix",
        [ Alcotest.test_case "matches the paper's shape" `Slow matrix_matches_paper ] );
      ( "sweeps",
        [ Alcotest.test_case "replay window" `Slow replay_sweep_shape;
          Alcotest.test_case "crack yield" `Slow crack_sweep_shape;
          Alcotest.test_case "dlog growth" `Slow dlog_sweep_shape;
          Alcotest.test_case "overheads" `Slow overhead_shape ] );
      ("opsview", [ Alcotest.test_case "pinned digest" `Slow opsview_pinned ]);
      ("hardware", [ Alcotest.test_case "E15 invariants" `Quick hardware_all_hold ]);
      ("validation", [ Alcotest.test_case "confusion matrices" `Quick confusion_matrices ]);
      ("table", [ Alcotest.test_case "renderer" `Quick table_renders ]) ]
