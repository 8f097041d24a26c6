(* The one-shot [finish] owns the listener: whichever of reply / final
   timeout wins removes the ephemeral-port handler before running its
   continuation, and the loser becomes a no-op. The old arrangement let a
   reply racing the final timeout fire [on_reply] after [on_timeout] —
   and under duplicate-prone networks a second copy of the reply could
   find the listener still registered. *)
let call net host ?src ?(timeout = 1.0) ?(retries = 0) ?(backoff = 2.0)
    ?(max_timeout = 8.0) ?(jitter = 0.1) ?deadline ~dst ~dport payload
    ~on_reply ~on_timeout =
  let eng = Net.engine net in
  let expires =
    match deadline with None -> infinity | Some d -> Engine.now eng +. d
  in
  let sport = Net.ephemeral_port net in
  let finished = ref false in
  let finish k =
    if not !finished then begin
      finished := true;
      Net.unlisten net host ~port:sport;
      k ()
    end
  in
  Net.listen net host ~port:sport (fun pkt -> finish (fun () -> on_reply pkt));
  let rec attempt n base =
    Net.send net ?src ~sport ~dst ~dport host payload;
    (* Seeded jitter desynchronizes a fleet of retransmitting clients; the
       draw comes from the network's stream, so runs stay reproducible. *)
    let wait =
      if jitter <= 0.0 then base
      else base *. (1.0 +. (Util.Rng.float (Net.rng net) (2.0 *. jitter) -. jitter))
    in
    (* The deadline clamps the timer after the draw, so it never shifts
       the RNG stream; a clamped timer is the last one. *)
    let at = Engine.now eng +. wait in
    let last = at >= expires in
    Engine.schedule eng ~at:(if last then Float.max expires (Engine.now eng) else at)
      (fun () ->
        if not !finished then
          if n < retries && not last then
            attempt (n + 1) (Float.min max_timeout (base *. backoff))
          else finish on_timeout)
  in
  attempt 0 timeout
