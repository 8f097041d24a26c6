(* [finish] owns the listener and the timer: whichever of reply / final
   timeout settles the call removes the ephemeral-port handler and
   disarms the pending timer before running its continuation. Replies are
   looked up at the port when they land and a disarmed timer fires as a
   no-op, so nothing of the call runs after it has settled. Disarming
   also drops the request's graph (payload, continuations, this closure)
   from the event queue at once instead of a timeout later. *)
let call net host ?src ?(timeout = 1.0) ?(retries = 0) ?(backoff = 2.0)
    ?(max_timeout = 8.0) ?(jitter = 0.1) ?deadline ~dst ~dport payload
    ~on_reply ~on_timeout =
  let eng = Net.engine net in
  let expires =
    match deadline with None -> infinity | Some d -> Engine.now eng +. d
  in
  let sport = Net.ephemeral_port net in
  let timer = ref None in
  let finish k =
    Option.iter Engine.disarm !timer;
    Net.unlisten net host ~port:sport;
    k ()
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
    timer :=
      Some
        (Engine.arm eng ~at:(if last then Float.max expires (Engine.now eng) else at)
           (fun () ->
             if n < retries && not last then
               attempt (n + 1) (Float.min max_timeout (base *. backoff))
             else finish on_timeout))
  in
  attempt 0 timeout
