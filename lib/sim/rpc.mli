(** Request/response helper over the datagram network: sends a request from
    an ephemeral port and hands the first reply to the continuation.
    UDP-shaped — the client retransmits on timeout, which is the behaviour
    that complicates server-side authenticator caching in the paper.

    Retransmission backs off exponentially: attempt [i] waits
    [min max_timeout (timeout * backoff^i)], each wait scaled by a seeded
    jitter factor in [1 ± jitter] drawn from the network's RNG stream.

    Exactly one of [on_reply] / [on_timeout] runs, exactly once, and the
    ephemeral-port listener is removed before it does: duplicate replies
    are suppressed, and a reply that loses the race with the final timeout
    is dropped at the (now unregistered) port instead of resurrecting the
    call. A reply also disarms the pending retransmit timer
    ({!Engine.disarm}), so nothing the call captured (payload,
    continuations) stays reachable from the event queue once it
    settles. *)

val call :
  Net.t ->
  Host.t ->
  ?src:Addr.t ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?max_timeout:float ->
  ?jitter:float ->
  ?deadline:float ->
  dst:Addr.t ->
  dport:int ->
  bytes ->
  on_reply:(Packet.t -> unit) ->
  on_timeout:(unit -> unit) ->
  unit
(** Defaults: [timeout] 1.0, [retries] 0, [backoff] 2.0, [max_timeout]
    8.0, [jitter] 0.1 (fraction; pass [0.0] for fixed waits).

    [deadline] (seconds from now; default none) bounds the whole call:
    each retransmit timer is cut to the time left, and no retransmit
    starts at or past the deadline, so [on_timeout] fires by then at the
    latest. The jitter is drawn before the cut, so a deadline leaves the
    network's RNG stream unchanged. *)
