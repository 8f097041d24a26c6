(** UDP-first request/reply transport with transparent fallback to framed
    {!Tcpish} — the shape real Kerberos clients implement: try the
    datagram; if the server refuses because its response exceeds the path
    MTU (KRB_ERR_RESPONSE_TOO_BIG in the Kerberos planes), or replies
    keep arriving truncated, redo the exchange over a stream with 4-byte
    length-prefixed framing.

    Fallback decisions are counted in the network's telemetry registry:
    [transport.fallback.response_too_big], [transport.fallback.truncation],
    [transport.fallback.request_too_big], plus [transport.truncated]
    (garbled datagram replies observed), [transport.udp.calls/replies],
    [transport.tcp.calls/replies], and server-side
    [transport.responses_too_big] and [transport.tcp.replies_dropped].
    Every call is one ["transport.call"]
    span with outcome [ok]/[timeout]/[reset]. *)

val tcp_port : int -> int
(** The simulator has one port namespace; a service's stream endpoint
    lives at this fixed offset (+20000) from its datagram port. *)

(** How a client's decoder judged a datagram reply. *)
type classification =
  | Accept  (** a well-formed reply — hand it to the caller *)
  | Response_too_big  (** the server's explicit refusal: redo over TCP *)
  | Garbled  (** undecodable — possibly a truncated tail; retry, then TCP *)

type peer = {
  p_addr : Addr.t;
  p_port : int;
  p_local : Addr.t;  (** the server address the request arrived at *)
  p_via : [ `Udp | `Tcp ];  (** which endpoint the message arrived on *)
}

type server

val serve :
  Net.t ->
  Host.t ->
  port:int ->
  ?too_big:(mtu:int -> bytes) ->
  (peer:peer -> bytes -> reply:(bytes -> unit) -> unit) ->
  server
(** Install the same message handler on both endpoints: datagrams on
    [port], framed stream messages on [tcp_port port]. A datagram reply
    that would exceed the return-path MTU is replaced by [too_big ~mtu]
    (when given) — the refusal must itself fit the MTU. Stream replies
    are never size-limited. A stream reply whose connection is already
    torn down (the caller's budget aborted it, or a reset arrived while
    the handler held the request) is dropped and counted in
    [transport.tcp.replies_dropped]. *)

val shutdown : server -> unit
(** Remove both listeners (e.g. on crash). In-flight stream connections
    lose their endpoint and die by retransmission exhaustion on the
    client side, exactly like a crashed real server. *)

val call :
  Net.t ->
  Host.t ->
  ?src:Addr.t ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?max_timeout:float ->
  ?jitter:float ->
  ?tcp_timeout:float ->
  ?deadline:float ->
  ?classify:(bytes -> classification) ->
  dst:Addr.t ->
  dport:int ->
  bytes ->
  on_reply:(bytes -> unit) ->
  on_timeout:(unit -> unit) ->
  unit
(** One request/reply exchange. The datagram leg rides {!Rpc.call} with
    the given retry envelope; each reply is judged by [classify]
    (default: accept everything). [Response_too_big] switches to the
    stream leg immediately; [Garbled] retries the datagram once more and
    switches after a second garble. If the request itself exceeds the
    sender's path MTU the datagram leg is skipped entirely
    ([transport.fallback.request_too_big]). The stream leg opens a
    connection to [tcp_port dport], sends the request as one framed
    message and yields the first framed reply; a reset or [tcp_timeout]
    expiry reports [on_timeout].

    [deadline] is the caller's total patience in seconds from the start
    of the call. Each datagram attempt passes what is left of it to
    {!Rpc.call}, so no retransmit timer runs past it. The stream
    fallback's timer is clamped to whatever the datagram leg left of it,
    and a fallback entered with the deadline already spent reports
    [on_timeout] immediately. Both ways of running out are counted in
    [transport.deadline_exhausted]. Exactly one of [on_reply]/[on_timeout]
    fires. Whichever way the call settles disarms its timers (the datagram
    leg's, and the stream leg's budget), so the event queue releases the
    call's closures then; the stream itself is released when it
    closes. *)
