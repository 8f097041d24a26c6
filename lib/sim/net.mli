(** The simulated network: datagram delivery between hosts, plus the hooks
    that realize the paper's threat model — "the protocols should be secure
    even if the network is under the complete control of an adversary."

    The adversary surface (used via {!Adversary}):
    - {e taps} observe every packet;
    - one {e interceptor} may drop, rewrite, or replace packets in flight;
    - {e injection} delivers forged packets with arbitrary source fields. *)

type t

type decision =
  | Deliver  (** pass the original through *)
  | Drop
  | Replace of Packet.t list  (** deliver these (possibly rewritten) instead *)

val create : ?latency:float -> ?seed:int64 -> ?telemetry:Telemetry.Collector.t -> Engine.t -> t
(** [telemetry] defaults to {!Telemetry.Collector.default}. The network
    points the collector's clock at the engine (telemetry time is
    simulation time) and attaches it to the engine for span settling.
    Every packet becomes a ["net.packet"] span — begun at transmission
    under the sending exchange's span context, finished at delivery
    (outcome ["ok"]) or drop (["dropped:<why>"]); receive handlers run
    inside the packet's span context so server-side spans nest under it. *)

val engine : t -> Engine.t
val telemetry : t -> Telemetry.Collector.t
val now : t -> float
(** True (engine) time. *)

val rng : t -> Util.Rng.t

val attach : t -> Host.t -> unit
(** Register a host's addresses, so that no other host can take them.
    The network records the addresses only, never the host: a host lives
    as long as its owner (a client, a server, a scenario) holds it, and
    the listeners it registered. A load generator's finished workstation
    and its ticket file are freed with the client that used them.
    @raise Invalid_argument on address clashes. *)

val local_time : t -> Host.t -> float
(** The host's own clock reading, offset/drift included. *)

val listen : t -> Host.t -> port:int -> (Packet.t -> unit) -> unit
(** Register a handler at [port] on every address of the host.
    @raise Invalid_argument if an address and [port] do not pack into an
    {!Endpoint.t} (a port outside [0 .. Endpoint.max_port]). *)

val unlisten : t -> Host.t -> port:int -> unit

val listening : t -> Addr.t -> port:int -> bool
(** Whether any handler is registered at this address/port — lets tests
    assert that ephemeral listeners are torn down. *)

val listener_count : t -> int
(** Handlers registered across every address and port — lets tests
    assert that a run leaves no listener behind. *)

val ephemeral_port : t -> int
(** Fresh high port, unique per network. *)

(** {1 Path MTU}

    Real datagram transports lose the tail of an oversized message; the
    paper's protocol lives on such datagrams. With an MTU configured, any
    packet whose payload exceeds the path MTU is delivered {e truncated}
    to exactly the MTU — the receiver sees a short, undecodable prefix
    (the PR-5 hardened decoders reject it cleanly). Truncation applies at
    the delivery choke point, so fault-plane duplicates/replacements and
    adversarial {!inject} obey the same physics. Each truncation bumps
    [net.packets.truncated] and [net.dropped.truncated] (the lost tail is
    the drop) and records a trace note. Unconfigured networks pay a
    single branch per delivery. *)

val set_mtu : t -> int option -> unit
(** Default MTU for every link ([None] = unlimited, the initial state).
    @raise Invalid_argument on an MTU below 16 bytes. *)

val set_link_mtu : t -> src:Addr.t -> dst:Addr.t -> int option -> unit
(** Directed per-link override; [Some _]/[None] here beats the default
    (so a link can be made unlimited under a finite default). *)

val path_mtu : t -> src:Addr.t -> dst:Addr.t -> int option
(** Effective MTU a datagram from [src] to [dst] is subject to. Senders
    use this to pre-judge whether a request can fit at all. *)

val send : t -> ?src:Addr.t -> sport:int -> dst:Addr.t -> dport:int -> Host.t -> bytes -> unit
(** [send net host payload ~sport ~dst ~dport] transmits from [host]
    (source address [?src] defaults to the host's primary address and must
    be one of the host's addresses — honest parties cannot forge). Packets
    traverse taps, the interceptor and the fault plane (if attached), then
    arrive after the network latency. Unroutable packets are dropped
    silently — traced, and counted under both [net.packets.dropped] and a
    per-reason [net.dropped.<reason>] counter (spaces slugged to dashes,
    e.g. [net.dropped.no-listener]).
    @raise Invalid_argument if either end does not pack into an
    {!Endpoint.t}. A replacement packet from the interceptor that does
    not is dropped at delivery ([net.dropped.unpackable-endpoint]). *)

val inject : t -> Packet.t -> unit
(** Adversarial transmission: arbitrary source, bypasses the interceptor
    {e and} the fault plane — the adversary is not subject to the weather,
    so replay/spoof experiments stay exact under chaos schedules.
    @raise Invalid_argument if either end does not pack into an
    {!Endpoint.t}. *)

val add_tap : t -> (Packet.t -> unit) -> unit
val set_interceptor : t -> (Packet.t -> decision) -> unit
val clear_interceptor : t -> unit

(** {1 Fault injection} *)

val attach_faults : t -> Faults.t -> unit
(** Subject delivery to a {!Faults} plane: every packet the interceptor
    passes (or substitutes) is planned through it. Faults fired while
    attached are mirrored into this network's telemetry registry as
    [fault.injected.<kind>] counters; fault drops finish the packet span
    with outcome ["dropped:fault:<kind>"]. With no plane attached the
    delivery path is unchanged. *)

val detach_faults : t -> unit
val faults : t -> Faults.t option

(** Tracing *)

type event =
  | Sent of float * Packet.t
  | Delivered of float * Packet.t
  | Dropped of float * Packet.t * string
  | Note of float * string

val note : t -> string -> unit
val events : t -> event list
(** Chronological. Bounded: the most recent ~65k events are retained (a
    load campaign would otherwise hold every packet alive); harness-scale
    runs sit far below the cap and see everything. Under a lightweight
    collector only {!note} events are recorded at all — the counters
    still tell the packet story. *)

val event_count : t -> int
(** Total events recorded since creation — monotone, unaffected by ring
    eviction, O(1). Use this (not [List.length (events t)]) to diff
    activity around a phase. *)

val pp_event : Format.formatter -> event -> unit
