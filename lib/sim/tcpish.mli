(** A miniature connection-oriented transport, enough to reproduce two of
    the paper's points and to carry real traffic when a datagram cannot:

    - Morris's 1985 attack: with a {e predictable} initial sequence number,
      an off-path attacker can complete a handshake and speak one half of a
      "preauthenticated" connection without seeing any responses — and in a
      Kerberos world, "his attack would still work if accompanied by a
      stolen live authenticator";
    - connection hijacking: "an attacker can always wait until the
      connection is set up and authenticated, and then take it over",
      making the network address in the ticket worthless.

    Beyond the handshake it is a usable byte stream: payloads are
    segmented to the path MTU, reassembled in order at the receiver
    (sequence gaps are buffered and duplicate-acked, never silently
    dropped), and retransmitted on loss with seeded exponential backoff —
    so it composes with the {!Faults} plane. A sender that exhausts its
    retransmissions resets the connection ([tcpish.resets]); resets and
    FIN teardown fire the {!on_close} callback. Counters:
    [tcpish.retransmits], [tcpish.ooo_buffered], [tcpish.duplicates],
    [tcpish.resets]. *)

type isn_mode =
  | Predictable  (** old-BSD style: a coarse function of wall-clock time *)
  | Random_isn  (** drawn from the network RNG *)

type conn

val listen :
  Net.t -> Host.t -> port:int -> ?isn:isn_mode -> on_accept:(conn -> unit) -> unit -> unit
(** Accept connections on [port]. [on_accept] fires when the handshake
    completes; the server cannot tell a spoofed handshake from a real one. *)

val connect :
  Net.t ->
  Host.t ->
  ?src:Addr.t ->
  ?isn:isn_mode ->
  dst:Addr.t ->
  dport:int ->
  on_connected:(conn -> unit) ->
  unit ->
  conn
(** Open a connection; [on_connected] fires when the handshake completes.
    The connection is returned immediately so a caller can {!abort} an
    attempt that never completes. The SYN is retransmitted on loss. *)

val send : conn -> bytes -> unit
(** Queue [bytes] on the stream. The payload is split into as many
    segments as the path MTU requires (one, when no MTU is configured)
    and kept for retransmission until acknowledged. *)

val on_data : conn -> (bytes -> unit) -> unit
(** Raw in-order stream chunks, as segmented by the wire. *)

(** {1 Message framing}

    The cerberus-style TCP shape: each message is preceded by a 4-byte
    big-endian length. [send_message]/[on_message] layer this over the
    stream; a prefix torn across segments is simply buffered until
    complete, and an absurd length (> 1 MiB) resets the connection. *)

val send_message : conn -> bytes -> unit

val on_message : conn -> (bytes -> unit) -> unit
(** Replaces the {!on_data} handler with the reassembling one. *)

val close : conn -> unit
(** Graceful: sends FIN (retransmitted until acknowledged); the
    connection detaches once the peer acknowledges. Receiving is still
    possible until then. *)

val abort : conn -> unit
(** Immediate: sends RST and tears down. *)

val on_close : conn -> (reset:bool -> unit) -> unit
(** Fires once when the connection tears down — [reset:true] for a RST
    (sent or received, including retransmission exhaustion), [false] for
    an orderly FIN. Teardown disarms the retransmission timer, so from
    then on the event queue holds nothing of the connection or its
    callbacks. *)

val established : conn -> bool

val closed : conn -> bool
(** True once a FIN or RST was sent or received: {!send} then raises. *)

val peer : conn -> Addr.t * int
(** The address the connection {e appears} to come from — what an
    address-checking server trusts. *)

val local : conn -> Addr.t * int
val bytes_received : conn -> int
val bytes_sent : conn -> int

val predict_isn : Net.t -> isn_mode -> int
(** The attacker's computation: for [Predictable] this equals the ISN the
    target will choose right now; for [Random_isn] it is a blind guess. *)

(** Raw segment forging, for attack code. *)

type segment = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  seq : int;
  ackno : int;
  body : bytes;
}

val header_overhead : int
(** Encoded size of a segment with an empty body. *)

val encode_segment : segment -> bytes
val decode_segment : bytes -> segment option
