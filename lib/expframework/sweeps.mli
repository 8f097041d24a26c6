(** Quantitative sweeps backing the experiment report (E1, E3, E13, E14). *)

val replay_window_sweep :
  unit -> (float * float * bool) list
(** E1: (server skew window, replay delay, accepted?) on stock V4 — how the
    5-minute window "contributes considerably to this attack". *)

val crack_sweep : unit -> (string * int * int * int * int) list
(** E3: (profile, population, weak users, recorded replies, cracked) for a
    growing population on V4, plus the DH-protected contrast. *)

val dlog_sweep :
  ?bits:int list -> unit -> (int * string * float * bool) list
(** E13a: (modulus bits, algorithm, cpu seconds, recovered?) — LaMacchia &
    Odlyzko's point that small exponential-exchange moduli fall to generic
    attacks in trivial time. *)

val modexp_cost : unit -> (int * float) list
(** E13b: (modulus bits, cpu seconds per login-side exponentiation) — and
    the other side of the trade-off: "using large ones is expensive". *)

val overhead : unit -> (string * int * int * int * int * bool) list
(** E14: per profile, (name, messages in a full session, messages in the AP
    exchange alone, heap words the server keeps for the session after it
    ({!Kerberos.Apserver.peer_state_words}), server replay-cache entries
    after 25 authentications, authenticated datagram possible?). The
    challenge/response option "rules out the possibility of authenticated
    datagrams" and "all servers must then retain state". *)
