(** Protocol message types and their (de)serialization.

    Every message is built as a {!Wire.Encoding.value} wrapped in a
    message-type tag. Whether that tag survives onto the wire — and hence
    whether cross-context confusion is even detectable — depends on the
    profile's encoding (recommendation (b)). *)

(** Message-type tags. *)

val tag_ticket : int
val tag_authenticator : int
val tag_as_req : int
val tag_as_rep : int
val tag_as_rep_body : int
val tag_tgs_req : int
val tag_tgs_rep : int
val tag_rep_body : int
val tag_ap_req : int
val tag_ap_rep : int
val tag_ap_rep_body : int
val tag_challenge : int
val tag_challenge_resp : int
val tag_safe : int
val tag_err : int
val tag_preauth : int
val tag_keystore : int
val tag_deadline : int

type ticket = {
  server : Principal.t;
  client : Principal.t;
  addr : Sim.Addr.t option;  (** [None] when the profile omits addresses *)
  issued_at : float;  (** KDC clock *)
  lifetime : float;
  session_key : bytes;
  forwarded : bool;  (** V5 flag bit — with no record of the origin *)
  dup_skey : bool;
      (** Draft 3's DUPLICATE-SKEY marker: this ticket's session key is
          shared with another ticket (REUSE-SKEY issuance). The draft
          "explicitly warns against using tickets with DUPLICATE-SKEY set
          for authentication. Servers that obey this restriction are not
          vulnerable" to the redirect attack. *)
  transited : string list;  (** realms crossed on the way here *)
}

type authenticator = {
  a_client : Principal.t;
  a_addr : Sim.Addr.t;
  a_timestamp : float;  (** client clock *)
  a_req_cksum : bytes option;
      (** TGS requests: checksum over the cleartext request fields (Draft 3
          moved those fields outside the encryption) *)
  a_ticket_cksum : bytes option;  (** hardened: collision-proof link to the ticket *)
  a_service : Principal.t option;  (** hardened: name the intended service *)
  a_seq_init : int option;
  a_subkey_part : bytes option;  (** client half of session-key negotiation *)
}

type kdc_options = { enc_tkt_in_skey : bool; reuse_skey : bool; forward : bool }

val no_options : kdc_options

type padata =
  | Pa_preauth of bytes  (** sealed under Kc: (nonce, client time) *)
  | Pa_dh of bytes  (** client's public exponential, big-endian *)
  | Pa_handheld  (** request the [{R}Kc] reply encryption *)

type as_req = {
  q_client : Principal.t;
  q_server : Principal.t;
  q_nonce : int64;
  q_addr : Sim.Addr.t;
  q_padata : padata list;
      (** Draft 3's "optional padata field", generalized to several entries
          so preauthentication and an exponential can ride together *)
}

type as_rep = {
  p_challenge : bytes option;  (** the cleartext [R] of the handheld scheme *)
  p_dh_public : bytes option;  (** KDC's exponential when DH-protected *)
  p_ticket : bytes option;
      (** the ticket, riding in the clear outside any integrity protection
          (V4/draft behaviour) — [None] when the profile carries it inside
          the sealed body instead *)
  p_sealed : bytes;  (** {!rep_body}, sealed under the login key *)
}

type rep_body = {
  b_session_key : bytes;
  b_nonce : int64;
  b_server : Principal.t;
  b_issued_at : float;
  b_lifetime : float;
  b_ticket : bytes;
      (** the sealed ticket when [ticket_inside_sealed_rep]; empty when the
          ticket travels in the clear ({!as_rep.p_ticket}) *)
}

type tgs_req = {
  t_ap : ap_req;  (** ticket-granting ticket + authenticator *)
  t_server : Principal.t;
  t_nonce : int64;
  t_options : kdc_options;
  t_additional_ticket : bytes option;  (** cleartext in Draft 3 *)
  t_authz_data : bytes;  (** cleartext in Draft 3, covered only by a_req_cksum *)
}

and ap_req = { r_ticket : bytes; r_authenticator : bytes; r_mutual : bool }

type ap_rep_body = {
  ar_timestamp : float;  (** the authenticator's timestamp + 1 *)
  ar_subkey_part : bytes option;
  ar_seq_init : int option;
}

type challenge = { c_nonce : int64; c_server_part : bytes option; c_seq_init : int option }

type challenge_resp = {
  cr_nonce_f : int64;  (** f(nonce) = nonce + 1 *)
  cr_client_part : bytes option;
  cr_seq_init : int option;
}

type safe_msg = { s_data : bytes; s_stamp : stamp; s_cksum : bytes }
and stamp = At of float | Seq of int

type krb_err = { e_code : int; e_text : string }

(** Error codes *)

val err_principal_unknown : int
val err_preauth_required : int
val err_preauth_failed : int
val err_ticket_expired : int
val err_skew : int
val err_replay : int
val err_badaddr : int
val err_bad_integrity : int
val err_option_forbidden : int
val err_policy : int
val err_transit : int
val err_generic : int

val err_response_too_big : int
(** The encoded response exceeds the path MTU back to the client — retry
    the exchange over the stream transport (the v5 KRB_ERR_RESPONSE_TOO_BIG). *)

val err_busy : int
(** The KDC's admission queue refused the request (KRB_ERR_BUSY): the
    server is overloaded and shed the exchange rather than queueing it
    past usefulness. The error text carries a retry-after hint — see
    {!busy_text} / {!retry_after_of_text}. *)

val busy_text : retry_after:float -> string
(** The canonical [err_busy] error text: ["server busy; retry-after=T"]
    with [T] printed to millisecond precision. *)

val retry_after_of_text : string -> float option
(** Parse the retry-after hint back out of an error text; [None] when the
    text carries no hint, a malformed one, or one too long to be finite
    (the text is unauthenticated, and an infinite wait is no hint). *)

(** Serialization. [of_value] functions raise {!Wire.Codec.Decode_error}
    on malformed input, including a session key ([session_key],
    [b_session_key]) or a negotiation part ([a_subkey_part],
    [ar_subkey_part], [c_server_part], [cr_client_part]) that is not
    8 bytes. *)

val ticket_to_value : ticket -> Wire.Encoding.value
val ticket_of_value : Wire.Encoding.value -> ticket
val authenticator_to_value : authenticator -> Wire.Encoding.value
val authenticator_of_value : Wire.Encoding.value -> authenticator
val as_req_to_value : as_req -> Wire.Encoding.value
val as_req_of_value : Wire.Encoding.value -> as_req
val as_rep_to_value : as_rep -> Wire.Encoding.value
val as_rep_of_value : Wire.Encoding.value -> as_rep
val rep_body_to_value : tag:int -> rep_body -> Wire.Encoding.value
val rep_body_of_value : tag:int -> Wire.Encoding.kind -> Wire.Encoding.value -> rep_body
val tgs_req_to_value : tgs_req -> Wire.Encoding.value
val tgs_req_of_value : Wire.Encoding.value -> tgs_req
val ap_req_to_value : ap_req -> Wire.Encoding.value
val ap_req_of_value : Wire.Encoding.value -> ap_req
val ap_rep_body_to_value : ap_rep_body -> Wire.Encoding.value
val ap_rep_body_of_value : Wire.Encoding.value -> ap_rep_body
val challenge_to_value : challenge -> Wire.Encoding.value
val challenge_of_value : Wire.Encoding.value -> challenge
val challenge_resp_to_value : challenge_resp -> Wire.Encoding.value
val challenge_resp_of_value : Wire.Encoding.value -> challenge_resp
val err_to_value : krb_err -> Wire.Encoding.value
val err_of_value : Wire.Encoding.value -> krb_err

val with_deadline : deadline:float -> Wire.Encoding.value -> Wire.Encoding.value
(** Wrap a request in the deadline envelope: the server should not bother
    replying after [deadline] (absolute time on the shared clock) — shed
    it at the queue head instead. *)

val split_deadline : Wire.Encoding.value -> float option * Wire.Encoding.value
(** Peel a deadline envelope off a decoded request; requests without one
    come back unchanged with [None]. Raises {!Wire.Codec.Decode_error} on
    a malformed envelope. *)

val tgs_req_cleartext_fields : tgs_req -> bytes
(** The Draft 3 cleartext portion a TGS request's [a_req_cksum] covers:
    target server, nonce, options, additional ticket, authorization data —
    in that order, authorization data last (which is what makes the CRC
    forgery's 4-byte filler placement work). *)

(** Profile-aware envelope helpers. *)

val encode_msg : Profile.t -> tag:int -> Wire.Encoding.value -> bytes
val decode_msg : Profile.t -> tag:int -> bytes -> Wire.Encoding.value
(** @raise Wire.Codec.Decode_error (including tag mismatch under Der) *)

val seal_msg : Profile.t -> Util.Rng.t -> key:bytes -> tag:int -> Wire.Encoding.value -> bytes
val open_msg : Profile.t -> key:bytes -> tag:int -> bytes -> (Wire.Encoding.value, string) result

(** Time encoding shared by modules. *)

val float_to_int64 : float -> int64
val int64_to_float : int64 -> float
