open Wire.Encoding

let tag_ticket = 1
let tag_authenticator = 2
let tag_as_req = 3
let tag_as_rep = 4
let tag_as_rep_body = 5
let tag_tgs_req = 6
let tag_tgs_rep = 7
let tag_rep_body = 8
let tag_ap_req = 9
let tag_ap_rep = 10
let tag_ap_rep_body = 11
let tag_challenge = 12
let tag_challenge_resp = 13
let tag_safe = 14
let tag_err = 15
let tag_preauth = 16
let tag_keystore = 17
let tag_deadline = 18

type ticket = {
  server : Principal.t;
  client : Principal.t;
  addr : Sim.Addr.t option;
  issued_at : float;
  lifetime : float;
  session_key : bytes;
  forwarded : bool;
  dup_skey : bool;
  transited : string list;
}

type authenticator = {
  a_client : Principal.t;
  a_addr : Sim.Addr.t;
  a_timestamp : float;
  a_req_cksum : bytes option;
  a_ticket_cksum : bytes option;
  a_service : Principal.t option;
  a_seq_init : int option;
  a_subkey_part : bytes option;
}

type kdc_options = { enc_tkt_in_skey : bool; reuse_skey : bool; forward : bool }

let no_options = { enc_tkt_in_skey = false; reuse_skey = false; forward = false }

type padata = Pa_preauth of bytes | Pa_dh of bytes | Pa_handheld

type as_req = {
  q_client : Principal.t;
  q_server : Principal.t;
  q_nonce : int64;
  q_addr : Sim.Addr.t;
  q_padata : padata list;
}

type as_rep = {
  p_challenge : bytes option;
  p_dh_public : bytes option;
  p_ticket : bytes option;
  p_sealed : bytes;
}

type rep_body = {
  b_session_key : bytes;
  b_nonce : int64;
  b_server : Principal.t;
  b_issued_at : float;
  b_lifetime : float;
  b_ticket : bytes;
}

type tgs_req = {
  t_ap : ap_req;
  t_server : Principal.t;
  t_nonce : int64;
  t_options : kdc_options;
  t_additional_ticket : bytes option;
  t_authz_data : bytes;
}

and ap_req = { r_ticket : bytes; r_authenticator : bytes; r_mutual : bool }

type ap_rep_body = {
  ar_timestamp : float;
  ar_subkey_part : bytes option;
  ar_seq_init : int option;
}

type challenge = { c_nonce : int64; c_server_part : bytes option; c_seq_init : int option }

type challenge_resp = {
  cr_nonce_f : int64;
  cr_client_part : bytes option;
  cr_seq_init : int option;
}

type safe_msg = { s_data : bytes; s_stamp : stamp; s_cksum : bytes }
and stamp = At of float | Seq of int

type krb_err = { e_code : int; e_text : string }

let err_principal_unknown = 1
let err_preauth_required = 2
let err_preauth_failed = 3
let err_ticket_expired = 4
let err_skew = 5
let err_replay = 6
let err_badaddr = 7
let err_bad_integrity = 8
let err_option_forbidden = 9
let err_policy = 10
let err_transit = 11
let err_generic = 12
let err_response_too_big = 13
let err_busy = 14

(* The BUSY refusal carries its retry-after hint inside the error text:
   the wire error record is just (code, text) and every decoder in the
   tree already knows how to carry that pair, so overloaded servers can
   shed with a hint without a codec change. *)
let busy_text ~retry_after = Printf.sprintf "server busy; retry-after=%.3f" retry_after

let retry_after_of_text s =
  let marker = "retry-after=" in
  let mlen = String.length marker in
  let n = String.length s in
  let digit c = (c >= '0' && c <= '9') || c = '.' in
  let rec find i =
    if i + mlen > n then None
    else if String.sub s i mlen = marker then begin
      let j = ref (i + mlen) in
      while !j < n && digit s.[!j] do incr j done;
      (* A long enough run of digits parses to infinity. *)
      match float_of_string_opt (String.sub s (i + mlen) (!j - (i + mlen))) with
      | Some f when Float.is_finite f -> Some f
      | _ -> None
    end
    else find (i + 1)
  in
  find 0

(* ------------------------------------------------------------------ *)
(* Small building blocks                                               *)
(* ------------------------------------------------------------------ *)

let float_to_int64 = Int64.bits_of_float
let int64_to_float = Int64.float_of_bits

let vfloat f = Int (float_to_int64 f)
let gfloat v = int64_to_float (get_int v)
let vbool b = Int (if b then 1L else 0L)
let gbool v = get_int v <> 0L

let vopt f = function None -> List [] | Some x -> List [ f x ]

let gopt f v =
  match get_list v with
  | [] -> None
  | [ x ] -> Some (f x)
  | _ -> Wire.Codec.fail "option: wrong arity"

let vint i = Int (Int64.of_int i)
let gint v = Int64.to_int (get_int v)

(* A session key or a negotiation part: DES key material, so exactly 8
   bytes. Any other length would only fail later, inside the key schedule
   or the negotiation XOR, as an exception no caller expects from the
   wire. *)
let get_key v =
  let b = get_raw v in
  if Bytes.length b <> 8 then Wire.Codec.fail "key material: not 8 bytes";
  b

(* ------------------------------------------------------------------ *)
(* Tickets                                                             *)
(* ------------------------------------------------------------------ *)

let ticket_to_value t =
  Tagged
    ( tag_ticket,
      List
        [ Principal.to_value t.server; Principal.to_value t.client;
          vopt (fun a -> vint a) t.addr; vfloat t.issued_at; vfloat t.lifetime;
          Raw t.session_key; vbool t.forwarded; vbool t.dup_skey;
          List (List.map (fun r -> Str r) t.transited) ] )

let ticket_of_value v =
  let v = match v with Tagged (t, inner) when t = tag_ticket -> inner | Tagged _ -> Wire.Codec.fail "not a ticket" | v -> v in
  match get_list v with
  | [ srv; cl; addr; issued; life; key; fwd; dup; trans ] ->
      { server = Principal.of_value srv; client = Principal.of_value cl;
        addr = gopt gint addr; issued_at = gfloat issued; lifetime = gfloat life;
        session_key = get_key key; forwarded = gbool fwd; dup_skey = gbool dup;
        transited = List.map get_str (get_list trans) }
  | _ -> Wire.Codec.fail "ticket: wrong arity"

(* ------------------------------------------------------------------ *)
(* Authenticators                                                      *)
(* ------------------------------------------------------------------ *)

let authenticator_to_value a =
  Tagged
    ( tag_authenticator,
      List
        [ Principal.to_value a.a_client; vint a.a_addr; vfloat a.a_timestamp;
          vopt (fun b -> Raw b) a.a_req_cksum; vopt (fun b -> Raw b) a.a_ticket_cksum;
          vopt Principal.to_value a.a_service; vopt vint a.a_seq_init;
          vopt (fun b -> Raw b) a.a_subkey_part ] )

let authenticator_of_value v =
  let v = match v with Tagged (t, inner) when t = tag_authenticator -> inner | Tagged _ -> Wire.Codec.fail "not an authenticator" | v -> v in
  match get_list v with
  | [ cl; addr; ts; rc; tc; svc; seq; sub ] ->
      { a_client = Principal.of_value cl; a_addr = gint addr; a_timestamp = gfloat ts;
        a_req_cksum = gopt get_raw rc; a_ticket_cksum = gopt get_raw tc;
        a_service = gopt Principal.of_value svc; a_seq_init = gopt gint seq;
        a_subkey_part = gopt get_key sub }
  | _ -> Wire.Codec.fail "authenticator: wrong arity"

(* ------------------------------------------------------------------ *)
(* AS exchange                                                         *)
(* ------------------------------------------------------------------ *)

let padata_to_value pa =
  let one = function
    | Pa_preauth b -> List [ vint 1; Raw b ]
    | Pa_dh b -> List [ vint 2; Raw b ]
    | Pa_handheld -> List [ vint 3 ]
  in
  List (List.map one pa)

let padata_of_value v =
  let one v =
    match get_list v with
    | [ k; b ] when gint k = 1 -> Pa_preauth (get_raw b)
    | [ k; b ] when gint k = 2 -> Pa_dh (get_raw b)
    | [ k ] when gint k = 3 -> Pa_handheld
    | _ -> Wire.Codec.fail "padata"
  in
  List.map one (get_list v)

let as_req_to_value q =
  Tagged
    ( tag_as_req,
      List
        [ Principal.to_value q.q_client; Principal.to_value q.q_server;
          Int q.q_nonce; vint q.q_addr; padata_to_value q.q_padata ] )

let as_req_of_value v =
  let v = match v with Tagged (t, inner) when t = tag_as_req -> inner | Tagged _ -> Wire.Codec.fail "not an as_req" | v -> v in
  match get_list v with
  | [ cl; srv; n; addr; pa ] ->
      { q_client = Principal.of_value cl; q_server = Principal.of_value srv;
        q_nonce = get_int n; q_addr = gint addr; q_padata = padata_of_value pa }
  | _ -> Wire.Codec.fail "as_req: wrong arity"

let as_rep_to_value p =
  Tagged
    ( tag_as_rep,
      List
        [ vopt (fun b -> Raw b) p.p_challenge; vopt (fun b -> Raw b) p.p_dh_public;
          vopt (fun b -> Raw b) p.p_ticket; Raw p.p_sealed ] )

let as_rep_of_value v =
  let v = match v with Tagged (t, inner) when t = tag_as_rep -> inner | Tagged _ -> Wire.Codec.fail "not an as_rep" | v -> v in
  match get_list v with
  | [ ch; dh; tkt; sealed ] ->
      { p_challenge = gopt get_raw ch; p_dh_public = gopt get_raw dh;
        p_ticket = gopt get_raw tkt; p_sealed = get_raw sealed }
  | _ -> Wire.Codec.fail "as_rep: wrong arity"

let rep_body_to_value ~tag b =
  Tagged
    ( tag,
      List
        [ Raw b.b_session_key; Int b.b_nonce; Principal.to_value b.b_server;
          vfloat b.b_issued_at; vfloat b.b_lifetime; Raw b.b_ticket ] )

let rep_body_of_value ~tag kind v =
  let v = Wire.Encoding.expect_tag kind tag v in
  match get_list v with
  | [ key; n; srv; issued; life; tkt ] ->
      { b_session_key = get_key key; b_nonce = get_int n;
        b_server = Principal.of_value srv; b_issued_at = gfloat issued;
        b_lifetime = gfloat life; b_ticket = get_raw tkt }
  | _ -> Wire.Codec.fail "rep_body: wrong arity"

(* ------------------------------------------------------------------ *)
(* AP / TGS                                                            *)
(* ------------------------------------------------------------------ *)

let ap_req_to_value r =
  Tagged
    (tag_ap_req, List [ Raw r.r_ticket; Raw r.r_authenticator; vbool r.r_mutual ])

let ap_req_of_value v =
  let v = match v with Tagged (t, inner) when t = tag_ap_req -> inner | Tagged _ -> Wire.Codec.fail "not an ap_req" | v -> v in
  match get_list v with
  | [ tkt; auth; m ] ->
      { r_ticket = get_raw tkt; r_authenticator = get_raw auth; r_mutual = gbool m }
  | _ -> Wire.Codec.fail "ap_req: wrong arity"

let options_to_value o =
  List [ vbool o.enc_tkt_in_skey; vbool o.reuse_skey; vbool o.forward ]

let options_of_value v =
  match get_list v with
  | [ a; b; c ] -> { enc_tkt_in_skey = gbool a; reuse_skey = gbool b; forward = gbool c }
  | _ -> Wire.Codec.fail "options: wrong arity"

let tgs_req_to_value t =
  Tagged
    ( tag_tgs_req,
      List
        [ ap_req_to_value t.t_ap; Principal.to_value t.t_server; Int t.t_nonce;
          options_to_value t.t_options; vopt (fun b -> Raw b) t.t_additional_ticket;
          Raw t.t_authz_data ] )

let tgs_req_of_value v =
  let v = match v with Tagged (t, inner) when t = tag_tgs_req -> inner | Tagged _ -> Wire.Codec.fail "not a tgs_req" | v -> v in
  match get_list v with
  | [ ap; srv; n; opts; add; authz ] ->
      { t_ap = ap_req_of_value ap; t_server = Principal.of_value srv;
        t_nonce = get_int n; t_options = options_of_value opts;
        t_additional_ticket = gopt get_raw add; t_authz_data = get_raw authz }
  | _ -> Wire.Codec.fail "tgs_req: wrong arity"

let tgs_req_cleartext_fields t =
  (* The authorization data comes last so that a 4-byte CRC filler appended
     to it is also the last thing the checksum sees. *)
  let w = Wire.Codec.Writer.create () in
  Wire.Codec.Writer.lstring w (Principal.to_string t.t_server);
  Wire.Codec.Writer.i64 w t.t_nonce;
  Wire.Codec.Writer.u8 w (if t.t_options.enc_tkt_in_skey then 1 else 0);
  Wire.Codec.Writer.u8 w (if t.t_options.reuse_skey then 1 else 0);
  Wire.Codec.Writer.u8 w (if t.t_options.forward then 1 else 0);
  (match t.t_additional_ticket with
  | None -> Wire.Codec.Writer.u8 w 0
  | Some b ->
      Wire.Codec.Writer.u8 w 1;
      Wire.Codec.Writer.lbytes w b);
  Wire.Codec.Writer.raw w t.t_authz_data;
  Wire.Codec.Writer.contents w

let ap_rep_body_to_value b =
  Tagged
    ( tag_ap_rep_body,
      List [ vfloat b.ar_timestamp; vopt (fun x -> Raw x) b.ar_subkey_part; vopt vint b.ar_seq_init ] )

let ap_rep_body_of_value v =
  let v = match v with Tagged (t, inner) when t = tag_ap_rep_body -> inner | Tagged _ -> Wire.Codec.fail "not an ap_rep_body" | v -> v in
  match get_list v with
  | [ ts; sub; seq ] ->
      { ar_timestamp = gfloat ts; ar_subkey_part = gopt get_key sub; ar_seq_init = gopt gint seq }
  | _ -> Wire.Codec.fail "ap_rep_body: wrong arity"

let challenge_to_value c =
  Tagged
    ( tag_challenge,
      List [ Int c.c_nonce; vopt (fun x -> Raw x) c.c_server_part; vopt vint c.c_seq_init ] )

let challenge_of_value v =
  let v = match v with Tagged (t, inner) when t = tag_challenge -> inner | Tagged _ -> Wire.Codec.fail "not a challenge" | v -> v in
  match get_list v with
  | [ n; sp; seq ] ->
      { c_nonce = get_int n; c_server_part = gopt get_key sp; c_seq_init = gopt gint seq }
  | _ -> Wire.Codec.fail "challenge: wrong arity"

let challenge_resp_to_value c =
  Tagged
    ( tag_challenge_resp,
      List [ Int c.cr_nonce_f; vopt (fun x -> Raw x) c.cr_client_part; vopt vint c.cr_seq_init ] )

let challenge_resp_of_value v =
  let v = match v with Tagged (t, inner) when t = tag_challenge_resp -> inner | Tagged _ -> Wire.Codec.fail "not a challenge_resp" | v -> v in
  match get_list v with
  | [ n; cp; seq ] ->
      { cr_nonce_f = get_int n; cr_client_part = gopt get_key cp; cr_seq_init = gopt gint seq }
  | _ -> Wire.Codec.fail "challenge_resp: wrong arity"

(* Deadline envelope: an optional wrapper a client may put around a KDC
   request so the server can shed it unanswered once the caller has
   stopped waiting. The deadline is absolute simulation time — faithful
   to V4's reliance on synchronized clocks, and subject to exactly the
   skew caveat the paper levels at the timestamp scheme. Requests without
   the envelope decode as before, so the wrapper is pay-as-you-go. *)
let with_deadline ~deadline v = Tagged (tag_deadline, List [ vfloat deadline; v ])

let split_deadline v =
  match v with
  | Tagged (t, inner) when t = tag_deadline -> (
      match get_list inner with
      | [ d; body ] -> (Some (gfloat d), body)
      | _ -> Wire.Codec.fail "deadline envelope: wrong arity")
  | v -> (None, v)

let err_to_value e = Tagged (tag_err, List [ vint e.e_code; Str e.e_text ])

let err_of_value v =
  let v = match v with Tagged (t, inner) when t = tag_err -> inner | Tagged _ -> Wire.Codec.fail "not an error" | v -> v in
  match get_list v with
  | [ code; text ] -> { e_code = gint code; e_text = get_str text }
  | _ -> Wire.Codec.fail "err: wrong arity"

(* ------------------------------------------------------------------ *)
(* Profile-aware envelopes                                             *)
(* ------------------------------------------------------------------ *)

let encode_msg (p : Profile.t) ~tag v =
  let v = match v with Tagged _ -> v | v -> Tagged (tag, v) in
  Wire.Encoding.encode p.encoding v

let decode_msg (p : Profile.t) ~tag b =
  let v = Wire.Encoding.decode p.encoding b in
  match p.encoding with
  | Wire.Encoding.V4_adhoc -> v
  | Wire.Encoding.Der_typed -> (
      match v with
      | Tagged (t, _) when t = tag -> v
      | Tagged (t, _) -> Wire.Codec.fail (Printf.sprintf "message tag %d where %d expected" t tag)
      | _ -> Wire.Codec.fail "untyped message")

let seal_msg (p : Profile.t) rng ~key ~tag v =
  Seal.seal (Seal.of_profile p) rng ~key (encode_msg p ~tag v)

let open_msg (p : Profile.t) ~key ~tag b =
  match Seal.open_ (Seal.of_profile p) ~key b with
  | Error e -> Error e
  | Ok plain -> (
      match decode_msg p ~tag plain with
      | v -> Ok v
      | exception Wire.Codec.Decode_error e -> Error e)
