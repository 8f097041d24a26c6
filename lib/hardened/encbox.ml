type purpose = Login | Tgs_session | Service_session | Service_key | Master

let purpose_to_string = function
  | Login -> "login"
  | Tgs_session -> "tgs-session"
  | Service_session -> "service-session"
  | Service_key -> "service-key"
  | Master -> "master"

type handle = int

exception Purpose_violation of string

type slot = { key : bytes; purpose : purpose }

type t = {
  rng : Util.Rng.t;
  slots : (handle, slot) Hashtbl.t;
  mutable next : handle;
  mutable log : string list;  (** reverse chronological *)
}

let create ?(seed = 0x424f58L) () =
  { rng = Util.Rng.create seed; slots = Hashtbl.create 8; next = 1; log = [] }

let add t purpose key =
  let h = t.next in
  t.next <- t.next + 1;
  Hashtbl.replace t.slots h { key; purpose };
  h

let install_key t purpose key = add t purpose (Bytes.copy key)
let generate_key t purpose = add t purpose (Crypto.Des.random_key t.rng)

let violation t msg =
  t.log <- msg :: t.log;
  (* Purpose violations are exactly what an operator wants surfaced: count
     them and leave a Warn in the trace (default collector — the box has
     no network handle). *)
  let tel = Telemetry.Collector.default () in
  Telemetry.Metrics.incr
    (Telemetry.Metrics.counter (Telemetry.Collector.metrics tel)
       "encbox.purpose_violations");
  Telemetry.Collector.event tel ~severity:Telemetry.Trace.Warn ~component:"encbox"
    ~kind:"encbox.violation"
    [ ("msg", msg) ];
  raise (Purpose_violation msg)

let slot t h =
  match Hashtbl.find_opt t.slots h with
  | Some s -> s
  | None -> violation t "unknown key handle"

let require t h wanted op =
  let s = slot t h in
  if s.purpose <> wanted then
    violation t
      (Printf.sprintf "%s: %s key used where %s required" op
         (purpose_to_string s.purpose) (purpose_to_string wanted));
  s.key

let absorb_rep_body t ~profile ~with_key ~new_purpose ~tag blob =
  let open Kerberos in
  let wanted =
    if tag = Messages.tag_as_rep_body then Login
    else if tag = Messages.tag_rep_body then Tgs_session
    else violation t "absorb_rep_body: unknown reply tag"
  in
  let key = require t with_key wanted "absorb_rep_body" in
  match Messages.open_msg profile ~key ~tag blob with
  | Error e -> Error e
  | Ok v -> (
      match Messages.rep_body_of_value ~tag profile.Profile.encoding v with
      | exception Wire.Codec.Decode_error e -> Error e
      | body ->
          let h = add t new_purpose body.b_session_key in
          Ok (h, { body with Messages.b_session_key = Bytes.make 8 '\000' }))

let seal_authenticator t ~profile ~with_key auth =
  let s = slot t with_key in
  (match s.purpose with
  | Tgs_session | Service_session -> ()
  | p ->
      violation t
        (Printf.sprintf "seal_authenticator: %s key refused" (purpose_to_string p)));
  Kerberos.Messages.seal_msg profile t.rng ~key:s.key
    ~tag:Kerberos.Messages.tag_authenticator
    (Kerberos.Messages.authenticator_to_value auth)

let absorb_sealed_key t ~profile ~with_key ~new_purpose blob =
  let key = require t with_key Service_session "absorb_sealed_key" in
  match Kerberos.Seal.open_ (Kerberos.Seal.of_profile profile) ~key blob with
  | Error e -> Error e
  | Ok material ->
      if Bytes.length material <> 8 then Error "not a DES key"
      else Ok (add t new_purpose (Crypto.Des.fix_parity material))

let encrypt_block t ~with_key ~require:wanted data =
  (match wanted with
  | Login | Master ->
      violation t "encrypt_block: login/master keys have no generic operations"
  | _ -> ());
  let key = require t with_key wanted "encrypt_block" in
  Crypto.Des.encrypt_block (Crypto.Des.schedule key) data

let audit t = List.rev t.log
let handles_live t = Hashtbl.length t.slots
