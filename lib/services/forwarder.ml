open Kerberos

type t = { host : Sim.Host.t; mutable received : int }

let handle t ~client data =
  let s = Bytes.to_string data in
  if String.length s > 8 && String.sub s 0 8 = "INSTALL " then begin
    let blob = Bytes.sub data 8 (Bytes.length data - 8) in
    (* Validate the serialization before caching. *)
    match Client.creds_of_bytes blob with
    | _creds ->
        Sim.Host.cache_put t.host ("fwd:" ^ Principal.to_string client) blob;
        t.host.Sim.Host.logged_in <- true;
        t.received <- t.received + 1;
        Some (Bytes.of_string "OK")
    | exception Wire.Codec.Decode_error e -> Some (Bytes.of_string ("ERR " ^ e))
  end
  else Some (Bytes.of_string "ERR bad command")

let install ?config net host ~profile ~principal ~key ~port =
  let t = { host; received = 0 } in
  let (_ : Apserver.t) =
    Apserver.install ?config net host ~profile ~principal ~key ~port
      ~handler:(handle t) ()
  in
  t

let received_count t = t.received

let forward_credentials client chan creds ~k =
  let msg = Bytes.cat (Bytes.of_string "INSTALL ") (Client.creds_to_bytes creds) in
  Client.call_priv client chan msg ~k:(fun r ->
      match r with
      | Error e -> k (Error e)
      | Ok data ->
          if Bytes.to_string data = "OK" then k (Ok ())
          else k (Error (Bytes.to_string data)))

let pick_up host ~principal =
  match Sim.Host.cache_get host ("fwd:" ^ Principal.to_string principal) with
  | None -> None
  | Some blob -> (
      match Client.creds_of_bytes blob with
      | creds -> Some creds
      | exception Wire.Codec.Decode_error _ -> None)
