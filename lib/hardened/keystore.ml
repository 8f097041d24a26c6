type t = {
  store : (string * string, bytes) Hashtbl.t;  (** (principal, label) -> blob *)
  rng : Util.Rng.t;
}

let stored_count t = Hashtbl.length t.store

let split_cmd s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let handle t ~client data =
  let who = Kerberos.Principal.to_string client in
  let cmd, rest = split_cmd (Bytes.to_string data) in
  match cmd with
  | "PUT" ->
      let label, blob = split_cmd rest in
      Hashtbl.replace t.store (who, label) (Bytes.of_string blob);
      Some (Bytes.of_string "OK")
  | "GET" -> (
      match Hashtbl.find_opt t.store (who, rest) with
      | Some blob -> Some (Bytes.cat (Bytes.of_string "OK ") blob)
      | None -> Some (Bytes.of_string "ERR no such blob"))
  | "NEWKEY" -> Some (Bytes.cat (Bytes.of_string "OK ") (Crypto.Des.random_key t.rng))
  | _ -> Some (Bytes.of_string "ERR bad command")

let install ?config net host ~profile ~principal ~key ~port =
  let t = { store = Hashtbl.create 16; rng = Util.Rng.create 0x4b53L } in
  let (_ : Kerberos.Apserver.t) =
    Kerberos.Apserver.install ?config net host ~profile ~principal ~key ~port
      ~handler:(Services.Svc_telemetry.instrument net ~component:"keystore" (handle t))
      ()
  in
  t

let put client chan ~label blob ~k =
  let msg = Bytes.cat (Bytes.of_string (Printf.sprintf "PUT %s " label)) blob in
  Kerberos.Client.call_priv client chan msg ~k:(fun r ->
      match r with
      | Error e -> k (Error e)
      | Ok data ->
          if Bytes.to_string data = "OK" then k (Ok ())
          else k (Error (Bytes.to_string data)))

let get client chan ~label ~k =
  Kerberos.Client.call_priv client chan (Bytes.of_string ("GET " ^ label)) ~k:(fun r ->
      match r with
      | Error e -> k (Error e)
      | Ok data ->
          if Bytes.length data >= 3 && Bytes.to_string (Bytes.sub data 0 3) = "OK " then
            k (Ok (Bytes.sub data 3 (Bytes.length data - 3)))
          else k (Error (Bytes.to_string data)))

let fresh_key client chan ~k =
  Kerberos.Client.call_priv client chan (Bytes.of_string "NEWKEY") ~k:(fun r ->
      match r with
      | Error e -> k (Error e)
      | Ok data ->
          if Bytes.length data = 11 && Bytes.to_string (Bytes.sub data 0 3) = "OK " then
            k (Ok (Bytes.sub data 3 8))
          else k (Error (Bytes.to_string data)))
