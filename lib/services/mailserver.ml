type t = {
  boxes : (string, bytes list ref) Hashtbl.t;
  deleted : (string, int ref) Hashtbl.t;
  mutable ap : Kerberos.Apserver.t option;
}

let apserver t = match t.ap with Some a -> a | None -> assert false

let box t user =
  match Hashtbl.find_opt t.boxes user with
  | Some b -> b
  | None ->
      let b = ref [] in
      Hashtbl.replace t.boxes user b;
      b

let deliver t ~user msg =
  let b = box t user in
  b := !b @ [ msg ]

let mailbox_count t ~user = List.length !(box t user)

let deleted_count t ~user =
  match Hashtbl.find_opt t.deleted user with Some r -> !r | None -> 0

let split_cmd s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let handle t ~client data =
  let user = (client : Kerberos.Principal.t).Kerberos.Principal.name in
  let cmd, rest = split_cmd (Bytes.to_string data) in
  let reply s = Some (Bytes.of_string s) in
  match cmd with
  | "SEND" ->
      let rcpt, body = split_cmd rest in
      deliver t ~user:rcpt (Bytes.of_string body);
      reply "OK"
  | "COUNT" -> reply (string_of_int (mailbox_count t ~user))
  | "RETR" -> (
      let b = box t user in
      match List.nth_opt !b (int_of_string_opt rest |> Option.value ~default:(-1)) with
      | Some msg -> Some msg (* raw bytes, nothing prepended *)
      | None -> reply "ERR no such message")
  | "DELE" -> (
      let b = box t user in
      let n = int_of_string_opt rest |> Option.value ~default:(-1) in
      match List.nth_opt !b n with
      | Some _ ->
          b := List.filteri (fun i _ -> i <> n) !b;
          let r =
            match Hashtbl.find_opt t.deleted user with
            | Some r -> r
            | None ->
                let r = ref 0 in
                Hashtbl.replace t.deleted user r;
                r
          in
          incr r;
          reply "OK"
      | None -> reply "ERR no such message")
  | _ -> reply "ERR bad command"

let install ?config net host ~profile ~principal ~key ~port =
  let t = { boxes = Hashtbl.create 8; deleted = Hashtbl.create 8; ap = None } in
  let ap =
    Kerberos.Apserver.install ?config net host ~profile ~principal ~key ~port
      ~handler:(Svc_telemetry.instrument net ~component:"mailserver" (handle t)) ()
  in
  t.ap <- Some ap;
  t
