type t = {
  archives : (string, bytes) Hashtbl.t;
  mutable destroyed : (string * string) list;
  mutable ap : Kerberos.Apserver.t option;
}

let apserver t = match t.ap with Some a -> a | None -> assert false
let archive t ~path data = Hashtbl.replace t.archives path data
let archived t path = Hashtbl.find_opt t.archives path
let destroyed t = t.destroyed

let split_cmd s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let handle t ~client data =
  let who = Kerberos.Principal.to_string client in
  let cmd, rest = split_cmd (Bytes.to_string data) in
  let reply s = Some (Bytes.of_string s) in
  match cmd with
  | "ARCHIVE" ->
      let path, contents = split_cmd rest in
      archive t ~path (Bytes.of_string contents);
      reply "OK"
  | "RESTORE" -> (
      match archived t rest with
      | Some data -> Some data
      | None -> reply "ERR no archive")
  | "DELETE" ->
      (* Same verb as the file server: the redirect attack's target. *)
      if Hashtbl.mem t.archives rest then begin
        Hashtbl.remove t.archives rest;
        t.destroyed <- (rest, who) :: t.destroyed;
        reply "OK"
      end
      else reply "ERR no archive"
  | _ -> reply "ERR bad command"

let install ?config net host ~profile ~principal ~key ~port =
  let t = { archives = Hashtbl.create 16; destroyed = []; ap = None } in
  let ap =
    Kerberos.Apserver.install ?config net host ~profile ~principal ~key ~port
      ~handler:(handle t) ()
  in
  t.ap <- Some ap;
  t
