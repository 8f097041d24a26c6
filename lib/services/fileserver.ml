type t = {
  store : (string, string * bytes) Hashtbl.t;  (** path -> owner, contents *)
  trusted_hosts : Kerberos.Principal.t list;
      (** host principals whose on-behalf-of assertions are believed — the
          NFS-mount trust model the paper's host-key discussion targets *)
  mutable deleted : (string * string) list;
  mutable log : (string * string) list;
  mutable ap : Kerberos.Apserver.t option;
}

let apserver t = match t.ap with Some a -> a | None -> assert false

let write_file t ~owner ~path data = Hashtbl.replace t.store path (owner, data)
let read_file t path = Option.map snd (Hashtbl.find_opt t.store path)
let files t = Hashtbl.fold (fun p (o, _) acc -> (p, o) :: acc) t.store []
let deletions t = t.deleted

let split_cmd s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let request_log t = t.log

let rec handle t ~client data =
  let who = Kerberos.Principal.to_string client in
  t.log <- (Bytes.to_string data, who) :: t.log;
  let cmd, rest = split_cmd (Bytes.to_string data) in
  let reply s = Some (Bytes.of_string s) in
  match cmd with
  | "READ" -> (
      match read_file t rest with
      | Some contents -> Some contents
      | None -> reply "ERR not found")
  | "WRITE" ->
      let path, contents = split_cmd rest in
      Hashtbl.replace t.store path (who, Bytes.of_string contents);
      reply "OK"
  | "DELETE" ->
      if Hashtbl.mem t.store rest then begin
        Hashtbl.remove t.store rest;
        t.deleted <- (rest, who) :: t.deleted;
        reply "OK"
      end
      else reply "ERR not found"
  | "LIST" ->
      reply (String.concat " " (List.sort compare (List.map fst (files t))))
  | "SUDO" ->
      (* "SUDO <user> <command...>": a trusted host speaking for one of its
         local users, as NFS mounts and cron jobs did. The server has no
         way to check the host's claim — that is the paper's point: "the
         intruder can likely impersonate any user on that computer". *)
      if List.exists (Kerberos.Principal.equal client) t.trusted_hosts then begin
        let user, inner = split_cmd rest in
        handle t
          ~client:(Kerberos.Principal.user ~realm:client.Kerberos.Principal.realm user)
          (Bytes.of_string inner)
      end
      else reply "ERR host not trusted"
  | _ -> reply "ERR bad command"

let install ?config ?(trusted_hosts = []) net host ~profile ~principal ~key ~port =
  let t =
    { store = Hashtbl.create 16; trusted_hosts; deleted = []; log = []; ap = None }
  in
  let ap =
    Kerberos.Apserver.install ?config net host ~profile ~principal ~key ~port
      ~handler:(Svc_telemetry.instrument net ~component:"fileserver" (handle t)) ()
  in
  t.ap <- Some ap;
  t
