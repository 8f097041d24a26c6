open Kerberos

type t = {
  db : Kdb.t;
  enforce_quality : bool;
  mutable applied : int;
  mutable refused : int;
}

let changes_applied t = t.applied
let changes_refused t = t.refused

(* The policy of the era's proactive checkers: no bare dictionary words or
   their trivial decorations, and a minimum length. *)
let acceptable password =
  let lowered = String.lowercase_ascii password in
  let strip_digits s =
    let n = String.length s in
    let rec core i = if i > 0 && s.[i - 1] >= '0' && s.[i - 1] <= '9' then core (i - 1) else i in
    String.sub s 0 (core n)
  in
  let stem = strip_digits lowered in
  String.length password >= 8
  && not
       (Array.exists
          (fun w -> w = lowered || w = stem)
          Workloads.Passwords.dictionary)

let handle t ~client data =
  let s = Bytes.to_string data in
  let reply m = Some (Bytes.of_string m) in
  match String.index_opt s ' ' with
  | Some i when String.sub s 0 i = "CHANGE" ->
      let newpw = String.sub s (i + 1) (String.length s - i - 1) in
      if t.enforce_quality && not (acceptable newpw) then begin
        t.refused <- t.refused + 1;
        reply "ERR password rejected by policy (dictionary word or too short)"
      end
      else begin
        Kdb.add_user t.db client ~password:newpw;
        t.applied <- t.applied + 1;
        reply "OK"
      end
  | _ -> reply "ERR bad command"

let install ?config ?(enforce_quality = true) net host ~profile ~principal ~key
    ~port ~db =
  let t = { db; enforce_quality; applied = 0; refused = 0 } in
  let (_ : Apserver.t) =
    Apserver.install ?config net host ~profile ~principal ~key ~port
      ~handler:(Svc_telemetry.instrument net ~component:"kpasswd" (handle t)) ()
  in
  t

let change_password client chan ~new_password ~k =
  Client.call_priv client chan (Bytes.of_string ("CHANGE " ^ new_password))
    ~k:(fun r ->
      match r with
      | Error e -> k (Error e)
      | Ok data ->
          if Bytes.to_string data = "OK" then k (Ok ())
          else k (Error (Bytes.to_string data)))
