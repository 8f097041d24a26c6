(** Handler wrapper the services install with: counts commands in the
    registry (["svc.<component>.commands"], [fresh_name]-suffixed per
    instance) and traces each one with the client principal and command
    verb. *)

val instrument :
  Sim.Net.t ->
  component:string ->
  (client:Kerberos.Principal.t -> bytes -> bytes option) ->
  client:Kerberos.Principal.t ->
  bytes ->
  bytes option
