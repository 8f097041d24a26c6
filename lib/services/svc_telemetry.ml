(* Shared handler instrumentation for the application services: every
   command processed over an established session bumps a per-service
   counter and leaves a trace event naming the client and the command
   verb. The services stay telemetry-free themselves; install wraps their
   handler with this. *)

let verb data =
  let s = Bytes.to_string data in
  let upto = match String.index_opt s ' ' with Some i -> i | None -> String.length s in
  let v = String.sub s 0 (min upto 24) in
  if String.for_all (fun c -> c >= ' ' && c < '\x7f') v then v else "<binary>"

let instrument net ~component handler =
  let tel = Sim.Net.telemetry net in
  let m = Telemetry.Collector.metrics tel in
  let c_cmds =
    Telemetry.Metrics.counter m
      (Telemetry.Metrics.fresh_name m ("svc." ^ component ^ ".commands"))
  in
  fun ~client data ->
    Telemetry.Metrics.incr c_cmds;
    Telemetry.Collector.event tel ~component ~kind:"svc.command"
      [ ("client", Kerberos.Principal.to_string client); ("cmd", verb data) ];
    handler ~client data
