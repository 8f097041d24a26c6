open Kerberos

type t = { net : Sim.Net.t; host : Sim.Host.t; mutable served : int }

let handle t ~client:_ data =
  if Bytes.to_string data = "TIME?" then begin
    t.served <- t.served + 1;
    let reading = Sim.Net.local_time t.net t.host in
    let out = Bytes.create 8 in
    Bytes.set_int64_be out 0 (Int64.bits_of_float reading);
    Some out
  end
  else Some (Bytes.of_string "ERR")

let install ?config net host ~profile ~principal ~key ~port =
  let t = { net; host; served = 0 } in
  let (_ : Apserver.t) =
    Apserver.install ?config net host ~profile ~principal ~key ~port
      ~handler:(handle t) ()
  in
  t

let queries_served t = t.served

let sync client chan ~k =
  Client.call_priv client chan (Bytes.of_string "TIME?") ~k:(fun r ->
      match r with
      | Error e -> k (Error e)
      | Ok data ->
          if Bytes.length data <> 8 then k (Error "malformed time reply")
          else begin
            let reading = Int64.float_of_bits (Bytes.get_int64_be data 0) in
            let host = Client.host client in
            Sim.Host.set_clock host ~real:(Sim.Net.now (Client.net client)) ~reading;
            k (Ok reading)
          end)
