type t = int

let port_bits = 30
let max_port = (1 lsl port_bits) - 1

let packable (addr : Addr.t) port =
  addr >= 0 && addr <= 0xffff_ffff && port >= 0 && port <= max_port

let make addr port =
  if not (packable addr port) then
    invalid_arg
      (Printf.sprintf "Endpoint.make: %d:%d cannot be packed (port bound %d)" addr
         port max_port);
  (addr lsl port_bits) lor port

(* The low bits a table index reads come from the port alone after the
   multiply; the fold brings the address's low bits down to them. *)
let hash t =
  let h = t * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = Int.equal
  let hash = hash
end)
