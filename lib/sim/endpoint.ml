type t = Addr.t * int

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal ((a, p) : t) ((b, q) : t) = Addr.equal a b && Int.equal p q

  (* Mix both ints so that the low bits the bucket index reads depend on
     the address as well as the port. *)
  let hash ((a, p) : t) =
    let h = ((a * 65599) + p) * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int
end)
