(** One end of a flow: an address and a port. *)

type t = Addr.t * int

module Table : Hashtbl.S with type key = t
(** Tables keyed by endpoint, with int equality and an int hash: the
    per-packet port lookup and the AP server's peer table never go
    through polymorphic hashing or comparison. *)
