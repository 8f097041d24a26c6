(** One end of a flow: an address and a port, packed into one immediate
    int, the 32-bit address above a 30-bit port. A table keyed by
    endpoints then boxes no tuple per entry, and a lookup builds none. *)

type t = private int

val max_port : int
(** [2{^30} - 1], the largest port an endpoint can carry. *)

val packable : Addr.t -> int -> bool
(** Whether the pair fits: an address in [0 .. 2{^32} - 1] and a port in
    [0 .. max_port]. Only such pairs pack one-to-one. *)

val make : Addr.t -> int -> t
(** @raise Invalid_argument unless {!packable}. *)

val hash : t -> int
(** A non-negative hash whose low bits mix the address into the port's:
    the one {!Table} uses, for tables that index endpoints their own
    way. *)

module Table : Hashtbl.S with type key = t
(** Tables keyed by endpoint, with int equality and an int hash: the
    per-packet port lookup and the AP server's peer table never go
    through polymorphic hashing or comparison. *)
