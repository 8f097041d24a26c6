(** Kerberos principals: the three-tuple (primary name, instance, realm).

    "If the principal is a user ... the primary name is the login identifier
    ... For a service, the service name is used as the primary name and the
    machine name is used as the instance, i.e., rlogin.myhost." *)

type t = { name : string; instance : string; realm : string }

val user : ?realm:string -> string -> t
val service : ?realm:string -> string -> host:string -> t
val tgs : realm:string -> t
(** The ticket-granting server of a realm. *)

val cross_realm_tgs : local:string -> remote:string -> t
(** [krbtgt.REMOTE@LOCAL]: the principal a local TGS uses to sign tickets
    destined for a neighboring realm's TGS. *)

val no_instance : string
(** [""]: the one string every principal built by this module with an
    empty instance ({!user}, {!of_string}, {!of_value}) carries. *)

val share_realm : like:t -> t -> t
(** [share_realm ~like p] is [p] with [like]'s realm string when the two
    realms are equal: a server keeping the principals of many clients of
    its own realm then holds one realm string for all of them. *)

val to_string : t -> string
(** [name.instance@REALM]. *)

val of_string : string -> t
(** @raise Invalid_argument on malformed input. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val to_value : t -> Wire.Encoding.value
val of_value : Wire.Encoding.value -> t
(** @raise Wire.Codec.Decode_error *)
