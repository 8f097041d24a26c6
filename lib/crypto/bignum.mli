(** Arbitrary-precision natural numbers, built from scratch (the sealed
    environment has no zarith) to support the paper's proposed exponential
    key exchange and the LaMacchia–Odlyzko small-modulus discrete-log
    experiments.

    Values are immutable. Only naturals are provided; protocol code never
    needs negatives. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negatives. *)

val to_int_opt : t -> int option
(** [None] if the value exceeds [max_int]. *)

val of_hex : string -> t
val to_hex : t -> string

val of_bytes_be : bytes -> t
val to_bytes_be : ?size:int -> t -> bytes
(** [to_bytes_be ~size n] left-pads with zeros to [size] bytes.
    @raise Invalid_argument if [n] does not fit. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t
val divmod : t -> t -> t * t
(** @raise Division_by_zero. *)

val rem : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t
val bit : t -> int -> bool
(** [bit n i] is bit [i] (little-endian). *)

val num_bits : t -> int
(** Position of the highest set bit plus one; 0 for zero. *)

val mod_pow : base:t -> exp:t -> modulus:t -> t
(** Sliding-window (4-bit) modular exponentiation. For an odd modulus the
    products are Montgomery multiplications over fixed-width limb arrays,
    with no division after the base is brought into Montgomery form; an
    even modulus reduces each product with {!divmod}.
    @raise Division_by_zero if [modulus] is zero and [exp] is not. *)

val mod_mul : t -> t -> modulus:t -> t

val gcd : t -> t -> t

val random : Util.Rng.t -> bits:int -> t
(** Uniform in [0, 2^bits). *)

val random_below : Util.Rng.t -> t -> t
(** Uniform in [0, bound); bound must be positive. *)

val is_probable_prime : ?rounds:int -> Util.Rng.t -> t -> bool
(** Miller–Rabin. *)

val pp : Format.formatter -> t -> unit
