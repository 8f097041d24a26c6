(** The headline result: every attack from the paper run against the three
    protocol profiles. This is the reproduction's "Table 1". *)

(** One attack of the matrix: the one list that {!run_all},
    {!expected_shape} and attacklab derive from. *)
type attack = {
  id : string;  (** "E1" ...; attacklab's key is its lower case *)
  title : string;
  section : string;  (** where in the paper the attack lives *)
  shape : bool list;
      (** the expected broken ([true]) / defended pattern across
          {!profiles} *)
  run : Kerberos.Profile.t -> Attacks.Outcome.t;
}

val attacks : attack list
(** Every attack from the paper, in matrix order. *)

type row = {
  id : string;
  attack : string;
  section : string;  (** where in the paper the attack lives *)
  outcomes : (string * Attacks.Outcome.t) list;  (** profile name -> outcome *)
}

val profiles : Kerberos.Profile.t list
(** v4, v5-draft3, hardened. *)

val run_row : string -> row list -> row option

val run_all : unit -> row list
(** Runs every attack against every profile. Deterministic (seeded). *)

val expected_shape : (string * bool list) list
(** Each attack's id and [shape] — the assertion the test suite and
    EXPERIMENTS.md share. *)

val to_cells : row list -> string list list
val header : string list
