(** Minimal JSON values with a byte-deterministic printer (object fields
    keep the given order, one canonical float format) and a strict parser
    — enough for the telemetry exporters and their round-trip tests. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val of_string : string -> (t, string) result

(** Accessors for tests and schema checks; [None] on shape mismatch. *)

val member : string -> t -> t option

val path : string -> t -> t option
(** [path "a.b.0.c" j]: follow each dot-separated segment, as an object
    member or, when it is a number and the value a list, as a list
    index. *)

val missing : t -> string list -> string list
(** The key paths (as {!path} reads them) that [t] lacks — a schema
    check over a parsed document. *)

val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
