(** Span data: one timed protocol step between two simulation times.
    Create and close spans through {!Collector.span_begin} /
    {!Collector.span_finish}; this module only exposes the record. *)

type t = {
  id : int;
  name : string;
  component : string;
  parent : int option;  (** enclosing span id, for nesting *)
  start_time : float;
  mutable end_time : float option;
  mutable outcome : string;
      (** "ok" / "preauth-reject" / "replay-detected" / "rate-limited" /
          "bad-checksum" / "abandoned" / … — meaningful once closed *)
  attrs : (string * string) list;
}

val is_open : t -> bool
val duration : t -> float option
val pp : Format.formatter -> t -> unit
