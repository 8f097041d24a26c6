(** Structured trace/event log: a bounded ring of events stamped with
    {e simulation} time, severity-filtered at record time, dumped as JSONL
    (one JSON object per line; a leading [trace.truncated] record reports
    ring overflow). *)

type severity = Debug | Info | Warn | Error


type event = {
  time : float;
  severity : severity;
  component : string;  (** which subsystem: "net", "kdc", "apserver", … *)
  kind : string;       (** what happened: "span.begin", "replay.hit", … *)
  attrs : (string * string) list;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity defaults to 8192 events.
    @raise Invalid_argument on non-positive capacity. *)

val set_level : t -> severity -> unit
(** Events below this severity are counted but not stored. Default:
    [Debug] (store everything). *)

val level : t -> severity
val record : t -> event -> unit
val event :
  t -> time:float -> ?severity:severity -> component:string -> kind:string ->
  (string * string) list -> unit

val events : t -> event list
(** Chronological (oldest first). *)

val length : t -> int
val dropped : t -> int
val clear : t -> unit

val to_jsonl : t -> string
val of_jsonl : string -> (event list, string) result
(** Parse a dump back; the [trace.truncated] marker line, if present, is
    returned as an ordinary event. *)
