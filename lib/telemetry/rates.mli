(** One bounded per-source table a KDC, keyed by source address (an
    IPv4-shaped [int], as [Sim.Addr.t] is). A row holds what the KDC's
    per-source rules read and what its operator sees of one source:
    - [rate_limit]'s window: the AS requests accepted in the last 60 s of
      the KDC host's clock;
    - demotion's window: the decoded arrivals in the current and previous
      one-minute epochs of engine time;
    - the operator view: AS outcome counts and first and last AS times.

    The table holds at most {!capacity} rows. Every update counts one
    request for its row; a newcomer to a full table takes the row with
    the fewest counted requests (on a tie, the one counted least recently)
    and inherits that count plus one (space-saving top-k). A source with
    more than [U / capacity] of the [U] counted requests keeps its row,
    and a flood of one-shot sources only displaces itself. An evicted
    source seen again starts with empty windows and counts. *)

type t

val capacity : int
val create : unit -> t

val size : t -> int
(** Rows in use. *)

val arrive : t -> int -> now:float -> int
(** Count one decoded arrival from a source at engine time [now]; the
    source's arrivals in [now]'s one-minute epoch and the one before. *)

val admit : t -> int -> now:float -> limit:int -> bool
(** Whether the source has fewer than [limit] accepted AS requests in
    the 60 s before [now], the KDC host's clock. If so the request is
    accepted and recorded; a refused one is not. *)

val forget_windows : t -> unit
(** Empty both rules' windows of every row, keeping the operator's
    counts: what a KDC crash loses. *)

val record_as : t -> int -> time:float -> outcome:string -> unit
(** One AS exchange from a source, finished at [time] (the KDC host's
    clock), under its span outcome label: "ok", "preauth-reject",
    "rate-limited", or any other rejection. *)

val report : addr:(int -> string) -> t list -> Metrics.t -> string
(** The operator's console: the AS sources of the tables, merged by
    rendered address and sorted by requests (then address), with their
    outcome breakdown, rate a minute and a suspicion flag (more than 30
    requests a minute, more than 3 preauth rejects, or any rate-limit
    hit); then the replay hits of the registry's
    [kdc.<realm>.replay_hits] and [ap.<service>.replay_hits] counters, a
    second server's [#n] folded into the first. *)
