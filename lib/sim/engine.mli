(** Deterministic discrete-event engine. Time is in seconds. Events
    scheduled at equal times fire in scheduling order. *)

type t

val create : unit -> t
val now : t -> float

val attach_telemetry : t -> Telemetry.Collector.t -> unit
(** Register a collector whose spans this engine settles when its queue
    drains ({!run}, or {!run_until} reaching an empty queue): any span
    still open at that point can never be closed by a future event, so it
    is finished with outcome ["abandoned"] plus a [Warn] trace event —
    open spans never leak silently. [Net.create] attaches its collector
    automatically. Idempotent per collector. *)

val attached_telemetry : t -> Telemetry.Collector.t list

val schedule : t -> at:float -> (unit -> unit) -> unit
(** @raise Invalid_argument if [at] is NaN, infinite or in the past: the
    clock must never reach an instant no later event can follow. *)

val schedule_after : t -> float -> (unit -> unit) -> unit

(** {1 Guard timers}

    A timeout that guards a call and is moot once the call settles. *)

type timer

val arm : t -> at:float -> (unit -> unit) -> timer
(** Schedule an action as {!schedule} does and return a handle that can
    {!disarm} it. The action runs at most once; the timer keeps only a
    small record of its own in the queue, so the action's closure is
    released as soon as it runs or is disarmed.
    @raise Invalid_argument if [at] is NaN, infinite or in the past. *)

val arm_after : t -> float -> (unit -> unit) -> timer

val disarm : timer -> unit
(** Drop the action, and with it everything its closure reaches, at
    once. The event keeps its time and sequence number and still fires
    at its instant as a no-op, which {!executed} counts, so disarming
    moves no other event, the clock or any count. Disarming twice, or
    after the action ran, does nothing. *)

val schedule_batch : t -> (float * (unit -> unit)) list -> unit
(** Schedule a burst in one call: fires exactly as the same sequence of
    {!schedule} calls would (sequence numbers are taken in list order),
    but the heap is re-heapified once instead of sifting per event —
    O(n + m) for a batch of m. The loadgen ramp uses this.
    @raise Invalid_argument if any time is NaN, infinite or in the past;
    nothing is queued then. *)

val step : t -> bool
(** Fire the next event: the earliest time, and among equal times the
    first scheduled. [false] (and nothing happens) on an empty queue. *)

val executed : t -> int
(** Events executed so far — the numerator of the load plane's
    [sim_events_per_wall_second]. *)

val run : ?strict_spans:bool -> t -> unit
(** Drain the queue, then settle attached collectors' spans.
    [strict_spans] (default [false]) instead treats a leaked span as a
    bug: @raise Failure naming the open spans (after abandoning them, so
    the dumped trace is still honest). *)

val run_until : t -> float -> unit
(** Fire everything scheduled at or before the given time, then set the
    clock to it. Spans are settled only if this empties the queue —
    a later event may still close a span that is open at [limit]. *)

val settle : t -> unit
(** Settle attached collectors' spans now, as a drained {!run} would:
    everything still open is finished as ["abandoned"] with a [Warn]
    trace event. {!run_until} deliberately leaves spans open while the
    queue is non-empty (a later event may close them), so a caller that
    stops mid-simulation and dumps the trace would otherwise leak
    never-finished spans — call this first. Settling a span an event
    would later have closed makes that close a no-op, so only settle
    when you are done observing. *)

val pending : t -> int
