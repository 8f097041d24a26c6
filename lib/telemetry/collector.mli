(** The telemetry collector: one metrics registry + one trace ring + the
    per-source tables of the KDCs reporting to it + the span lifecycle,
    stamped by a pluggable clock that the simulator points at
    [Sim.Engine.now] — never the wall clock, so identical runs dump
    byte-identical telemetry. The operator view ({!Rates.report}) reads
    the tables and the registry. *)

type t

val create : ?trace_capacity:int -> ?lightweight:bool -> unit -> t
val metrics : t -> Metrics.t
val trace : t -> Trace.t

val fresh_rates : t -> Rates.t
(** A new per-source table, kept for the operator view (one a KDC). *)

val rates : t -> Rates.t list

(** {2 Lightweight mode}

    For pure-throughput runs (the million-user load campaign): counters
    and span-duration histograms stay live — reports are computed from
    them — but the trace ring, the open-span table, the per-span trace
    events and the span attributes are skipped, which is most of the
    per-packet telemetry cost. Off by default; chosen per collector at
    {!create}, never globally. *)

val lightweight : t -> bool

val set_clock : t -> (unit -> float) -> unit
(** Install the time source for events/spans recorded without an explicit
    [?time]. [Sim.Net.create] points this at its engine. *)

val now : t -> float

val event :
  t -> ?time:float -> ?severity:Trace.severity -> component:string ->
  kind:string -> (string * string) list -> unit

(** {2 The event sink}

    A live tap on explicit {!event} calls (protocol hooks, fault
    firings, notes — not the per-span debug machinery). Unlike the trace
    ring, the sink stays fed in lightweight mode: this is how the
    detection plane watches a million-user run whose ring is switched
    off. One sink per collector; [set_sink t None] detaches. *)

val set_sink : t -> (Trace.event -> unit) option -> unit

val wants_events : t -> bool
(** Whether an {!event} call would go anywhere (sink attached, or ring
    live). Hot paths check this before building attribute lists. *)

(** {2 Spans}

    [span_begin] opens a span (default parent: the innermost span entered
    with [with_context]); [span_finish] closes it, records a [span.end]
    trace event and feeds the duration into the
    ["span.<name>.seconds"] histogram. Both are idempotent-safe:
    finishing a closed span is a no-op.

    [attrs] is a thunk, forced only when the collector records traces: a
    lightweight collector formats no span attribute at all, and its
    spans carry none. *)

val span_begin :
  t -> ?time:float -> ?parent:int -> ?attrs:(unit -> (string * string) list) ->
  component:string -> string -> Span.t

val span_finish : t -> ?time:float -> ?outcome:string -> Span.t -> unit
val span_abandon : t -> ?time:float -> Span.t -> unit
(** Close with outcome ["abandoned"] and a [Warn] trace event — for spans
    whose completion event can never arrive (dropped packets, timeouts). *)

val with_context : t -> Span.t -> (unit -> 'a) -> 'a
val open_spans : t -> Span.t list
(** Sorted by id. *)

val open_span_count : t -> int
val abandon_open_spans : t -> ?time:float -> unit -> int
(** Abandon every open span (the engine calls this when the event queue
    drains); returns how many were open. *)

(** {2 Dumps} *)

val trace_jsonl : t -> string
val metrics_json : t -> Json.t
val metrics_text : t -> string

(** {2 The process-wide default}

    Components accept [?telemetry] and fall back to this collector, so
    unmodified call sites are observed without plumbing. Harnesses wanting
    isolation pass their own collector or reset the default. *)

val default : unit -> t
val fresh_default : unit -> t
(** Install and return a brand-new default collector. *)
