(** The metrics registry: named counters, gauges, and fixed-bucket latency
    histograms with O(1) recording and deterministic text/JSON export
    (metrics sort by name; see {!Json} for float canonicalization). *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Get-or-create. @raise Invalid_argument if the name is registered as a
    different kind. *)

val gauge : t -> string -> gauge
val histogram : ?buckets:float array -> t -> string -> histogram
(** [buckets] are strictly increasing upper bounds; an overflow bucket to
    +inf is implicit. Defaults to {!default_latency_buckets}. The buckets
    of an already-registered histogram are kept as-is. *)

val default_latency_buckets : float array
(** 1 ms … 5 s, bracketing the simulator's 5 ms hop latency. *)

val fresh_name : t -> string -> string
(** [base] if unregistered, else [base#2], [base#3], … — for per-instance
    metrics that must not merge (two KDCs for one realm). *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float
val bucket_counts : histogram -> int array
(** Per-bucket counts; last entry is the +inf overflow bucket. *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0..1], clamped) by linear
    interpolation inside the bucket the rank falls in, clamped to the
    observed [min]/[max]. The overflow bucket interpolates up to the
    observed maximum, so tail quantiles stay finite. 0 on an empty
    histogram. Exported as [p50]/[p95]/[p99] in {!to_json}/{!to_text}. *)

val counters : t -> (string * counter) list
(** Every registered counter, sorted by name. *)

val histograms : t -> (string * histogram) list
(** Every registered histogram, sorted by name — for reports that
    aggregate over families of metrics (the load plane's per-span
    breakdown) without knowing the names in advance. *)

val to_text : t -> string
val to_json : t -> Json.t
