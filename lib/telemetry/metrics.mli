(** Process-wide metrics registry: named counters, gauges and log-bucketed
    histograms with label support.

    Design constraints, in order:

    - {b Zero hot-path overhead.} Components keep mutating their existing
      plain [int] stat fields; the registry holds {e closures} that read
      them on demand ([counter_fn]/[gauge_fn]). Registration happens once at
      construction time; the data path never touches the registry.
    - {b Determinism.} Snapshots and both exporters order samples by
      (name, sorted labels), so two same-seed simulation runs export
      byte-identical telemetry.
    - {b One registry per stack instance} (not a global): experiments build
      many TAS instances per process and each gets an isolated namespace.

    Histograms reuse {!Tas_engine.Stats.Hist} (log-bucketed, ~2% relative
    bucket width). *)

type t

type labels = (string * string) list
(** Label sets are normalized (sorted by key) at registration. *)

val quantile_points : float list
(** [[50.; 90.; 99.; 99.9]]: the percentile points every histogram summary
    reports. *)

val create : unit -> t

val counter_fn : t -> ?labels:labels -> ?help:string -> string -> (unit -> int) -> unit
(** Register a monotonic counter read through a closure.
    @raise Invalid_argument on duplicate (name, labels) or invalid name
    (allowed: [[A-Za-z0-9_:]]). *)

val gauge_fn : t -> ?labels:labels -> ?help:string -> string -> (unit -> float) -> unit
(** Register a point-in-time gauge read through a closure. *)

val counter : t -> ?labels:labels -> ?help:string -> string -> Tas_engine.Stats.Counter.t
(** Create, register and return an owned counter cell. *)

val hist : t -> ?labels:labels -> ?help:string -> string -> Tas_engine.Stats.Hist.t
(** Get-or-create a registered histogram: calling again with the same
    (name, labels) returns the same histogram. *)

(** {2 Snapshots} *)

type hist_summary = {
  count : int;
  mean : float;
  max_v : float;
  quantiles : (float * float) list;
      (** [(percentile point, value)] pairs in the registry's quantile
          order, e.g. [(50., v50); ...; (99.9, v999)]. *)
  buckets : (int * int) list;
      (** Sparse raw histogram buckets ([Stats.Hist.buckets]): the lossless
          transport that makes merged quantiles exact. *)
}

val quantile : hist_summary -> float -> float
(** [quantile h p] returns the reported value at percentile point [p],
    recomputing from [h.buckets] when [p] is not among [h.quantiles]. *)

type value = Counter of int | Gauge of float | Hist of hist_summary

type sample = {
  s_name : string;
  s_labels : labels;
  s_help : string;
  s_value : value;
}

val snapshot : t -> sample list
(** Current values, sorted by (name, labels) — deterministic. *)

val merge : sample list list -> sample list
(** Aggregate snapshots from several registries (e.g. one per domain of a
    parallel batch) into one: samples sharing (name, labels) combine —
    counters sum, gauges sum, and histogram summaries merge {e exactly}:
    raw buckets are summed and the quantile points re-queried on the
    combined distribution, so the merged summary equals what one histogram
    over all samples would report (no count-weighted approximation).
    Output is sorted by (name, labels) like {!snapshot}, so merging is
    deterministic and independent of input order up to equal keys.
    @raise Invalid_argument when the same key carries different sample
    types in different snapshots. *)

(** {2 Exporters} *)

val sample_to_json : sample -> Json.t
(** One snapshot (or merged) sample as the same JSON shape {!to_json}
    emits per entry. *)

val to_json : t -> Json.t
val to_json_string : ?pretty:bool -> t -> string
