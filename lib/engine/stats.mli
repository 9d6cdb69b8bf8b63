(** Measurement collection for experiments.

    [Summary] keeps O(1) running aggregates (Welford); [Hist] keeps a
    log-bucketed histogram for percentile queries over wide dynamic ranges
    (nanoseconds to seconds) with bounded error; [Series] records (time,
    value) points for figures plotted against time; [Counter] is a plain
    monotonic event counter. *)

(** Online mean / variance / extrema. *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val stddev : t -> float
  val min_v : t -> float
  val max_v : t -> float
  val total : t -> float

  val merge : t -> t -> t
  (** [merge a b] aggregates as if every sample of [a] and [b] had been
      added to one summary (Chan's parallel variance combination). Inputs
      are not mutated. *)
end

(** Log-bucketed histogram: relative bucket error ~2%. Negative samples are
    clamped to zero. *)
module Hist : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val percentile : t -> float -> float
  (** [percentile h p] for [p] in [0,100]; 0 when empty. *)

  val mean : t -> float
  val max_v : t -> float

  val merge : t -> t -> t
  (** Bucket-wise sum; exact (histograms with identical bucketing). *)

  val buckets : t -> (int * int) list
  (** Sparse raw buckets: [(bucket index, count)] for every non-empty
      bucket, ascending by index. Together with {!of_buckets} this is a
      lossless transport of the distribution (up to bucket quantization),
      so merged quantiles computed from summed buckets are exactly what one
      histogram over all samples would report. *)

  val of_buckets : ?sum:float -> ?max_v:float -> (int * int) list -> t
  (** Reconstruct a histogram from sparse buckets (as {!buckets} emits).
      [sum] restores the exact mean, [max_v] the exact maximum; quantile
      queries on the result are bucket-exact.
      @raise Invalid_argument on an out-of-range index or negative count. *)
end

(** Time-stamped samples. *)
module Series : sig
  type t

  val create : unit -> t
  val add : t -> Time_ns.t -> float -> unit
  val points : t -> (Time_ns.t * float) list
  (** In insertion (time) order. *)

  val length : t -> int
end

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end
