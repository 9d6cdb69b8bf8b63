(** RTT estimation (RFC 6298): smoothed RTT, variance, and the derived
    retransmission timeout, clamped to [\[1 ms, 4 s\]]. The comparator
    engine ([Tas_baseline.Tcp_engine]) feeds it from echoed timestamps,
    which are never ambiguous, so no sample needs Karn's filter. TAS does
    not use it: the fast path keeps its own EWMA ([rtt_est]) in the
    Table-3 flow record. *)

type t

val create : ?initial_rto_ns:int -> unit -> t
(** Default initial RTO: 10 ms (datacenter-tuned, not the RFC's 1 s). *)

val sample : t -> int -> unit
(** [sample t rtt_ns] folds in a new RTT measurement. *)

val srtt_ns : t -> int
(** Smoothed RTT; 0 before the first sample. *)

val rto_ns : t -> int
(** Current retransmission timeout, clamped to [\[min_rto, max_rto\]]. *)

val backoff : t -> unit
(** Double the RTO (exponential backoff after a timeout). *)

val reset_backoff : t -> unit
