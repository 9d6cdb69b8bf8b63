(** Per-flow rate buckets (paper §3.1: "the fast path fills a per-flow
    bucket with the amount of new data to send. Asynchronously, the fast
    path drains these buckets, depending on a slow path configured
    per-connection rate-limit or send window size").

    In rate mode this is a token bucket refilled continuously at the
    slow-path-configured rate with a small burst cap, giving per-flow paced
    transmission (the smoothing behind Fig. 13's fairness). In window mode
    the bucket is pass-through and the congestion window bounds in-flight
    data instead. *)

type mode = Rate of float  (** bytes refill from bits-per-second rate *)
          | Window of int  (** congestion window, bytes *)

type t

val create : Tas_engine.Sim.t -> mode -> burst_bytes:int -> t

val set_control : t -> Tas_tcp.Interval_cc.t -> unit
(** Install the controller's current rate or window (the slow path's
    control loop, once per iteration). Allocates nothing: the rate is
    copied into the bucket's own float cell. *)

val mode : t -> mode
(** The installed rate or window, as a fresh value (cold readers). *)

val ns_to_send : t -> int -> int
(** Nanoseconds the installed rate takes to send [n] bytes; 0 in window
    mode or at rate zero. Allocates nothing. *)

val tx_budget : t -> in_flight:int -> want:int -> int
(** How many of [want] bytes may be sent now given tokens (rate mode) or
    remaining window minus [in_flight] (window mode). Consumes tokens for
    the granted amount. *)

val ns_until_bytes_int : t -> int -> int
(** Nanoseconds until [n] bytes of tokens will be available ([max_int] when
    the configured rate is zero), or [-1] when no timer is needed: in
    window mode (the window opens on ACKs, not on a timer) or when the
    tokens are available now. Allocates nothing. *)
