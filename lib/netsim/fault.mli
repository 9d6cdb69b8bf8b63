(** Composable, deterministic network fault injection.

    A [Fault.t] is a seeded-RNG stage wrapped around any delivery function
    ([Port.set_deliver], a NIC input, a switch hop). Per offered packet it
    applies at most one fault — scheduled link blackout, loss (uniform i.i.d.
    or Gilbert–Elliott bursty), payload/header corruption, duplication, or a
    bounded reordering hold — so the per-type injected counters reconcile
    exactly against receiver-side drop counters and the stage's own
    forwarded count:

      forwarded = offered - drops + dups

    Corrupted packets are delivered mutated, not dropped: payload corruption
    sets {!Tas_proto.Packet.t.corrupt} (caught by the NIC's checksum-offload
    validation), header corruption mangles the IP total length (caught by
    the TAS fast path's length validation). The damage lands on a packet
    the stage owns alone ({!Tas_proto.Packet.unshare}), so a tapped
    original keeps its bytes. A dropped packet is released. Everything is
    driven by one {!Tas_engine.Rng.t}, so equal seeds and equal packet
    sequences yield identical fault schedules.

    This module subsumes the former [Loss] (uniform drop) and [Reorder]
    (one-shot delay) injectors, with counting that the uncounted
    [Loss.wrap] lacked. *)

type ge = {
  p_gb : float;  (** P(good -> bad) per packet *)
  p_bg : float;  (** P(bad -> good) per packet; mean burst = 1/p_bg *)
}
(** Gilbert–Elliott two-state Markov loss model: the good state drops
    nothing, the bad state drops every packet. *)

type reorder = {
  reorder_rate : float;  (** probability of holding a packet back *)
  reorder_window : int;  (** released after this many later packets pass *)
  max_hold_ns : int;  (** released by timer when traffic dries up *)
}

type spec = {
  uniform_loss : float;  (** i.i.d. drop probability (ignored under [ge]) *)
  ge : ge option;  (** bursty loss; takes precedence over [uniform_loss] *)
  dup_rate : float;  (** probability of delivering a packet twice *)
  corrupt_rate : float;  (** probability of damaging a packet *)
  corrupt_header_fraction : float;
      (** fraction of corruptions that mangle the IP header length (caught
          by fast-path length validation) instead of flipping a payload bit
          (caught by NIC checksum validation) *)
  reorder : reorder option;
  blackouts : (Tas_engine.Time_ns.t * Tas_engine.Time_ns.t) list;
      (** absolute [\[start, stop)] windows during which every packet is
          dropped (link down) *)
}

val passthrough : spec
(** All faults off. Compose with record update:
    [{ (Fault.uniform_loss 0.01) with dup_rate = 0.001 }]. *)

val uniform_loss : float -> spec

val bursty_of_rate : rate:float -> mean_burst_pkts:float -> spec
(** GE parameters whose stationary loss rate is [rate] with mean bad-state
    burst length [mean_burst_pkts]:
    p_bg = 1/mean_burst, p_gb = rate*p_bg/(1-rate). *)

val flaps :
  first_ns:int -> down_ns:int -> up_ns:int -> count:int -> (int * int) list
(** Periodic link flap schedule for [spec.blackouts]: [count] outages of
    [down_ns] separated by [up_ns], the first starting at [first_ns]. *)

type counters = {
  mutable offered : int;  (** packets presented to the stage *)
  mutable forwarded : int;  (** deliveries performed (incl. dup copies) *)
  mutable uniform_drops : int;
  mutable burst_drops : int;  (** Gilbert–Elliott drops (either state) *)
  mutable blackout_drops : int;
  mutable dups : int;
  mutable payload_corrupts : int;
  mutable header_corrupts : int;
  mutable reorder_holds : int;
}

val total_drops : counters -> int
(** uniform + burst + blackout. *)

val total_corrupts : counters -> int

type t

val create : ?trace:Tas_telemetry.Trace.t -> Tas_engine.Sim.t ->
  Tas_engine.Rng.t -> spec -> t
(** The stage owns [rng] from here on. Injected faults are recorded into
    [trace] (kinds [Fault_drop]/[Fault_dup]/[Fault_corrupt]/[Fault_hold])
    when one is supplied and enabled. *)

val spec : t -> spec
val counters : t -> counters

val wrap : t -> (Tas_proto.Packet.t -> unit) -> Tas_proto.Packet.t -> unit
(** [wrap t deliver] is the faulty delivery function. A held (reordered)
    packet is re-delivered through [deliver] after [reorder_window] later
    packets pass or [max_hold_ns] elapses, whichever comes first. *)

val held : t -> int
(** Packets currently held for reordering (not yet delivered). *)

val flush : t -> unit
(** Deliver every held packet immediately (end-of-run drain). *)

val register :
  t -> Tas_telemetry.Metrics.t -> ?labels:Tas_telemetry.Metrics.labels ->
  unit -> unit
(** Export the per-type injected counters as [fault_*] metrics; pass
    distinguishing [labels] (e.g. [("dir", "a2b")]) when several stages
    share one registry. *)
