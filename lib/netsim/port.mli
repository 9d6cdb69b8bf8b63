(** An output port: a finite FIFO feeding a serializing link.

    This models both a switch output port (finite queue, DCTCP-style ECN
    marking at a configurable threshold, tail drop) and a NIC egress (large
    queue, no marking). Packets are serialized at the link rate and delivered
    [delay] after serialization completes — the standard store-and-forward
    link model used by ns-3, which the paper's own simulations rely on. *)

type t

val create :
  Tas_engine.Sim.t ->
  rate_bps:float ->
  delay:Tas_engine.Time_ns.t ->
  ?capacity_pkts:int ->
  ?ecn_threshold:int ->
  unit ->
  t
(** [ecn_threshold] is in packets (the paper's switch marks at 65 packets);
    omitted means no marking. [capacity_pkts] defaults to 1024. *)

val set_deliver : t -> (Tas_proto.Packet.t -> unit) -> unit
(** Install the far-end delivery callback. Must be set before traffic flows
    (two-phase construction breaks the port/NIC wiring cycle). *)

val set_span : t -> Tas_telemetry.Span.t -> unit
(** Attach a span collector: span-annotated packets record [Port_q] at
    enqueue and [Port_out] when serialization completes, so the delta is
    the packet's queueing + serialization delay on this link. *)

val enqueue : t -> Tas_proto.Packet.t -> unit
(** Queue a packet for transmission; drops (tail-drop, releasing the
    packet) when full and marks CE above the ECN threshold, on a private
    copy when the packet is shared ({!Tas_proto.Packet.unshare}). *)

val queue_len : t -> int
(** Packets currently queued or in serialization. *)

val drops : t -> int
val marks : t -> int
val tx_packets : t -> int
val tx_bytes : t -> int

val busy_ns : t -> int
(** Cumulative nanoseconds spent serializing since creation. Diff two
    snapshots to compute link utilization over a window. *)

val register :
  t -> Tas_telemetry.Metrics.t -> ?labels:Tas_telemetry.Metrics.labels -> unit -> unit
(** Register this port's counters (tx packets/bytes, drops, ECN marks, busy
    time) and queue-depth gauges under [port_*] metric names with the given
    labels. Read-through closures: no cost on the data path. *)
