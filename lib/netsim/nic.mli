(** Host network interface with receive-side scaling.

    Incoming packets are steered to one of [num_queues] receive queues via a
    128-entry RSS redirection table indexed by flow hash — the mechanism the
    TAS fast path uses both to pin flows to cores and to re-steer flows when
    the proportionality controller adds or removes cores (paper §3.4: "we
    eagerly update the NIC RSS redirection table"). *)

type t

val create :
  Tas_engine.Sim.t ->
  ip:Tas_proto.Addr.ipv4 ->
  mac:Tas_proto.Addr.mac ->
  num_queues:int ->
  tx_port:Port.t ->
  unit ->
  t

val ip : t -> Tas_proto.Addr.ipv4
val mac : t -> Tas_proto.Addr.mac
val num_queues : t -> int

val packet_pool : t -> Tas_proto.Packet.Pool.t
(** The NIC's packet free list, the analogue of its DPDK mempool: the host
    data path takes its segments from here, and their final release, on
    whichever host, returns them here. A payload a packet owns goes back
    to the domain's {!Tas_buffers.Buf_pool}. *)

val set_rx_handler : t -> (queue:int -> Tas_proto.Packet.t -> unit) -> unit
(** Install the host-side receive callback; invoked once per packet with the
    RSS-selected queue index. *)

val set_span : t -> ?origin:bool -> Tas_telemetry.Span.t -> unit
(** Attach a span collector: {!input} records a [Nic_rx] hop for annotated
    packets and — with [origin] (default false) — starts new spans for
    unannotated arrivals (the NIC-RX sampling origin); {!transmit} records
    [Nic_tx] for annotated packets. Defaults to a disabled collector. *)

val set_trace : t -> Tas_telemetry.Trace.t -> unit
(** Attach a trace ring; checksum-validation drops record [Csum_drop]
    events. Defaults to a disabled ring. *)

val input : t -> Tas_proto.Packet.t -> unit
(** Packet arriving from the network. Frames flagged as corrupt are dropped
    by the simulated hardware checksum-offload validation (counted in
    {!rx_csum_drops}, and released) before touching RSS or the host receive
    handler. *)

val transmit : t -> Tas_proto.Packet.t -> unit
(** Packet leaving the host. *)

val rss : t -> Rss_table.t
(** The NIC's RSS redirection table. The host's fast path installs its
    migration hook, which fires on every rewrite. *)

val set_active_queues : t -> int -> unit
(** Rewrite the RSS redirection table to spread flows over the first [n]
    queues (eager re-steering during fast-path core scale up/down). Fires
    the table's group-migration hook for every remapped flow group.
    @raise Invalid_argument if [n] is not within [1, num_queues]. *)

val queue_for_hash : t -> int -> int
(** The RSS queue the current redirection table assigns to a flow hash —
    lets the host compute a flow's owning queue without a packet in hand. *)

val rx_packets : t -> int
val tx_packets : t -> int
val rx_bytes : t -> int
val tx_bytes : t -> int

val rx_csum_drops : t -> int
(** Frames discarded by receive checksum validation (fault-injected
    payload corruption). *)

val register :
  t -> Tas_telemetry.Metrics.t -> ?labels:Tas_telemetry.Metrics.labels -> unit -> unit
(** Register NIC packet/byte counters, the active-RSS-queue gauge, and the
    egress port's [port_*] metrics with the given labels. *)
