(** The TAS fast path (paper §3.1).

    A set of dedicated cores receives packets from NIC queues via RSS. For
    each in-order data segment the fast path deposits payload directly into
    the flow's receive buffer, notifies the owning context queue, and
    generates the acknowledgement (with ECN echo and timestamps). For
    transmission it drains per-flow rate/window buckets, segmenting payload
    from the flow's transmit buffer. It handles exactly two exceptions
    inline — duplicate-ACK fast recovery and a single out-of-order receive
    interval — and forwards everything else (SYN/FIN/RST, unknown flows) to
    the slow path.

    Loss recovery is a setting ([Config.recovery_policy]) on one receive
    path and one ACK path: the default [Reno] policy is the paper's
    go-back-N machinery, byte-identical to the seed; [Sack] and [Rack_tlp]
    flows instead advertise SACK blocks on their ACKs, feed a sender
    scoreboard ({!Tas_recovery.Scoreboard}) and repair losses selectively
    — plus, for [Rack_tlp], time-based loss marking and tail-loss probes
    on cancellable simulator timers ({!Tas_engine.Sim.schedule} handles
    in the flow's {!Tas_recovery.State}). *)

type t

type stats = {
  mutable rx_data_packets : int;
  mutable rx_ack_packets : int;
  mutable tx_data_packets : int;
  mutable acks_sent : int;
  mutable ooo_stored : int;
  mutable payload_drops : int;  (** receive payload buffer full *)
  mutable fast_retransmits : int;
  mutable exceptions_forwarded : int;
  mutable malformed_drops : int;
      (** packets whose IP total length disagrees with their actual
          header/payload sizes, dropped before any flow-state access *)
  mutable rx_bursts : int;  (** vector passes over a receive backlog *)
  mutable rx_burst_packets : int;
      (** packets that went through a vector pass; [/ rx_bursts] is the
          achieved mean burst depth *)
}

type rec_stats = {
  mutable rec_episodes : int;  (** SACK/RACK recovery episodes entered *)
  mutable rec_sacked_segments : int;
  mutable rec_lost_marked : int;
      (** segments marked lost by the dupthresh / RACK rules *)
  mutable rec_selective_retransmits : int;
  mutable rec_tlp_probes : int;
  mutable rec_reo_timeouts : int;
      (** RACK reordering timers that fired and marked losses *)
}
(** All zero under the default [Reno] policy (and the [rec_*] metrics are
    not registered then — the registry output stays identical to the
    pre-recovery seed). *)

val create :
  ?trace:Tas_telemetry.Trace.t ->
  ?span:Tas_telemetry.Span.t ->
  Tas_engine.Sim.t ->
  nic:Tas_netsim.Nic.t ->
  cores:Tas_cpu.Core.t array ->
  config:Config.t ->
  t
(** [trace] is the structured trace-event ring; defaults to a disabled
    ring (one boolean test per would-be event). [span] is the per-packet
    latency span collector, shared with the peer host and the network
    elements between them; defaults to disabled (one integer comparison
    per span hook). *)

val attach : t -> unit
(** Install the NIC receive handler: packets are charged and processed on
    the core owning their RSS queue. Each arrival is charged immediately
    but queued on a per-core backlog; one
    scheduled drain works the backlog off in vector passes of at most
    [Config.fp_burst_size] packets ({!process_burst}). *)

val process_burst :
  t -> Tas_proto.Packet.t array -> count:int -> Tas_cpu.Core.t -> unit
(** One vector pass over [pkts.(0 .. count-1)] on [core]: per-segment flow
    lookup, seq/ack update and ACK/data emission exactly as single-packet
    processing would do them, in array order — so a burst of N segments of
    one flow behaves identically to N single dispatches, and per-flow
    ordering is preserved for any interleaving of flows. A pass-local flow
    memo elides repeated flow-table lookups within same-flow runs. Consumes
    one packet reference per packet (like single-packet processing); an
    empty burst ([count = 0]) is a no-op.
    @raise Invalid_argument if [count] exceeds [Array.length pkts]. *)

val set_exception_handler : t -> (Tas_proto.Packet.t -> unit) -> unit
(** Where non-common-case packets go (the slow path). Runs after the fast
    path classified the packet (classification cost already charged). The
    fast path releases the packet when the handler returns, so a handler
    that keeps it must {!Tas_proto.Packet.retain} it. *)

val flows : t -> Flow_table.t
val stats : t -> stats
val rec_stats : t -> rec_stats
val config : t -> Config.t

val handshake_rto_ns : int
(** 20 ms: the slow path's SYN / SYN-ACK retransmission timeout, and the
    tail-loss-probe timeout of a flow that has no RTT sample yet. *)

val nic : t -> Tas_netsim.Nic.t
val trace : t -> Tas_telemetry.Trace.t
val span : t -> Tas_telemetry.Span.t

val register : t -> Tas_telemetry.Metrics.t -> unit
(** Register the fast path's counters ([fp_*]) plus active-core and
    flow-count gauges into a metrics registry. The counters remain the
    plain mutable fields of {!stats}; the registry reads them through
    closures, so the data path is untouched. *)

val active_cores : t -> int
val set_active_cores : t -> int -> unit
(** Scale the fast path up/down: updates the NIC RSS redirection table
    eagerly (§3.4). New work lands only on the first [n] cores; work already
    queued on a deactivated core completes there. Idempotent after the
    first call: a repeat with the unchanged (clamped) count is a no-op and
    does not rewrite the redirection table. *)

val install_flow :
  t -> tuple:Tas_proto.Addr.Four_tuple.t -> Flow_state.t -> unit
(** Slow path installs an established flow's state. *)

val remove_flow : t -> tuple:Tas_proto.Addr.Four_tuple.t -> unit

val fresh_context_id : t -> int
(** Allocate a unique context id (multiple applications attach to one fast
    path; each brings its own context queues, §3.3). *)

val register_context : t -> Context.t -> unit
(** Make a context queue addressable by its id from per-flow state.
    @raise Invalid_argument on a duplicate id. *)

val unregister_context : t -> int -> unit

val context : t -> int -> Context.t
val find_context : t -> int -> Context.t option

val notify_tx : t -> Flow_state.t -> unit
(** Application enqueued data into the flow's transmit buffer: wake the
    owning fast-path core and try to send (the TX command on a context
    queue of Fig. 2). *)

val trigger_retransmit : t -> Flow_state.t -> unit
(** Slow-path command after a retransmission timeout: rewind the flow as if
    the unacknowledged segments had never been sent, then transmit. *)

val reinject : t -> Tas_proto.Packet.t -> unit
(** Re-run fast-path processing for a packet that raced connection setup:
    the slow path calls this after installing a flow when the triggering
    packet carried payload. No-op if the flow is still unknown. *)

val send_raw : t -> Tas_proto.Packet.t -> unit
(** Transmit a packet built by the slow path (SYN/FIN handshakes) through
    this host's NIC. *)

val emit_fin : t -> Flow_state.t -> unit
(** Send a FIN for a drained flow (slow-path teardown); consumes one
    sequence number. *)

val core_idle_fractions : t -> window_ns:int -> float array
(** Per-core idle fraction over the last [window_ns], one entry per
    configured core (inactive cores read 1.0) — the elastic controller's
    per-core signal. Advances the shared per-core busy snapshots, so one
    consumer per instance. *)
