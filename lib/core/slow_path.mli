(** The TAS slow path (paper §3.2).

    Runs on its own core. Handles everything with non-constant per-packet
    cost: connection setup/teardown (TCP handshakes, port allocation),
    congestion-control policy (one control-loop iteration per flow per
    control interval, installing new rates/windows into fast-path state),
    retransmission timeouts (detected by observing stalled unacknowledged
    data across control intervals), and the workload-proportionality
    controller that grows and shrinks the fast path's core set (§3.4). *)

type t

val log_src : Logs.src
(** Connection-control event log (debug level): establishment, teardown,
    timeout retransmissions. The fast path never logs. *)

type conn_error =
  | Timeout  (** handshake retries exhausted with no answer *)
  | Refused  (** peer answered the SYN with an RST (nobody listening) *)
  | Reset  (** peer aborted the half-open handshake *)

(** Callbacks a connection owner (libTAS) registers for slow-path events.
    All fire in slow-path context; libTAS re-schedules onto app cores. Every
    callback identifies its connection — by the flow, whose
    {!Flow_state.opaque} is the owner's, or by that opaque itself — so one
    record can serve all of an owner's connections. *)
type conn_callbacks = {
  established : Flow_state.t -> unit;
  failed : int -> conn_error -> unit;
      (** the connection attempt with this opaque did not establish *)
  reset : Flow_state.t -> unit;
      (** established flow aborted by a peer RST or by dead-flow reaping;
          [closed] still fires as the state is removed *)
  peer_closed : Flow_state.t -> unit;  (** FIN received from the peer *)
  closed : Flow_state.t -> unit;  (** flow fully removed *)
}

val create :
  Tas_engine.Sim.t ->
  fast_path:Fast_path.t ->
  core:Tas_cpu.Core.t ->
  config:Config.t ->
  t
(** Registers itself as the fast path's exception handler and starts the
    control-loop and (if configured) core-scaling timers. *)

val listen :
  t ->
  port:int ->
  (Tas_proto.Addr.Four_tuple.t -> (int * int * conn_callbacks) option) ->
  unit
(** [listen t ~port accept] announces a listener. On an incoming SYN,
    [accept tuple] decides: [Some (opaque, context_id, callbacks)] accepts
    the connection, [None] refuses it. *)

val connect :
  t ->
  opaque:int ->
  context_id:int ->
  dst_ip:Tas_proto.Addr.ipv4 ->
  dst_port:int ->
  conn_callbacks ->
  unit
(** Open a connection ([new_flow] command, Fig. 3). When every ephemeral
    port toward the peer is taken, [failed Refused] fires instead (counted
    in {!port_exhaustions}). *)

val close : t -> Flow_state.t -> unit
(** Graceful close: FIN is emitted once the transmit buffer drains. *)

(** {2 Exception handoff}

    The fast path hands every segment it cannot handle (SYN, FIN, RST, or
    a tuple with no installed flow) to the slow path, which processes it
    [sp_conn_cycles] later on its own core. The handoff takes one
    reference ({!Tas_proto.Packet.retain}) and submits the packet to a
    work queue of that core ({!Tas_cpu.Core.queue}); the packet is
    released right after it is processed (or re-injected into the fast
    path, which takes its own reference). Order is arrival order: one core
    runs its queued work in the order it was queued. Connect and close
    requests take the same route, and so do the control loop's batches of
    due flows (a batch queued by a tick may still be waiting when the next
    tick fires).

    Each connection is one record in one table keyed by its 4-tuple, from
    its SYN to its removal, with one timer: the SYN or SYN-ACK
    retransmission, then the FIN retransmission, then TIME_WAIT. A
    segment costs one lookup. None of it allocates once warm, beyond the
    records themselves. *)

val flow_count : t -> int

val conn_setups : t -> int
val conn_teardowns : t -> int
val timeout_retransmits : t -> int

val rsts_sent : t -> int
(** RSTs generated: segments for unknown tuples, refused SYNs, reaped
    flows. *)

val fin_retry_exhausted : t -> int
(** Flows forcibly torn down after 8 unanswered FIN retransmissions, one
    every 20 ms. *)

val flows_reaped : t -> int
(** Flows reaped by the dead-flow timeout ([Config.dead_flow_timeout_ns]). *)

val arena_refusals : t -> int
(** Connections refused (RST + [failed Refused]) because the flow arena had
    no free slot. *)

val port_exhaustions : t -> int
(** Connects refused ([failed Refused], nothing sent) because every port of
    the 63,000-port ephemeral range toward that peer address and port was
    in use. Exported as [sp_port_exhaustions] from the first refusal on, so
    a run that never exhausts its ports exports the registry unchanged. *)

val arena : t -> Flow_arena.t
(** The off-heap flow-state arena ([Config.flow_arena_capacity] slots). *)

val ring_pool : t -> Tas_buffers.Ring_buffer.Pool.t
(** The payload-ring free list: every established flow takes its rx and tx
    rings from it, and teardown gives them back, so it never holds more
    than two rings per flow of the peak number live at once. *)

val lifecycle_json : t -> Tas_telemetry.Json.t
(** The connection-lifecycle event log as JSON, oldest first: timestamped
    [syn_sent] / [syn_received] / [established] / [close_requested] /
    [fin_acked] / [peer_fin] / [closed] / [handshake_failed] / [rst] /
    [rst_sent] / [fin_retry_exhausted] / [flow_reaped] / [arena_exhausted]
    transitions with their 4-tuples, plus a count of events discarded once
    the log filled.

    The log is a fixed ring of 1024 events held in parallel arrays
    (timestamp, event, the four tuple fields): recording an event stores
    six immediates and allocates nothing; once the ring is full each new
    event overwrites the oldest and counts it as dropped. Only this reader
    builds tuples and strings. *)

val register : t -> Tas_telemetry.Metrics.t -> unit
(** Register the slow path's counters ([sp_*]) plus flow/handshake gauges
    into a metrics registry (read-through closures; the existing mutable
    fields stay the source of truth). Trace events go to the fast path's
    shared ring. *)

val set_scale_observer : t -> (Tas_engine.Time_ns.t -> int -> unit) -> unit
(** Observe fast-path core count changes (for the Fig. 14/15 series). *)

val controller : t -> Tas_control.Controller.t option
(** The elastic core controller driving all dynamic scaling
    ([Config.autoscale]'s policy evaluated every check interval); [None]
    unless [Config.autoscale] is set. Exposes the decision audit
    trail and accepts a p99 latency probe for the [Slo] policy. *)
