(** A complete window-based TCP stack over the simulated NIC.

    This is the substrate for the paper's comparison systems: the Linux,
    IX and mTCP server models layer their cost profiles on top of it, and
    "ideal" client hosts run it with no CPU charging, so client machines are
    never the bottleneck (the paper uses "as many client machines as
    necessary"). It implements the real protocol: three-way handshake,
    cumulative ACKs with ECN echo, flow control, NewReno or DCTCP congestion
    control, fast retransmit after three duplicate ACKs, retransmission
    timeouts with exponential backoff, FIN teardown, and out-of-order
    reassembly.

    Reassembly is TAS's own: an {!Tas_buffers.Ooo_interval} per
    connection, bounded at [rx_buf / 1460 + 1] disjoint ranges, with the
    stored bytes in the connection's receive {!Tas_buffers.Ring_buffer},
    which holds a store only while it holds bytes: from the first
    out-of-order segment until every range is delivered or the
    connection is removed. A segment that would exceed the bound evicts
    the range furthest from the expected edge when it sits closer, and
    is dropped otherwise; the sender retransmits what was lost either
    way. No run of the paper's experiments reaches the bound, so they
    see Linux-style full reassembly.

    Every segment is a packet of the NIC's {!Tas_netsim.Nic.packet_pool},
    and {!handle_packet} releases every packet it is handed, following
    the ownership rule of {!Tas_proto.Packet}.

    Connections are keyed by {!Tas_proto.Addr.Four_tuple.t}: each received
    packet is looked up through one scratch probe tuple, so the lookup
    builds no tuple; a connection stores a tuple of its own. *)

type t
type conn

type config = {
  rx_buf : int;
      (** receive buffer in bytes: the advertised window (shifted by the
          window scale 4 after the SYN) and the reassembly ring's size *)
  tx_buf : int;  (** transmit buffer in bytes: what {!send} can queue *)
  algorithm : Tas_tcp.Window_cc.algorithm;  (** congestion control *)
  initial_rto_ns : int;  (** retransmission timeout before an RTT sample *)
}

val default_config : config
(** 64 KB buffers, DCTCP, a 10 ms initial RTO. Every stack uses MSS 1460,
    window scale 4 and an initial window of 10 segments. *)

type callbacks = {
  on_connected : conn -> unit;
  on_receive : conn -> bytes -> unit;
      (** In-order payload delivery; bytes arrive exactly once, in order.
          A chunk may span several segments: the run a gap-filling
          segment completes arrives as one. *)
  on_sendable : conn -> int -> unit;
      (** [n] more transmit-buffer bytes were freed by ACKs. *)
  on_closed : conn -> unit;  (** Peer closed or connection reset. *)
  on_connect_failed : conn -> unit;
      (** A {!connect} failed: the peer answered the SYN with an RST, or
          6 SYN retransmissions (Linux's [tcp_syn_retries]) went
          unanswered. The connection is gone. A passive handshake that
          runs out of retries is removed without a callback. *)
}

val null_callbacks : callbacks

val create : Tas_engine.Sim.t -> Tas_netsim.Nic.t -> config -> t
(** Creates the stack. The caller wires packets in, either directly with
    {!attach} or through a CPU-charging wrapper calling {!handle_packet}. *)

val attach : t -> unit
(** Deliver NIC receive traffic straight into the stack (ideal host: no CPU
    cost, no queueing). *)

val handle_packet : t -> Tas_proto.Packet.t -> unit
(** Protocol processing for one received packet, which it then releases:
    the caller hands over its reference. *)

val listen : t -> port:int -> (conn -> callbacks) -> unit
(** Accept connections on [port]; the callback supplies per-connection
    callbacks at SYN time. *)

val connect :
  t -> ?src_port:int -> dst_ip:Tas_proto.Addr.ipv4 -> dst_port:int ->
  callbacks -> conn

val set_callbacks : conn -> callbacks -> unit
(** Replace the connection's callbacks. {!connect} fires none before it
    returns, so callbacks set right after it see every event. *)

val send : conn -> bytes -> int
(** Queue bytes for transmission; returns how many were accepted (bounded by
    free transmit-buffer space). *)

val tx_free : conn -> int
val close : conn -> unit

val tuple : conn -> Tas_proto.Addr.Four_tuple.t
val bytes_acked : conn -> int
val cwnd : conn -> int

val connection_count : t -> int

val rx_backed : conn -> bool
(** Whether the connection's receive ring holds a store: true exactly
    while out-of-order bytes wait in it. *)

