(** A complete window-based TCP stack over the simulated NIC.

    This is the substrate for the paper's comparison systems: the Linux,
    IX and mTCP server models layer their cost profiles on top of it, and
    "ideal" client hosts run it with no CPU charging, so client machines are
    never the bottleneck (the paper uses "as many client machines as
    necessary"). It implements the real protocol: three-way handshake,
    cumulative ACKs with ECN echo, flow control, NewReno or DCTCP congestion
    control, fast retransmit after three duplicate ACKs, retransmission
    timeouts with exponential backoff, FIN teardown, and full out-of-order
    buffering (Linux-style).

    Connections are keyed by {!Tas_proto.Addr.Four_tuple.t}: each received
    packet is looked up through one scratch probe tuple, so the lookup
    builds no tuple; a connection stores a tuple of its own. *)

type t
type conn

type config = {
  mss : int;
  rx_buf : int;  (** receive buffer = advertised window, bytes *)
  tx_buf : int;
  algorithm : Tas_tcp.Window_cc.algorithm;
  initial_window : int;
  initial_rto_ns : int;
  wscale : int;  (** window-scale shift advertised on SYN (RFC 1323) *)
}

val default_config : config
(** MSS 1460, 64 KB buffers, DCTCP, IW 10 segments. *)

type callbacks = {
  on_connected : conn -> unit;
  on_receive : conn -> bytes -> unit;
      (** In-order payload delivery; chunks arrive exactly once, in order. *)
  on_sendable : conn -> int -> unit;
      (** [n] more transmit-buffer bytes were freed by ACKs. *)
  on_closed : conn -> unit;  (** Peer closed or connection reset. *)
}

val null_callbacks : callbacks

val create : Tas_engine.Sim.t -> Tas_netsim.Nic.t -> config -> t
(** Creates the stack. The caller wires packets in, either directly with
    {!attach} or through a CPU-charging wrapper calling {!handle_packet}. *)

val attach : t -> unit
(** Deliver NIC receive traffic straight into the stack (ideal host: no CPU
    cost, no queueing). *)

val handle_packet : t -> Tas_proto.Packet.t -> unit
(** Protocol processing for one received packet. *)

val listen : t -> port:int -> (conn -> callbacks) -> unit
(** Accept connections on [port]; the callback supplies per-connection
    callbacks at SYN time. *)

val connect :
  t -> ?src_port:int -> dst_ip:Tas_proto.Addr.ipv4 -> dst_port:int ->
  callbacks -> conn

val send : conn -> bytes -> int
(** Queue bytes for transmission; returns how many were accepted (bounded by
    free transmit-buffer space). *)

val tx_free : conn -> int
val close : conn -> unit

val tuple : conn -> Tas_proto.Addr.Four_tuple.t
val is_established : conn -> bool
val bytes_delivered : conn -> int
(** Total in-order payload bytes handed to the application. *)

val bytes_acked : conn -> int
val retransmits : conn -> int
val srtt_ns : conn -> int
val cwnd : conn -> int

val connection_count : t -> int
val total_retransmits : t -> int
