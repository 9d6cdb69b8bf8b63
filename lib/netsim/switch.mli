(** An output-queued Ethernet/IP switch.

    Forwarding is by destination IP: exact host routes, optionally ECMP
    groups (multiple candidate ports, selected by flow hash — the
    connection-stable multi-path routing the paper's fast path relies on for
    in-order delivery, §3.1). A small fixed pipeline latency models
    cut-through forwarding. *)

type t

val create : Tas_engine.Sim.t -> t
(** A switch with no ports, forwarding each packet 500 ns after it
    arrives. *)

val add_port : t -> Port.t -> int
(** Attach an output port; returns its port id. *)

val port : t -> int -> Port.t

val set_span : t -> Tas_telemetry.Span.t -> unit
(** Attach a span collector: span-annotated packets record a [Switch_fwd]
    hop when a route is found, before the forwarding-pipeline delay. *)

val add_route : t -> Tas_proto.Addr.ipv4 -> int -> unit
(** Route a destination host to an output port. Overwrites existing. *)

val add_ecmp_route : t -> Tas_proto.Addr.ipv4 -> int list -> unit
(** Route a destination over several ports; flows pick one by hash, so a
    given connection always takes the same path. *)

val input : t -> Tas_proto.Packet.t -> unit
(** Accept a packet for forwarding. Packets without a route are dropped,
    counted and released. *)

val no_route_drops : t -> int

val register :
  t -> Tas_telemetry.Metrics.t -> ?labels:Tas_telemetry.Metrics.labels -> unit -> unit
(** Register the no-route drop counter plus every attached output port's
    [port_*] metrics, each labelled with its port id. Ports attached after
    this call are not covered. *)
